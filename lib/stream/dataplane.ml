(* Flat-arena discrete-event streaming dataplane over a frozen CSR
   snapshot.

   Same execution model as the reference simulator kept as a test
   oracle (test/oracle/sim.ml) — every overlay arc is an independent
   pipe that picks a useful chunk whenever it is free — but every piece
   of simulator state lives in preallocated int/float arrays indexed by
   CSR arc ids:

     owned / inflight   chunk bitsets, 63 chunks per word, one row per node
     carrying, duration per-arc transfer state (-1 idle, -2 disabled)
     qlen               per-neighbor send-queue backlog, exact at all times
     Eheap              index-based 4-ary event heap, arena + free-list

   so the steady-state event loop performs no heap allocation (measured
   as minor-words/event in bench/stream_bench.ml).

   Under [Oracle_reservoir] the dataplane consumes the PRNG stream in
   exactly the same order as that reference simulator:
   identical candidate scan order, identical reservoir draws, identical
   jitter draws, identical event tie-breaking. test/test_stream.ml
   checks every shared result field is equal bit-for-bit at small n. *)

type discipline =
  | Random_useful
  | Oracle_reservoir
  | Serve_in_order

type config = {
  chunks : int;
  chunk_size : float;
  seed : int64;
  max_time : float;
  streaming : bool;
  jitter : float;
  dedup_inflight : bool;
  discipline : discipline;
}

let default_config =
  {
    chunks = 200;
    chunk_size = 1.;
    seed = 42L;
    max_time = 1e6;
    streaming = false;
    jitter = 0.;
    dedup_inflight = true;
    discipline = Random_useful;
  }

type quantiles = { p50 : float; p90 : float; p99 : float; max : float }

type result = {
  delivered_all : bool;
  completion_time : float;
  per_node_completion : float array;
  achieved_rate : float;
  efficiency : float;
  events : int;
  transfers : int;
  duplicates : int;
  max_lag : float;
  delay : quantiles;
  startup : quantiles;
  peak_queue : int;
  mean_queue : float;
}

let discipline_name = function
  | Random_useful -> "random"
  | Oracle_reservoir -> "oracle"
  | Serve_in_order -> "inorder"

let discipline_of_name = function
  | "random" -> Some Random_useful
  | "oracle" -> Some Oracle_reservoir
  | "inorder" -> Some Serve_in_order
  | _ -> None

(* 63 usable bits per OCaml int word. *)
let bits = 63

(* floor(c / 63) by multiply-shift: classic ocamlopt emits a hardware
   divide for [c / 63] (it only strength-reduces powers of two), and
   the arrival path performs several word/bit splits per event.
   1090785346 = ceil(2^36 / 63) with error 62, so the identity is exact
   for 0 <= c < 2^36/62 — far beyond any chunk count, and the product
   stays below 2^62 (no overflow). *)
let[@inline] div_bits c = (c * 1090785346) lsr 36
let[@inline] mod_bits c = c - (bits * div_bits c)

(* Number of trailing zeros, [x <> 0]. Branchy binary search — only hit
   once per delivered candidate, and every branch reads a register. *)
let[@inline] ntz x =
  let n = ref 0 and x = ref x in
  if !x land 0x7FFFFFFF = 0 then begin
    n := !n + 31;
    x := !x lsr 31
  end;
  if !x land 0xFFFF = 0 then begin
    n := !n + 16;
    x := !x lsr 16
  end;
  if !x land 0xFF = 0 then begin
    n := !n + 8;
    x := !x lsr 8
  end;
  if !x land 0xF = 0 then begin
    n := !n + 4;
    x := !x lsr 4
  end;
  if !x land 0x3 = 0 then begin
    n := !n + 2;
    x := !x lsr 2
  end;
  if !x land 0x1 = 0 then incr n;
  !n

(* SWAR population count for a 63-bit word. The classic 64-bit masks
   are truncated to OCaml's 63-bit ints: after [x lsr 1] bit 62 is
   clear, so the first mask only needs even bits up to 60, and the
   final byte-sum (<= 63) fits in bits 56..62, which survive the
   multiplication's truncation mod 2^63. *)
let[@inline] popcount x =
  let x = x - ((x lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (x * 0x0101010101010101) lsr 56

(* Delay histogram resolution: bins of chunk_time/16 up to 1024
   chunk-times, overflow clamped into the last bin ([max] stays exact). *)
let hist_bins = 16 * 1024

let quantile_of_hist hist total bin_w exact_max q =
  if total = 0 then 0.
  else begin
    let target = q *. float_of_int total in
    let cum = ref 0 and b = ref 0 and found = ref (-1) in
    while !found < 0 && !b < hist_bins do
      cum := !cum + hist.(!b);
      if float_of_int !cum >= target then found := !b;
      incr b
    done;
    let b = if !found < 0 then hist_bins - 1 else !found in
    Float.min (float_of_int (b + 1) *. bin_w) exact_max
  end

let exact_quantile sorted q =
  let cnt = Array.length sorted in
  if cnt = 0 then 0.
  else sorted.(min (cnt - 1) (int_of_float (q *. float_of_int cnt)))

let run ?(config = default_config) (csr : Flowgraph.Csr.t) ~rate =
  if rate <= 0. then invalid_arg "Dataplane.run: rate must be positive";
  if config.chunks < 1 || config.chunk_size <= 0. then
    invalid_arg "Dataplane.run: bad chunk configuration";
  if config.jitter < 0. then invalid_arg "Dataplane.run: negative jitter";
  let n = csr.Flowgraph.Csr.n and m = csr.Flowgraph.Csr.m in
  let row_off = csr.Flowgraph.Csr.row_off
  and arc_dst = csr.Flowgraph.Csr.col
  and arc_w = csr.Flowgraph.Csr.w
  and pred_off = csr.Flowgraph.Csr.pred_off
  and pred_src = csr.Flowgraph.Csr.pred_src
  and pred_edge = csr.Flowgraph.Csr.pred_edge in
  let k = config.chunks in
  let wpn = (k + bits - 1) / bits in
  let rng = Prng.Splitmix.create config.seed in
  let dedup = config.dedup_inflight in
  let jitter_span = if config.jitter > 0. then log (1. +. config.jitter) else 0. in
  (* Arc arena. carrying: -2 disabled (too slow for the horizon, same
     filter as the oracle), -1 idle, >= 0 chunk in flight. *)
  let carrying = Array.make m (-2) in
  let duration = Array.make m infinity in
  let arc_src = Array.make m 0 in
  for v = 0 to n - 1 do
    for a = row_off.(v) to row_off.(v + 1) - 1 do
      arc_src.(a) <- v
    done
  done;
  let enabled_arcs = ref 0 in
  for a = 0 to m - 1 do
    let w = arc_w.(a) in
    if w > 0. && config.chunk_size /. w < config.max_time then begin
      duration.(a) <- config.chunk_size /. w;
      carrying.(a) <- -1;
      incr enabled_arcs
    end
  done;
  (* Ownership bitsets, one wpn-word row per node. *)
  let owned = Array.make (n * wpn) 0 in
  let inflight = Array.make (n * wpn) 0 in
  let owned_count = Array.make n 0 in
  let release_time =
    Array.init k (fun c ->
        if config.streaming then float_of_int c *. config.chunk_size /. rate else 0.)
  in
  if not config.streaming then begin
    for wi = 0 to wpn - 1 do
      let lo = wi * bits in
      let width = min bits (k - lo) in
      (* All [width] low bits; OCaml ints are exactly 63 bits wide, so
         the full-word mask is -1 (shifting by 63 is unspecified). *)
      owned.(wi) <- (if width = bits then -1 else (1 lsl width) - 1)
    done;
    owned_count.(0) <- k
  end;
  let first_arrival = Array.make n infinity in
  let per_node_completion = Array.make n infinity in
  per_node_completion.(0) <-
    (if config.streaming then release_time.(k - 1) else 0.);
  if not config.streaming then first_arrival.(0) <- 0.;
  let complete_nodes = ref (if config.streaming then 0 else 1) in
  (* Per-neighbor send queues: qlen.(a) = |{c : src owns c, dst lacks
     c}| — the exact backlog of arc [a], counting the chunk currently on
     the wire. Kept incrementally; the time integral of the total gives
     the mean occupancy without any per-arc scan. *)
  let qlen = Array.make m 0 in
  let total_q = ref 0 in
  let peak_q = ref 0 in
  let q_integral = ref 0. in
  let last_event_time = ref 0. in
  if not config.streaming then
    for a = row_off.(0) to row_off.(1) - 1 do
      if carrying.(a) >= -1 then begin
        qlen.(a) <- k;
        total_q := !total_q + k
      end
    done;
  if !total_q > 0 then peak_q := k;
  (* Event heap. Payloads: [0, m) = arrival on that arc, [m, m + k) =
     release of chunk (payload - m). Sized to the worst case — one
     in-flight transfer per enabled arc plus all pending releases — so
     it never grows mid-run. *)
  let heap = Eheap.create ~capacity:(!enabled_arcs + k + 1) () in
  let transfers = ref 0 and duplicates = ref 0 and events = ref 0 in
  (* Delay histogram (per-delivery lag behind release; in file mode the
     release times are all 0, so this is the absolute arrival time —
     the same convention as the oracle's max_lag). *)
  let chunk_time = config.chunk_size /. rate in
  let bin_w = chunk_time /. 16. in
  let inv_bin_w = 1. /. bin_w in
  let hist = Array.make hist_bins 0 in
  let delay_count = ref 0 in
  let delay_max = ref 0. in
  (* [now] lives in a one-element float array so the helper functions
     below take only int arguments — classic ocamlopt would box a float
     parameter at every (non-inlined) call, and this loop must stay
     allocation-free. *)
  let now = Array.make 1 0. in
  let disc =
    match config.discipline with
    | Random_useful -> 0
    | Oracle_reservoir -> 1
    | Serve_in_order -> 2
  in
  (* Uniformly random useful chunk for idle arc [a] = (u, v), or -1.

     Oracle_reservoir consumes one next_below per candidate in
     ascending chunk order — bit-compatible with the oracle's
     reservoir scan. Random_useful draws the same uniform distribution
     with a single next_below: the candidate count comes straight from
     the [qlen] backlog invariant (minus an O(indeg) in-flight
     correction when dedup is on — every in-flight chunk toward [v]
     sits on exactly one in-arc, so scanning [v]'s predecessors'
     [carrying] enumerates the inflight bitset), then one word-skip
     pass locates the j-th candidate bit. No counting scan, so a pick
     costs O(words/2) instead of O(k) — this is where the 20×-over-
     legacy bench gate is won. Serve_in_order takes the lowest useful
     chunk — the per-neighbor-queue streaming discipline (playback
     order) — and is PRNG-free. *)
  let pick a u v =
    let sb = u * wpn and db = v * wpn in
    if disc = 1 then begin
      let choice = ref (-1) and seen = ref 0 in
      for wi = 0 to wpn - 1 do
        let cand =
          owned.(sb + wi)
          land lnot owned.(db + wi)
          land (if dedup then lnot inflight.(db + wi) else -1)
        in
        let x = ref cand in
        while !x <> 0 do
          let b = !x land - !x in
          incr seen;
          if Prng.Splitmix.next_below rng !seen = 0 then
            choice := (wi * bits) + ntz b;
          x := !x lxor b
        done
      done;
      !choice
    end
    else if disc = 2 then begin
      (* Lowest useful chunk: first non-empty candidate word. *)
      let wi = ref 0 and c = ref (-1) in
      while !c < 0 && !wi < wpn do
        let cand =
          Array.unsafe_get owned (sb + !wi)
          land lnot (Array.unsafe_get owned (db + !wi))
          land
          (if dedup then lnot (Array.unsafe_get inflight (db + !wi)) else -1)
        in
        if cand <> 0 then c := (!wi * bits) + ntz cand;
        incr wi
      done;
      !c
    end
    else begin
      (* |owned(u) \ owned(v)| minus the chunks already on the wire
         toward v — exactly popcount of the candidate mask. *)
      let total = ref (Array.unsafe_get qlen a) in
      if dedup then
        for p = pred_off.(v) to pred_off.(v + 1) - 1 do
          let c = Array.unsafe_get carrying (Array.unsafe_get pred_edge p) in
          if
            c >= 0
            && Array.unsafe_get owned (sb + div_bits c)
               land (1 lsl mod_bits c)
               <> 0
          then decr total
        done;
      if !total <= 0 then -1
      else begin
        (* One draw for the whole pick, then word-skip to the j-th
           candidate: whole words are skipped by popcount, only the
           final word is walked bit by bit. *)
        let j = ref (Prng.Splitmix.next_below rng !total) in
        let wi = ref 0 and c = ref (-1) in
        while !c < 0 do
          let cand =
            Array.unsafe_get owned (sb + !wi)
            land lnot (Array.unsafe_get owned (db + !wi))
            land
            (if dedup then lnot (Array.unsafe_get inflight (db + !wi))
             else -1)
          in
          let pc = popcount cand in
          if !j < pc then begin
            let x = ref cand in
            while !j > 0 do
              x := !x land (!x - 1);
              decr j
            done;
            c := (!wi * bits) + ntz (!x land - !x)
          end
          else begin
            j := !j - pc;
            incr wi
          end
        done;
        !c
      end
    end
  in
  let try_start_from u a =
    if
      carrying.(a) = -1
      (* Empty send queue => empty candidate mask, in every discipline
         (the mask is a subset of the backlog set); skipping the scan
         consumes no PRNG draws either way, so the oracle stream is
         unaffected. *)
      && qlen.(a) > 0
    then begin
      let v = arc_dst.(a) in
      let c = pick a u v in
      if c >= 0 then begin
        Array.unsafe_set carrying a c;
        let wi = (v * wpn) + div_bits c in
        Array.unsafe_set inflight wi
          (Array.unsafe_get inflight wi lor (1 lsl mod_bits c));
        let d =
          if jitter_span = 0. then duration.(a)
          else
            let u = (2. *. Prng.Splitmix.next_float rng) -. 1. in
            duration.(a) *. exp (u *. jitter_span)
        in
        Eheap.add heap (now.(0) +. d) a
      end
    end
  in
  let wake_out v =
    for a = row_off.(v) to row_off.(v + 1) - 1 do
      try_start_from v a
    done
  in
  (* Send-queue bookkeeping when [v] acquires chunk [c]: every out-arc
     whose head still lacks [c] gains a pending chunk; every in-arc
     whose tail already has [c] loses one. *)
  let queues_on_learn v c =
    let wi = div_bits c and bit = 1 lsl mod_bits c in
    for a = row_off.(v) to row_off.(v + 1) - 1 do
      if
        Array.unsafe_get carrying a >= -1
        && Array.unsafe_get owned ((Array.unsafe_get arc_dst a * wpn) + wi)
           land bit
           = 0
      then begin
        let q = Array.unsafe_get qlen a + 1 in
        Array.unsafe_set qlen a q;
        incr total_q;
        if q > !peak_q then peak_q := q
      end
    done;
    for p = pred_off.(v) to pred_off.(v + 1) - 1 do
      let e = Array.unsafe_get pred_edge p in
      if
        Array.unsafe_get carrying e >= -1
        && Array.unsafe_get owned ((Array.unsafe_get pred_src p * wpn) + wi)
           land bit
           <> 0
      then begin
        Array.unsafe_set qlen e (Array.unsafe_get qlen e - 1);
        decr total_q
      end
    done
  in
  let learn v c =
    let wi = (v * wpn) + div_bits c and bit = 1 lsl mod_bits c in
    if Array.unsafe_get owned wi land bit = 0 then begin
      Array.unsafe_set owned wi (Array.unsafe_get owned wi lor bit);
      owned_count.(v) <- owned_count.(v) + 1;
      let t = now.(0) in
      if owned_count.(v) = 1 then first_arrival.(v) <- t;
      let d = t -. Array.unsafe_get release_time c in
      let b = int_of_float (d *. inv_bin_w) in
      let b = if b >= hist_bins then hist_bins - 1 else b in
      Array.unsafe_set hist b (Array.unsafe_get hist b + 1);
      incr delay_count;
      if d > !delay_max then delay_max := d;
      if owned_count.(v) = k then begin
        per_node_completion.(v) <- t;
        incr complete_nodes
      end;
      queues_on_learn v c;
      wake_out v
    end
  in
  (* Seed events — releases in ascending chunk order, exactly as
     the oracle pushes them, so FIFO tie-breaking agrees. *)
  if config.streaming then
    for c = 0 to k - 1 do
      Eheap.add heap release_time.(c) (m + c)
    done
  else wake_out 0;
  let running = ref true in
  while !running do
    if not (Eheap.pop heap) then running := false
    else begin
      let t = Eheap.popped_time heap in
      if t > config.max_time then running := false
      else begin
        (* Advance the queue-occupancy integral to this event. *)
        q_integral :=
          !q_integral +. (float_of_int !total_q *. (t -. !last_event_time));
        last_event_time := t;
        now.(0) <- t;
        incr events;
        let p = Eheap.popped_payload heap in
        if p >= m then begin
          (* Release of chunk [p - m] at the source. *)
          let c = p - m in
          let wi = div_bits c and bit = 1 lsl mod_bits c in
          owned.(wi) <- owned.(wi) lor bit;
          owned_count.(0) <- owned_count.(0) + 1;
          if owned_count.(0) = 1 then first_arrival.(0) <- t;
          if owned_count.(0) = k then begin
            per_node_completion.(0) <- t;
            incr complete_nodes
          end;
          queues_on_learn 0 c;
          wake_out 0
        end
        else begin
          let a = p in
          let c = Array.unsafe_get carrying a in
          let v = Array.unsafe_get arc_dst a in
          Array.unsafe_set carrying a (-1);
          let wi = (v * wpn) + div_bits c and bit = 1 lsl mod_bits c in
          Array.unsafe_set inflight wi
            (Array.unsafe_get inflight wi land lnot bit);
          incr transfers;
          if Array.unsafe_get owned wi land bit <> 0 then incr duplicates
          else learn v c;
          (* The sender is free again — same wake order as the oracle:
             the receiver's out-arcs first (inside [learn]), then the
             freed arc. *)
          try_start_from arc_src.(a) a;
          if !complete_nodes = n then running := false
        end
      end
    end
  done;
  let delivered_all = !complete_nodes = n in
  let completion_time = Array.fold_left Float.max 0. per_node_completion in
  let completion_time = if delivered_all then completion_time else infinity in
  let ideal = float_of_int k *. config.chunk_size /. rate in
  let efficiency =
    if delivered_all && completion_time > 0. then ideal /. completion_time
    else 0.
  in
  let achieved_rate =
    if delivered_all && completion_time > 0. then
      float_of_int k *. config.chunk_size /. completion_time
    else 0.
  in
  let delay =
    {
      p50 = quantile_of_hist hist !delay_count bin_w !delay_max 0.50;
      p90 = quantile_of_hist hist !delay_count bin_w !delay_max 0.90;
      p99 = quantile_of_hist hist !delay_count bin_w !delay_max 0.99;
      max = !delay_max;
    }
  in
  let startup =
    let xs = Array.sub first_arrival 1 (max 0 (n - 1)) in
    Array.sort Float.compare xs;
    {
      p50 = exact_quantile xs 0.50;
      p90 = exact_quantile xs 0.90;
      p99 = exact_quantile xs 0.99;
      max = (if Array.length xs = 0 then 0. else xs.(Array.length xs - 1));
    }
  in
  let mean_queue =
    if !last_event_time > 0. && !enabled_arcs > 0 then
      !q_integral /. (!last_event_time *. float_of_int !enabled_arcs)
    else 0.
  in
  {
    delivered_all;
    completion_time;
    per_node_completion;
    achieved_rate;
    efficiency;
    events = !events;
    transfers = !transfers;
    duplicates = !duplicates;
    max_lag = !delay_max;
    delay;
    startup;
    peak_queue = !peak_q;
    mean_queue;
  }

(* {2 Canonical metrics serialization} *)

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let quantiles_json q =
  Printf.sprintf {|{"p50": %s, "p90": %s, "p99": %s, "max": %s}|}
    (json_float q.p50) (json_float q.p90) (json_float q.p99) (json_float q.max)

let metrics_to_json ~config ~nodes ~edges ~rate r =
  Printf.sprintf
    {|{"format": "bmp-stream-metrics", "version": 1, "nodes": %d, "edges": %d, "rate": %s, "chunks": %d, "streaming": %b, "jitter": %s, "discipline": "%s", "delivered_all": %b, "completion_time": %s, "achieved_rate": %s, "efficiency": %s, "events": %d, "transfers": %d, "duplicates": %d, "delay": %s, "startup": %s, "peak_queue": %d, "mean_queue": %s}|}
    nodes edges (json_float rate) config.chunks config.streaming
    (json_float config.jitter)
    (discipline_name config.discipline)
    r.delivered_all (json_float r.completion_time)
    (json_float r.achieved_rate) (json_float r.efficiency) r.events r.transfers
    r.duplicates (quantiles_json r.delay) (quantiles_json r.startup)
    r.peak_queue (json_float r.mean_queue)
