open Platform

(* FIFO pools of senders with remaining upload capacity. A queue cell is
   mutable so partial draws do not reallocate. *)
type sender = { node : int; mutable remaining : float }

let draw pool ~emit ~dst ~need ~cut =
  (* Take [need] units from the pool head-first, emitting edges. *)
  let rec go need =
    if need > cut then
      match Queue.peek_opt pool with
      | None -> need
      | Some s ->
        if s.remaining <= cut then begin
          ignore (Queue.pop pool);
          go need
        end
        else begin
          let amount = Float.min need s.remaining in
          emit ~src:s.node ~dst amount;
          s.remaining <- s.remaining -. amount;
          if s.remaining <= cut then ignore (Queue.pop pool);
          go (need -. amount)
        end
    else 0.
  in
  go need

(* The pool accounting of Lemma 4.6, edges handed to [emit]. The control
   flow never reads the edges back, so a no-op [emit] decides exactly
   whether the construction succeeds, without building anything. *)
let run_pools inst ~rate w ~emit =
  if not (Instance.sorted inst) then invalid_arg "Low_degree.build: instance must be sorted";
  if not (Word.complete w inst) then invalid_arg "Low_degree.build: incomplete word";
  if rate <= 0. then invalid_arg "Low_degree.build: rate must be positive";
  let b = inst.Instance.bandwidth in
  (* Comfortably above the feasibility tolerance (1e-9 relative) so that
     round-off residues in the pools neither fail the construction nor
     materialize as micro-edges that would inflate outdegrees. *)
  let cut = 1e-7 *. rate in
  let open_pool = Queue.create () and guarded_pool = Queue.create () in
  Queue.push { node = 0; remaining = b.(0) } open_pool;
  let next_open = ref 1 and next_guarded = ref (inst.Instance.n + 1) in
  let feed letter =
    match letter with
    | Instance.Guarded ->
      let v = !next_guarded in
      incr next_guarded;
      let missing = draw open_pool ~emit ~dst:v ~need:rate ~cut in
      if missing > cut then
        invalid_arg "Low_degree.build: word is not feasible at this rate";
      Queue.push { node = v; remaining = b.(v) } guarded_pool
    | Instance.Open ->
      let v = !next_open in
      incr next_open;
      (* Conservative: guarded supply first, then the earliest opens. *)
      let after_guarded = draw guarded_pool ~emit ~dst:v ~need:rate ~cut in
      let missing = draw open_pool ~emit ~dst:v ~need:after_guarded ~cut in
      if missing > cut then
        invalid_arg "Low_degree.build: word is not feasible at this rate";
      Queue.push { node = v; remaining = b.(v) } open_pool
  in
  Array.iter feed w

let build_graph inst ~rate w =
  let graph = Flowgraph.Graph.create (Instance.size inst) in
  run_pools inst ~rate w ~emit:(fun ~src ~dst amount ->
      Flowgraph.Graph.add_edge graph ~src ~dst amount);
  graph

let constructible inst ~rate w =
  match run_pools inst ~rate w ~emit:(fun ~src:_ ~dst:_ _ -> ()) with
  | () -> true
  | exception Invalid_argument _ -> false

(* Worst promised class of Theorem 4.1: guarded +1, one open node +3, the
   rest +2; open-only instances degenerate to Algorithm 1's +1. *)
let promised_bound inst = if inst.Instance.m = 0 then 1 else 3

let build inst ~rate w =
  let g = build_graph inst ~rate w in
  Scheme.create
    ~provenance:
      {
        Scheme.algorithm = Scheme.Theorem41;
        rate;
        degree_bound = Some (promised_bound inst);
      }
    inst g

let build_optimal inst =
  let rate, w = Greedy.optimal_acyclic inst in
  (* Back off marginally below the bisection value so that float round-off
     in the pool accounting cannot starve the last receiver. *)
  let rate = rate *. (1. -. (4. *. Util.eps)) in
  (rate, build inst ~rate w)
