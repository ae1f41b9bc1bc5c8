open Platform

type decision = {
  letter : Instance.node_class;
  state : Word.state;
}

(* One decision of Algorithm 2 given the current accounting: which class
   should the next node have? Mirrors lines 4-15 of the paper's
   pseudo-code; [None] means line 3 failed (total supply below T). *)
let choose inst ~rate (st : Word.state) =
  let n = inst.Instance.n and m = inst.Instance.m in
  let b = inst.Instance.bandwidth in
  let i = st.Word.fed_open and j = st.Word.fed_guarded in
  let total = st.Word.avail_open +. st.Word.avail_guarded in
  if Util.flt total rate then None
  else if i = n then Some Instance.Guarded
  else if j = m then Some Instance.Open
  else begin
    let b_guard_next = b.(n + j + 1) and b_open_next = b.(i + 1) in
    let open_short = Util.flt st.Word.avail_open rate in
    if j = m - 1 then
      (* A single guarded node remains: pick the larger bandwidth next,
         unless the guarded one cannot be paid for. *)
      if open_short || b_guard_next < b_open_next then Some Instance.Open
      else Some Instance.Guarded
    else if open_short || Util.flt (total +. b_guard_next) (2. *. rate) then
      (* Choosing □ now would either be unpayable (O < T) or leave less
         than T of total supply afterwards (O + G - T + b_next < T). *)
      Some Instance.Open
    else Some Instance.Guarded
  end

(* Algorithm 2: [on_step letter st] sees every letter appended with the
   accounting after its [Word.step]; [true] iff the word completes.
   Line 17 of the pseudo-code (O(pi) < 0) is subsumed: a guarded step
   already requires O >= T and an open step keeps O >= 0. *)
let run inst ~rate ~on_step =
  if not (Instance.sorted inst) then invalid_arg "Greedy: instance must be sorted";
  if rate <= 0. then invalid_arg "Greedy: rate must be positive";
  let total = inst.Instance.n + inst.Instance.m in
  let rec go st k =
    k = total
    ||
    match choose inst ~rate st with
    | None -> false
    | Some letter -> (
      match Word.step inst ~rate st letter with
      | None -> false
      | Some st' ->
        on_step letter st';
        go st' (k + 1))
  in
  go (Word.initial_state inst) 0

let test_trace inst ~rate =
  let trace = ref [] in
  let complete =
    run inst ~rate ~on_step:(fun letter state ->
        trace := { letter; state } :: !trace)
  in
  let trace = List.rev !trace in
  ((if complete then Some (Array.of_list (List.map (fun d -> d.letter) trace))
    else None),
   trace)

let feasible inst ~rate = run inst ~rate ~on_step:(fun _ _ -> ())

let test inst ~rate =
  let w = Array.make (inst.Instance.n + inst.Instance.m) Instance.Open in
  let on_step letter (st : Word.state) =
    w.(st.Word.fed_open + st.Word.fed_guarded - 1) <- letter
  in
  if run inst ~rate ~on_step then Some w else None

let trivial_word inst =
  Array.append
    (Array.make inst.Instance.n Instance.Open)
    (Array.make inst.Instance.m Instance.Guarded)

let optimum ?iterations inst =
  if not (Instance.sorted inst) then
    invalid_arg "Greedy.optimal_acyclic: instance must be sorted";
  if inst.Instance.n + inst.Instance.m < 1 then
    invalid_arg "Greedy.optimal_acyclic: no receiver";
  let hi = Bounds.cyclic_upper inst in
  (* Degenerate (e.g. a zero-bandwidth source): rate 0. *)
  if hi <= 0. then 0.
  else begin
    let search =
      Util.dichotomic_search ?iterations ~lo:0. ~hi (fun rate ->
          rate <= 0. || feasible inst ~rate)
    in
    (* lo = 0 is always feasible (the degenerate rate), so the search
       cannot report infeasibility here. *)
    assert search.Util.feasible;
    (* Tolerance fringe: nudge down until the rate is accepted; a rate
       that never is (or a search stuck at 0) is the degenerate 0. *)
    let rec settle rate k =
      if k = 0 || rate <= 0. then 0.
      else if feasible inst ~rate then rate
      else settle (rate *. (1. -. 1e-9)) (k - 1)
    in
    settle search.Util.value 8
  end

let optimal_acyclic ?iterations inst =
  let t = optimum ?iterations inst in
  if t <= 0. then (0., trivial_word inst)
  else
    match test inst ~rate:t with
    | Some w -> (t, w)
    | None -> assert false (* [optimum] only settles on accepted rates *)
