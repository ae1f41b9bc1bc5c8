(* Tests for Algorithm 2 (GreedyTest) and the dichotomic optimal-acyclic
   search of Theorem 4.1. *)

open Platform
module W = Broadcast.Word

let test_table1_trace () =
  (* Letters and accounting must match the paper's Table I exactly. *)
  let word, trace = Broadcast.Greedy.test_trace Instance.fig1 ~rate:4. in
  (match word with
  | Some w -> Alcotest.(check string) "word" "gogog" (W.to_string w)
  | None -> Alcotest.fail "T = 4 infeasible");
  let expected =
    [
      (Instance.Guarded, 2., 4., 0.);
      (Instance.Open, 7., 0., 0.);
      (Instance.Guarded, 3., 1., 0.);
      (Instance.Open, 5., 0., 3.);
      (Instance.Guarded, 1., 1., 3.);
    ]
  in
  Alcotest.(check int) "steps" 5 (List.length trace);
  List.iter2
    (fun d (letter, o, g, w) ->
      Alcotest.(check bool) "letter" true (d.Broadcast.Greedy.letter = letter);
      let s = d.Broadcast.Greedy.state in
      Helpers.close "O" s.W.avail_open o;
      Helpers.close "G" s.W.avail_guarded g;
      Helpers.close "W" s.W.waste w)
    trace expected

let test_failure_trace () =
  (* Far above the optimum the algorithm must fail (and report a partial
     trace). *)
  let word, _trace = Broadcast.Greedy.test_trace Instance.fig1 ~rate:5. in
  Alcotest.(check bool) "T = 5 infeasible" true (word = None)

let test_optimal_fig1 () =
  let t, w = Broadcast.Greedy.optimal_acyclic Instance.fig1 in
  Helpers.close ~tol:1e-9 "T*ac = 4" t 4.;
  Alcotest.(check bool) "witness word valid" true
    (W.feasible Instance.fig1 ~rate:(t *. (1. -. 1e-9)) w)

let test_boundary () =
  let inst = Instance.fig1 in
  Alcotest.(check bool) "just below optimum" true
    (Broadcast.Greedy.test inst ~rate:3.999999 <> None);
  Alcotest.(check bool) "just above optimum" true
    (Broadcast.Greedy.test inst ~rate:4.001 = None)

let test_open_only_matches_closed_form () =
  let inst = Instance.create ~bandwidth:[| 6.; 5.; 4.; 3. |] ~n:3 ~m:0 () in
  let t, w = Broadcast.Greedy.optimal_acyclic inst in
  Helpers.close ~tol:1e-9 "matches Section III-B formula" t
    (Broadcast.Bounds.acyclic_open_optimal inst);
  Alcotest.(check string) "word is all opens" "ooo" (W.to_string w)

let test_guards () =
  let unsorted = Instance.create ~bandwidth:[| 6.; 3.; 5. |] ~n:2 ~m:0 () in
  (try
     ignore (Broadcast.Greedy.optimal_acyclic unsorted);
     Alcotest.fail "unsorted accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Broadcast.Greedy.test Instance.fig1 ~rate:0.);
    Alcotest.fail "zero rate accepted"
  with Invalid_argument _ -> ()

(* The central correctness property (Lemma 4.5): the greedy feasibility
   test finds the same optimum as exhaustive enumeration of all words. *)
let prop_greedy_is_exact =
  QCheck.Test.make ~name:"greedy optimum = exhaustive optimum" ~count:80
    (Helpers.instance_arb ~max_open:5 ~max_guarded:5) (fun inst ->
      let t_greedy, _ = Broadcast.Greedy.optimal_acyclic inst in
      let t_exact, _ = Broadcast.Exact.optimal_acyclic_words inst in
      Helpers.close ~tol:1e-6 "greedy vs exact" t_greedy t_exact;
      true)

(* The greedy witness word must itself achieve the claimed throughput. *)
let prop_witness_achieves =
  QCheck.Test.make ~name:"witness word achieves T*ac" ~count:80
    (Helpers.instance_arb ~max_open:10 ~max_guarded:10) (fun inst ->
      let t, w = Broadcast.Greedy.optimal_acyclic inst in
      QCheck.assume (t > 1e-6);
      let tw = W.optimal_throughput_closed_form inst w in
      Helpers.close ~tol:1e-6 "witness throughput" tw t;
      true)

(* T*ac never exceeds the cyclic closed form (Lemma 5.1). *)
let prop_below_cyclic =
  QCheck.Test.make ~name:"T*ac <= T* closed form" ~count:100
    (Helpers.instance_arb ~max_open:12 ~max_guarded:12) (fun inst ->
      let t, _ = Broadcast.Greedy.optimal_acyclic inst in
      t <= Broadcast.Bounds.cyclic_upper inst +. 1e-9)

(* Instances scaled towards 0, where the tolerance fringe is reached. *)
let scaled_instance_arb =
  QCheck.map
    ~rev:(fun inst -> (inst, 1.))
    (fun (inst, scale) ->
      Instance.create
        ~bandwidth:(Array.map (fun b -> b *. scale) inst.Instance.bandwidth)
        ~n:inst.Instance.n ~m:inst.Instance.m ())
    (QCheck.pair
       (Helpers.instance_arb ~max_open:8 ~max_guarded:8)
       (QCheck.oneofl [ 1.; 1e-6; 1e-10; 1e-13 ]))

(* Reference: the bisection probing with [test], word and all, then
   nudging the witness lookup down. [optimum]'s word-free probes must
   give the same optimum and witness, bit for bit. *)
let reference_optimal_acyclic inst =
  let trivial =
    Array.append
      (Array.make inst.Instance.n Instance.Open)
      (Array.make inst.Instance.m Instance.Guarded)
  in
  let test rate = Broadcast.Greedy.test inst ~rate in
  let hi = Broadcast.Bounds.cyclic_upper inst in
  if hi <= 0. then (0., trivial)
  else begin
    let search =
      Broadcast.Util.dichotomic_search ~lo:0. ~hi (fun rate ->
          rate <= 0. || test rate <> None)
    in
    let t = search.Broadcast.Util.value in
    match test t with
    | Some w -> (t, w)
    | None ->
      let rec retry rate k =
        if k = 0 || rate <= 0. then (0., trivial)
        else
          match test rate with
          | Some w -> (rate, w)
          | None -> retry (rate *. (1. -. 1e-9)) (k - 1)
      in
      retry t 8
  end

let prop_optimum_matches_reference =
  QCheck.Test.make ~name:"optimal_acyclic matches the word-building search"
    ~count:200 scaled_instance_arb (fun inst ->
      let t, w = Broadcast.Greedy.optimal_acyclic inst in
      let t', w' = reference_optimal_acyclic inst in
      Int64.equal (Int64.bits_of_float t) (Int64.bits_of_float t')
      && w = w'
      && Int64.equal
           (Int64.bits_of_float (Broadcast.Greedy.optimum inst))
           (Int64.bits_of_float t))

let suites =
  [
    ( "greedy",
      [
        Alcotest.test_case "Table I trace" `Quick test_table1_trace;
        Alcotest.test_case "failure above optimum" `Quick test_failure_trace;
        Alcotest.test_case "fig1 optimum" `Quick test_optimal_fig1;
        Alcotest.test_case "feasibility boundary" `Quick test_boundary;
        Alcotest.test_case "open-only closed form" `Quick test_open_only_matches_closed_form;
        Alcotest.test_case "input guards" `Quick test_guards;
        QCheck_alcotest.to_alcotest prop_greedy_is_exact;
        QCheck_alcotest.to_alcotest prop_witness_achieves;
        QCheck_alcotest.to_alcotest prop_below_cyclic;
        QCheck_alcotest.to_alcotest prop_optimum_matches_reference;
      ] );
  ]
