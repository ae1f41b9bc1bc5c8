open Platform

type outcome = {
  name : string;
  passed : bool;
  detail : string;
}

let check name passed detail = { name; passed; detail }

let close a b tol = Float.abs (a -. b) <= tol *. Float.max 1. (Float.abs b)

let check_fig1 () =
  let inst = Instance.fig1 in
  let cyc = Broadcast.Bounds.cyclic_upper inst in
  let ac, w = Broadcast.Greedy.optimal_acyclic inst in
  check "fig1 constants"
    (close cyc 4.4 1e-12 && close ac 4. 1e-9
    && Broadcast.Word.to_string w = "gogog")
    (Printf.sprintf "T*=%.4f (4.4), T*ac=%.4f (4), word=%s (gogog)" cyc ac
       (Broadcast.Word.to_string w))

let check_table1 () =
  let expected = [ (2., 4., 0.); (7., 0., 0.); (3., 1., 0.); (5., 0., 3.); (1., 1., 3.) ] in
  match Broadcast.Greedy.test_trace Instance.fig1 ~rate:4. with
  | None, _ -> check "Table I" false "greedy failed at T = 4"
  | Some _, trace ->
    let ok =
      List.length trace = 5
      && List.for_all2
           (fun d (o, g, w) ->
             let s = d.Broadcast.Greedy.state in
             close s.Broadcast.Word.avail_open o 1e-12
             && close s.Broadcast.Word.avail_guarded g 1e-12
             && close s.Broadcast.Word.waste w 1e-12)
           trace expected
    in
    check "Table I" ok "O/G/W trace at T = 4 vs paper"

let check_five_sevenths () =
  let t, _ =
    Broadcast.Exact_q.optimal_acyclic ~b0:Rational.Q.one
      ~opens:[ Rational.Q.make 8 7 ]
      ~guardeds:[ Rational.Q.make 3 7; Rational.Q.make 3 7 ]
  in
  check "Theorem 6.2 gadget (exact)"
    (Rational.Q.equal t (Rational.Q.make 5 7))
    (Printf.sprintf "T*ac = %s (expect 5/7)" (Rational.Q.to_string t))

let check_greedy_vs_exact () =
  let rng = Prng.Splitmix.create 1001L in
  let failures = ref 0 in
  for _ = 1 to 40 do
    let inst =
      Generator.generate
        { Generator.total = 7; p_open = 0.5; dist = Prng.Dist.unif100 }
        rng
    in
    let tg, _ = Broadcast.Greedy.optimal_acyclic inst in
    let te, _ = Broadcast.Exact.optimal_acyclic_words inst in
    if not (close tg te 1e-6) then incr failures
  done;
  check "greedy = exhaustive (40 random)" (!failures = 0)
    (Printf.sprintf "%d mismatches" !failures)

let check_schemes_valid () =
  let rng = Prng.Splitmix.create 1002L in
  let failures = ref 0 in
  for _ = 1 to 20 do
    let inst =
      Generator.generate
        { Generator.total = 15; p_open = 0.7; dist = Prng.Dist.ln1 }
        rng
    in
    let rate, scheme = Broadcast.Low_degree.build_optimal inst in
    let r = Broadcast.Scheme.report scheme in
    let d = Broadcast.Metrics.scheme_report scheme in
    if
      not
        (r.Broadcast.Verify.bandwidth_ok && r.Broadcast.Verify.firewall_ok
        && r.Broadcast.Verify.acyclic
        && Broadcast.Util.fge ~eps:1e-6 r.Broadcast.Verify.throughput rate
        && d.Broadcast.Metrics.max_excess <= 3)
    then incr failures
  done;
  check "Theorem 4.1 schemes valid (20 random)" (!failures = 0)
    (Printf.sprintf "%d invalid schemes" !failures)

let check_cyclic_valid () =
  let rng = Prng.Splitmix.create 1003L in
  let failures = ref 0 in
  for _ = 1 to 20 do
    let inst =
      Generator.generate { Generator.total = 12; p_open = 1.; dist = Prng.Dist.unif100 } rng
    in
    let t = Broadcast.Bounds.cyclic_open_optimal inst *. (1. -. 1e-9) in
    if t > 0. then begin
      let scheme = Broadcast.Cyclic_open.build ~t inst in
      if not (Broadcast.Scheme.achieves_target scheme) then incr failures
    end
  done;
  check "Theorem 5.2 schemes valid (20 random)" (!failures = 0)
    (Printf.sprintf "%d invalid schemes" !failures)

let check_ratio_floor () =
  let rng = Prng.Splitmix.create 1004L in
  let worst = ref 1. in
  for _ = 1 to 60 do
    let inst =
      Generator.generate { Generator.total = 10; p_open = 0.5; dist = Prng.Dist.power1 } rng
    in
    let c = Broadcast.Ratio.compare_instance inst in
    if c.Broadcast.Ratio.cyclic > 1e-6 then
      worst := Float.min !worst (Broadcast.Ratio.ratio c)
  done;
  check "5/7 floor (60 random)"
    (!worst >= (5. /. 7.) -. 1e-6)
    (Printf.sprintf "worst ratio %.4f (floor %.4f)" !worst (5. /. 7.))

let check_transport () =
  let rate, scheme = Broadcast.Low_degree.build_optimal Instance.fig1 in
  let sim =
    Stream.Dataplane.run
      ~config:
        {
          Stream.Dataplane.default_config with
          chunks = 200;
          discipline = Oracle_reservoir;
        }
      (Broadcast.Scheme.snapshot scheme) ~rate
  in
  check "transport delivers fig1"
    (sim.delivered_all && sim.efficiency > 0.8)
    (Printf.sprintf "efficiency %.3f" sim.efficiency)

let check_lastmile () =
  let rng = Prng.Splitmix.create 1005L in
  let bout = Array.init 15 (fun _ -> Prng.Dist.sample Prng.Dist.unif100 rng) in
  let truth = { Lastmile.Model.bout; bin = Array.map (fun b -> 2. *. b) bout } in
  let matrix = Lastmile.Model.synthetic_matrix truth rng in
  let fitted = Lastmile.Model.fit matrix in
  let rmse = Lastmile.Model.rmse fitted matrix in
  check "last-mile exact recovery" (rmse < 1e-6) (Printf.sprintf "RMSE %.2g" rmse)

let run_all () =
  [
    check_fig1 ();
    check_table1 ();
    check_five_sevenths ();
    check_greedy_vs_exact ();
    check_schemes_valid ();
    check_cyclic_valid ();
    check_ratio_floor ();
    check_transport ();
    check_lastmile ();
  ]

let print fmt =
  Format.pp_print_string fmt (Tab.section "selfcheck");
  let outcomes = run_all () in
  List.iter
    (fun o ->
      Format.fprintf fmt "%s  %-36s %s@."
        (if o.passed then "PASS" else "FAIL")
        o.name o.detail)
    outcomes;
  let failures = List.length (List.filter (fun o -> not o.passed) outcomes) in
  Format.fprintf fmt "@.%d/%d checks passed@."
    (List.length outcomes - failures)
    (List.length outcomes);
  failures
