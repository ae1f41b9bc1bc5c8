(* Wall-clock benchmark for the parallel sweep engine (Parallel.Pool).

   Runs the two heavy experiment sweeps — the Figure 7 ratio surface
   (576 cells) and the Figure 19 average-case grid (quick config) — at
   jobs = 1 and jobs = 4, asserts the rendered output is byte-identical
   (the pool's determinism contract), and appends the timings to
   BENCH_sweep.json together with the machine's core count.

   The > 2x speedup tripwire only arms when the host actually has >= 4
   cores (Domain.recommended_domain_count): on fewer cores extra domains
   cannot buy wall-clock time and the run records timings without
   gating. Run with `make bench-sweep` or
   `dune exec -- bench/sweep_bench.exe`. *)

let render print =
  let buf = Buffer.create 65536 in
  let fmt = Format.formatter_of_buffer buf in
  print fmt;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

type sweep = {
  name : string;
  workload : string;
  jobs1_s : float;
  jobs4_s : float;
  identical : bool;
}

let bench_sweep ~name ~workload print =
  let jobs1_s, out1 = Bench_util.time_once (fun () -> render (print ~jobs:1)) in
  let jobs4_s, out4 = Bench_util.time_once (fun () -> render (print ~jobs:4)) in
  { name; workload; jobs1_s; jobs4_s; identical = String.equal out1 out4 }

let emit_json ~cores sweeps path =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n  \"benchmark\": \"sweep\",\n  \"unit\": \"seconds_per_sweep\",\n";
  p "  \"cores\": %d,\n" cores;
  p "  \"sweeps\": [\n";
  List.iteri
    (fun i s ->
      p
        "    {\"name\": \"%s\", \"workload\": \"%s\",\n\
        \     \"jobs1_s\": %.6e, \"jobs4_s\": %.6e, \"speedup\": %.2f, \
         \"identical\": %b}%s\n"
        s.name s.workload s.jobs1_s s.jobs4_s (s.jobs1_s /. s.jobs4_s)
        s.identical
        (if i = List.length sweeps - 1 then "" else ","))
    sweeps;
  p "  ]\n}\n";
  close_out oc

let () =
  let cores = Domain.recommended_domain_count () in
  let sweeps =
    [
      bench_sweep ~name:"fig7-surface" ~workload:"default grid (576 cells)"
        (fun ~jobs fmt -> Experiments.Fig7_surface.print ~jobs fmt);
      bench_sweep ~name:"fig19-average" ~workload:"quick config (12 cells)"
        (fun ~jobs fmt ->
          Experiments.Fig19_average.print ~jobs
            ~config:Experiments.Fig19_average.quick_config fmt);
    ]
  in
  Printf.printf "%-14s %-28s %10s %10s %8s %10s\n" "sweep" "workload"
    "jobs=1/s" "jobs=4/s" "speedup" "identical";
  List.iter
    (fun s ->
      Printf.printf "%-14s %-28s %10.3f %10.3f %8.2f %10b\n" s.name s.workload
        s.jobs1_s s.jobs4_s (s.jobs1_s /. s.jobs4_s) s.identical)
    sweeps;
  Printf.printf "cores: %d\n" cores;
  emit_json ~cores sweeps "BENCH_sweep.json";
  let divergent = List.filter (fun s -> not s.identical) sweeps in
  if divergent <> [] then begin
    List.iter
      (fun s -> Printf.eprintf "OUTPUT DIVERGENCE (jobs 1 vs 4) in %s\n" s.name)
      divergent;
    exit 1
  end;
  (* The speedup gate needs real parallel hardware to be meaningful. *)
  if cores >= 4 then begin
    let gate = List.for_all (fun s -> s.jobs1_s /. s.jobs4_s >= 2.) sweeps in
    if not gate then begin
      Printf.eprintf "speedup gate (>= 2x at jobs=4 on >= 4 cores) FAILED\n";
      exit 1
    end
  end
  else
    Printf.printf
      "speedup gate skipped: only %d core(s) available (needs >= 4)\n" cores;
  print_endline "sweep_bench: ok (BENCH_sweep.json written)"
