(* Shared measurement helpers for the bench executables.

   Every bench in this directory needs the same three things: a wall
   clock (one-shot, or cheap for slow calls and averaged for fast ones),
   a GC probe that attributes minor-heap allocation and major
   collections to the measured call, and the process peak RSS. Centralising them keeps
   the JSON columns comparable across BENCH_*.json files. *)

type gc_sample = {
  seconds : float;  (* wall seconds per call *)
  minor_words_per_call : float;  (* minor-heap words allocated per call *)
  major_collections : int;  (* major GC cycles over the measured reps *)
}

(* Times [f], returning its value and the per-call seconds. Slow calls
   (> 0.5 s) are measured exactly once so large cases stay affordable;
   fast calls are averaged over enough reps to cover ~0.3 s. *)
let time f =
  let t0 = Unix.gettimeofday () in
  let value = f () in
  let first = Unix.gettimeofday () -. t0 in
  if first > 0.5 then (value, first)
  else begin
    let reps = max 3 (int_of_float (0.3 /. Float.max 1e-7 first)) in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (f ()))
    done;
    (value, (Unix.gettimeofday () -. t0) /. float_of_int reps)
  end

(* One wall-clock sample of [f], seconds first: for runs too long or
   too stateful to repeat (whole sweeps, replays, daemon sessions). *)
let time_once f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (Unix.gettimeofday () -. t0, result)

(* Like [time], but brackets the measured reps with [Gc.quick_stat] so
   the sample carries allocation pressure, not just latency. A
   [Gc.minor] first drains the pending minor heap, otherwise the first
   rep is charged for the caller's leftovers. *)
let time_gc f =
  let t0 = Unix.gettimeofday () in
  let value = f () in
  let first = Unix.gettimeofday () -. t0 in
  let reps =
    if first > 0.5 then 1
    else max 3 (int_of_float (0.3 /. Float.max 1e-7 first))
  in
  Gc.minor ();
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  let seconds = (Unix.gettimeofday () -. t0) /. float_of_int reps in
  let g1 = Gc.quick_stat () in
  let minor_words_per_call =
    (g1.Gc.minor_words -. g0.Gc.minor_words) /. float_of_int reps
  in
  ( value,
    {
      seconds;
      minor_words_per_call;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

(* Peak resident set size of this process in KiB, from the kernel's
   VmHWM accounting. 0 when /proc is unavailable (non-Linux), so
   callers can report it as best-effort. *)
let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan acc =
        match input_line ic with
        | exception End_of_file -> acc
        | line ->
            let acc =
              try Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb)
              with Scanf.Scan_failure _ | End_of_file | Failure _ -> acc
            in
            scan acc
      in
      let kb = scan 0 in
      close_in ic;
      kb
