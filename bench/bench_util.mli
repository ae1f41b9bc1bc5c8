(** Shared measurement helpers for the bench executables. *)

type gc_sample = {
  seconds : float;  (** wall seconds per call *)
  minor_words_per_call : float;  (** minor-heap words allocated per call *)
  major_collections : int;  (** major GC cycles over the measured reps *)
}

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f] and returns its value together with the per-call
    wall seconds. Calls slower than 0.5 s are measured once; faster
    calls are averaged over enough repetitions to cover ~0.3 s. *)

val time_once : (unit -> 'a) -> float * 'a
(** [time_once f] runs [f] exactly once and returns the wall seconds
    together with its value — for whole sweeps, replays and sessions
    that are too long or too stateful to repeat. *)

val time_gc : (unit -> 'a) -> 'a * gc_sample
(** [time_gc f] is [time f] extended with a GC probe: the measured
    repetitions are bracketed by [Gc.quick_stat] (after a [Gc.minor] to
    drain the caller's pending minor heap), so the sample reports the
    minor-heap words allocated per call and the number of major
    collections triggered across the reps. *)

val vm_hwm_kb : unit -> int
(** Peak resident set size of this process in KiB ([VmHWM] from
    [/proc/self/status]); [0] where /proc is unavailable. *)
