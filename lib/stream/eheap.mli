(** Index-based 4-ary min-heap for discrete-event simulation.

    Event records (key time, integer payload) live in preallocated flat
    arrays indexed by recycled event ids — an embedded free-list threads
    through the id arena — so the queue performs {e zero heap
    allocation} per event once warmed up: {!add} and {!pop} only read
    and write int/float array cells, growing (by doubling) only when
    more events are simultaneously in flight than ever before.

    Pop order is a strict total order: increasing time, FIFO among
    events with exactly equal times (insertion sequence). This makes
    every simulation driven by the heap deterministic independent of the
    heap's internal layout, and matches the tie-breaking contract of the
    boxed priority queue it replaced (kept with the reference simulator
    in [test/oracle/]), so the dataplane and that oracle can be compared
    event-for-event. {!One_port} runs on it too. *)

type t

val create : ?capacity:int -> unit -> t
(** [create ~capacity ()] preallocates room for [capacity] in-flight
    events (default 16, minimum 4). Size it to the number of concurrent
    transfers — one per busy overlay link — to avoid any growth during
    the run. *)

val size : t -> int
val is_empty : t -> bool

val add : t -> float -> int -> unit
(** [add t time payload] schedules an event. Allocation-free unless the
    arena must grow. *)

val pop : t -> bool
(** Removes the minimum event, [false] on an empty heap. The removed
    event's fields are read through {!popped_time}/{!popped_payload} —
    returning them directly would box a tuple per event. They remain
    valid until the next {!pop}. *)

val popped_time : t -> float
val popped_payload : t -> int

val peek_time : t -> float option
(** Key of the next event to pop. Allocates an option — not for the hot
    loop. *)
