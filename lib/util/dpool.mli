(** Deterministic shared-memory parallel map over OCaml 5 domains.

    [map ~jobs f items] computes [List.map f items] with up to [jobs]
    domains (the caller participates, so [jobs - 1] are spawned).  Items
    are claimed by an atomic work-stealing cursor — a slow item never
    stalls the others — and each item's result lands in its own slot of a
    shared array (one writer per slot, lock-free), merged by index after
    the join, so the output is identical to the sequential map; workers
    only buy wall-clock time.

    Workers share the heap: [f] may return closures and custom blocks,
    and mutations to shared structures are visible across items — so [f]
    must only mutate state it owns (or state with its own
    synchronisation, like the mutex-guarded trace cache).

    If any application of [f] raises, [map] raises [Failure] naming the
    first failing item, after all domains have been joined. *)

val default_jobs : unit -> int
(** [DLINK_JOBS] when set to a positive integer, else the runtime's
    recommended domain count (≈ core count), else 1.  An invalid value
    (e.g. [DLINK_JOBS=all]) prints a one-line warning to stderr and
    yields 1 instead of degrading silently. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Sequential [List.map] when [jobs <= 1] or for lists of at most one
    element. *)
