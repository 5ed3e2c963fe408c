(** Trampoline profiler — the simulator's stand-in for the paper's Intel
    Pin tool (§4.3).

    Observes the retire stream and records, per PLT entry, how many calls
    targeted it; optionally records the full trampoline-call stream for
    ABTB-size replay (Figure 5). *)

open Dlink_isa

type t

val create : ?record_stream:bool -> unit -> t

val note : t -> site:Addr.t -> Addr.t -> unit
(** Record one trampoline call of target [t] from call site [site].  The
    kernel's packed retire calls it for every retired call it classifies
    as a PLT call, on every event source. *)

val reset : t -> unit
(** Drop all recorded data (used to exclude a warmup phase from
    measurement). *)

val tramp_calls : t -> int
(** Total calls whose architectural target was a PLT entry. *)

val distinct_trampolines : t -> int
(** Paper Table 3. *)

val counts : t -> (Addr.t * int) list
(** Per-trampoline call counts, descending — the rank/frequency data of
    Figure 4. *)

val rank_frequency : t -> (float * float) list
(** [(rank starting at 1, count)] series for log-log plotting. *)

val stream : t -> int array
(** Recorded trampoline-call target sequence (empty unless
    [record_stream]). *)

val site_first_touch : t -> (Addr.t * int) list
(** Call sites of library calls in the order they first executed, paired
    with the trampoline-call index at which each was first seen.  This is
    the page-dirtying schedule a lazy software call-site patcher would
    follow (§2.3/§5.5). *)
