(** Deterministic multi-process round-robin scheduler.

    Time-slices N simulated processes (each its own loaded address space
    and architectural machine) over M cores.  Every core owns one set of
    microarchitectural structures — caches, TLBs, BTB, and (in Enhanced
    mode) one ABTB/Bloom skip unit — shared by all processes assigned to
    it, exactly as co-scheduled processes share a physical core.

    Processes are assigned to cores round-robin by pid and scheduled in
    fixed quanta of [quantum] requests.  Everything is a deterministic
    function of the workload seeds: the same configuration always produces
    bit-identical counters.

    What happens to the skip hardware at a quantum boundary is the
    {!Policy.t} axis under study:
    - [Flush]: the ABTB flushes with the TLBs (today's untagged hardware);
    - [Asid]: tagged entries survive and the process resumes warm;
    - [Asid_shared_guard]: additionally, GOT stores are broadcast on the
      {!Dlink_mach.Coherence} bus and clear remote cores' tables when they
      hit a remote Bloom filter.

    Accounting: each core's counters are snapshotted at quantum boundaries
    and the delta attributed to the process that ran, so both per-process
    and system-wide counters are available. *)

open Dlink_isa
open Dlink_mach
open Dlink_uarch
module Sim = Dlink_core.Sim
module Skip = Dlink_pipeline.Skip
module Workload = Dlink_core.Workload

type t
type proc
type core

val create :
  ?ucfg:Config.t ->
  ?skip_cfg:Skip.config ->
  ?mode:Sim.mode ->
  ?requests:int ->
  policy:Policy.t ->
  quantum:int ->
  cores:int ->
  Workload.t list ->
  t
(** One process per workload (pid = list position, ASID = pid + 1), each
    loaded into its own address space with the workload's [func_align].
    [requests] overrides every workload's default request count; [quantum]
    is in requests; [cores] is clamped to the process count.  [mode]
    defaults to [Enhanced] (the skip hardware present on every core).
    Raises [Invalid_argument] on an empty mix or non-positive sizes. *)

val run : t -> unit
(** Run every process to completion, interleaving quanta across cores. *)

val step : t -> bool
(** Run one quantum on each core that still has runnable processes.
    Returns [false] once nothing is left to schedule. *)

val finished : t -> bool

val retire_got_store : t -> pid:int -> Addr.t -> unit
(** Model a dynamic-loader rebinding store retired by process [pid]: the
    owning core context-switches to [pid], observes the store through its
    skip unit, and — under [Asid_shared_guard] — broadcasts it on the
    coherence bus so sibling cores' tables are invalidated.  The caller is
    responsible for the architectural write (see {!proc_process}). *)

(** {2 Inspection} *)

val policy : t -> Policy.t
val quantum : t -> int
val mode : t -> Sim.mode
val n_cores : t -> int
val bus : t -> Coherence.t
val switches : t -> int
(** Total context switches across all cores. *)

val system_counters : t -> Counters.t
(** Sum of all core counters (fresh record). *)

val procs : t -> proc list
val proc : t -> int -> proc
(** By pid; raises [Invalid_argument] for unknown pids. *)

val pid : proc -> int
val name : proc -> string
val proc_counters : proc -> Counters.t
(** Deltas accumulated over this process's quanta only. *)

val requests_done : proc -> int
val quanta : proc -> int
val latencies_us : proc -> float array
(** Per-request service latencies in execution order. *)

val proc_linked : proc -> Dlink_linker.Loader.t
val proc_process : proc -> Process.t

val core : t -> int -> core
val core_counters : core -> Counters.t
val core_skip : core -> Skip.t option
val core_switches : core -> int
