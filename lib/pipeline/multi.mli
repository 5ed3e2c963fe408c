(** Multi-core topology over {!Kernel}: one kernel per core, ASID-tagged
    processes time-sliced in quanta, and a coherence bus snooped by every
    core's skip controller.

    Drivers ({!Dlink_sched.Scheduler} for generate mode,
    {!Dlink_trace.Sched_replay} for packed-trace replay) describe each
    process with a {!spec} and install an {!set_exec} callback that runs
    exactly one request on a core's kernel; dispatch, ASID switching,
    quantum accounting, latency attribution, run-queue rotation, and
    coherence draining live here, once. *)

open Dlink_isa
open Dlink_mach
open Dlink_uarch

type spec = {
  asid : int;  (** address-space tag, conventionally [pid + 1] *)
  requests : int;  (** requests this process must complete *)
  cycles_to_us : int -> float;
      (** latency attribution (a closure over the workload) *)
}

type core

type t

(** [create ?ucfg ?skip_cfg ~with_skip ~policy ~quantum ~cores specs]
    builds [min cores (List.length specs)] kernels, subscribes each skip
    controller to the bus, wires GOT-store publication under
    [Asid_shared_guard], and round-robins pids onto cores ([pid mod
    n_cores]).  The exec callback starts unset; install it with
    {!set_exec} before running. *)
val create :
  ?ucfg:Config.t ->
  ?skip_cfg:Skip.config ->
  with_skip:bool ->
  policy:Policy.t ->
  quantum:int ->
  cores:int ->
  spec list ->
  t

(** Install the one-request execution callback: run request [req] of
    process [pid] on [core]'s kernel. *)
val set_exec : t -> (core -> pid:int -> req:int -> unit) -> unit

val policy : t -> Policy.t
val quantum : t -> int
val bus : t -> Coherence.t
val n_cores : t -> int
val n_procs : t -> int
val core : t -> int -> core
val kernel : core -> Kernel.t
val core_id : core -> int

(** Pid currently dispatched on this core, or [-1]. *)
val running : core -> int

val core_switches : core -> int

(** The core process [pid] is pinned to. *)
val core_of : t -> int -> core

(** Counters attributed to [pid] across its quanta. *)
val proc_counters : t -> int -> Counters.t

val requests_done : t -> int -> int
val quanta : t -> int -> int
val latencies_us : t -> int -> float array
val switches : t -> int
val system_counters : t -> Counters.t

(** Make [pid] current on its core: charges a context switch (policy
    flush or ASID retention) when another process was running, then tags
    the kernel with [pid]'s ASID. *)
val dispatch : t -> core -> int -> unit

(** One quantum of [pid] on core [c]: dispatch, up to [quantum] requests
    through the exec callback with per-request latency attribution, then
    drain the bus and attribute the counter delta to [pid]. *)
val run_quantum : t -> core -> int -> unit

(** One scheduling step across all cores; [false] when no core made
    progress. *)
val step : t -> bool

(** Step until every process has exhausted its requests. *)
val run : t -> unit

val finished : t -> bool

(** Inject a bare GOT-store retirement on [pid]'s core (the rebinding
    probe used by examples and the fault harness), publishing on the bus
    under [Asid_shared_guard]. *)
val retire_got_store : t -> pid:int -> Addr.t -> unit
