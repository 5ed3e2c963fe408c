(** Replay mirror of the multi-process scheduler.

    A process's architectural stream is independent of scheduling (no
    shared memory), so one single-process recording per workload —
    warmup 0, requests from index 0, matching [Scheduler.create]'s loader
    options — replays under any (quantum, policy, cores) combination.
    Per-core replay machines reproduce the microarchitectural
    interactions: context-switch flushes or ASID retention, cross-core
    GOT-store publication over the coherence bus, and ABTB invalidations.
    Counters, switches, and per-process latencies are bit-identical to a
    [Scheduler] run of the same configuration. *)

module Sim = Dlink_core.Sim
module Skip = Dlink_pipeline.Skip
module Workload = Dlink_core.Workload
module Counters = Dlink_uarch.Counters
module Policy = Dlink_sched.Policy
module Quantum_sweep = Dlink_sched.Quantum_sweep

type result = {
  system : Counters.t;  (** summed core counters *)
  switches : int;
  per_proc : (string * Counters.t * float array) list;
      (** per process: name, counter share, request latencies (µs) *)
}

val run :
  ?ucfg:Dlink_uarch.Config.t ->
  ?skip_cfg:Skip.config ->
  ?mode:Sim.mode ->
  ?requests:int ->
  policy:Policy.t ->
  quantum:int ->
  cores:int ->
  (Workload.t * Trace.t) list ->
  result
(** Replay one scheduler configuration to completion.  Traces must have
    warmup 0 and at least [requests] measured requests each; the
    configuration must be replay-compatible ([Invalid_argument]
    otherwise). *)

val point_of_result :
  quantum:int -> policy:Policy.t -> result -> Quantum_sweep.point

val sweep :
  ?ucfg:Dlink_uarch.Config.t ->
  ?skip_cfg:Skip.config ->
  ?mode:Sim.mode ->
  ?requests:int ->
  ?cores:int ->
  ?jobs:int ->
  ?policies:Policy.t list ->
  ?quanta:int list ->
  Workload.t list ->
  Quantum_sweep.point list
(** Drop-in replacement for [Quantum_sweep.sweep]: records (or fetches
    from the cache) one trace per workload, then replays every
    (quantum, policy) combination — on [jobs] {!Dlink_util.Dpool} domains
    when given, which share one heap and so read the one warm trace
    cache.  Point order matches [Quantum_sweep.sweep]. *)
