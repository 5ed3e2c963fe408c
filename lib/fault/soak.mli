(** Long-horizon multi-core soak/chaos harness.

    One interpreter process — one address space, one architectural
    thread — migrates round-robin over [cores] pipeline kernels while
    the dynamic loader churns plugin modules underneath it.  Each core
    keeps its own skip unit whose cached trampoline targets persist
    while the thread runs elsewhere; the acked coherence bus
    ({!Dlink_mach.Coherence}) is what keeps that state honest, and the
    soak exists to batter exactly that machinery: dropped, delayed and
    reordered invalidations, stale unloads, unguarded GOT rewrites, and
    address reuse racing in-flight messages.

    The {!Invariant} checker taps every kernel's retire stream and the
    bus's delivery point; a clean soak must finish with zero violations,
    and a faulted soak must end every hazard either {e recovered}
    (retry, epoch-guard discard, quarantine/degrade) or {e caught} as a
    classified violation — never a silent wrong-target skip.

    The soak runs on the churn machine ({!Dlink_core.Churn.make_machine})
    and adds only its checker and fault injector, so a fault-free
    [cores = 1] soak retires counters bit-identical to the equivalent
    {!Dlink_core.Churn.run_cell} ({!crosscheck}).  One core has no bus:
    coherence faults in a one-core plan count as injected and change
    nothing else. *)

open Dlink_uarch
module Skip = Dlink_pipeline.Skip
module Policy = Dlink_pipeline.Policy
module Churn = Dlink_core.Churn

type params = {
  cores : int;  (** pipeline kernels the thread migrates over (>= 1) *)
  quantum : int;  (** ops per scheduling quantum (>= 1) *)
  policy : Policy.t;  (** applied to the arrival core on each migration *)
  link_mode : Dlink_linker.Mode.t;
  rate : int;  (** churn events per 1000 ops *)
  ops : int;  (** request count (plugin calls) *)
  min_instructions : int;
      (** keep soaking past [ops] until this many instructions retired
          system-wide; [0] disables *)
  seed : int;
  epoch_guard : bool;
      (** validate message generation stamps at delivery (the protocol);
          [false] is the ABA ablation the checker then catches *)
}

val default_params : params
(** 4 cores, quantum 64, [Asid_shared_guard], lazy binding, rate 100,
    10k ops, epoch guard on. *)

type bus_stats = {
  published : int;
  delivered : int;
  acked : int;
  dropped : int;
  retries : int;
  reorders : int;
  timeouts : int;
  stale_discards : int;
  unresolved : int;  (** still parked after quiesce — always 0 *)
}

type report = {
  ops : int;
  churn_events : int;
  migrations : int;
  crashes : int;  (** interpreter faults caught and classified *)
  counters : Counters.t;  (** system-wide, measurement window *)
  per_core : Counters.t array;
  checks : int;
  violations : int;
  fetch_unmapped : int;
  stale_skips : int;
  stale_messages : int;
  aba_discards : int;  (** stale messages the epoch guard recovered *)
  recorded : Invariant.violation list;
  first_violation_op : int option;
  epoch_guard : bool;
  bus : bus_stats;
  opens : int;
  closes : int;
  rebinds : int;
  grace_unmaps : int;
  forced_unmaps : int;
  retiring : int;  (** grace periods left after quiesce — always 0 *)
  faults_injected : int;
}

val run :
  ?ucfg:Config.t ->
  ?skip_cfg:Skip.config ->
  ?plan:Plan.t ->
  params ->
  Churn.scenario ->
  report
(** Soak the scenario under [params], optionally applying a fault plan.
    Each call runs on {!Dlink_core.Churn.call_fuel}, so a mis-directed
    call becomes a classified crash instead of a hang.  Deterministic:
    same arguments, same report.  Ends with {!Dlink_core.Churn.quiesce},
    so no in-flight state leaks out of the run. *)

val check : ?plan:Plan.t -> report -> string list
(** Safety properties of a finished soak, as failure messages (empty =
    pass): no violations/crashes/timeouts/drops unless the plan seeds
    them, bus conservation ([published = acked + timeouts + stale]),
    nothing unresolved after quiesce, and no stale message applied while
    the epoch guard is on. *)

val failed : plan:Plan.t -> report -> bool
(** The shrink predicate: the run produced a violation or failed
    {!check}. *)

val shrink :
  ?ucfg:Config.t ->
  ?skip_cfg:Skip.config ->
  params ->
  plan:Plan.t ->
  Churn.scenario ->
  Plan.t * report
(** ddmin the plan's events to a minimal sub-plan that still {!failed}s,
    re-running the soak per candidate; returns the input plan's run
    unchanged if it doesn't fail.  [Plan.to_string] of the result is the
    replayable reproducer. *)

val crosscheck :
  ?ucfg:Config.t ->
  ?skip_cfg:Skip.config ->
  params ->
  Churn.scenario ->
  (unit, string) result
(** Run a [cores = 1], fault-free soak and the equivalent
    {!Churn.run_cell} on the same machine; [Ok] iff their
    measurement-window counters are bit-identical — the soak's taps and
    injector leave the machine alone. *)
