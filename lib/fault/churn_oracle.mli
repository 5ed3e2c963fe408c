(** Differential correctness oracle for runtime module churn.

    Extends {!Oracle}'s reference-vs-DUT scheme to a workload that
    dlopens and dlcloses plugins while it runs.  The device under test is
    the churn machine ({!Dlink_core.Churn.make_machine}): one thread
    migrating round-robin over [cores] Enhanced kernels, wired to an
    acked coherence bus when [cores > 1].  The reference is a pure
    architectural interpreter over the same image; the machine's one
    {!Dlink_linker.Dynload} serves both (stores applied to both memories,
    retired through the dispatched kernel only).  The plan's churn
    actions — [Stale_unload], [Unload_inflight] — are realised around the
    dlcloses, where they can leave an ABTB holding entries for
    trampolines whose module is gone and whose address range may already
    belong to a different plugin.

    The classification taxonomy (mis-skip / lost skip / unclassified) and
    the record projection are shared with {!Oracle}; each divergence is
    classified against the {e dispatched} core's skip unit and counters. *)

open Dlink_uarch
module Skip = Dlink_pipeline.Skip
module Churn = Dlink_core.Churn

type core_class = {
  c_mis_skips : int;
  c_lost_skips : int;
  c_stale_unload : int;
      (** divergences inside the hazard window after a
          [Stale_unload]/[Unload_inflight] close, charged to the core
          that retired them *)
  c_timeout_degrades : int;
      (** degradation windows forced on this core by coherence timeouts *)
}

type report = {
  ops : int;
  churn_events : int;
  migrations : int;
  mis_skips : int;
  lost_skips : int;
  stale_unload : int;  (** sum of the per-core [c_stale_unload] *)
  unclassified : int;
      (** divergences the taxonomy cannot attribute, plus ops on which
          either machine crashed *)
  skips : int;  (** DUT trampoline skips *)
  resolver_runs : int;  (** DUT resolver executions *)
  faults_injected : int;
  stable_hits : int;  (** snapshot entries installed on reopen *)
  stable_misses : int;
  bus_timeouts : int;  (** always 0 on one core, which has no bus *)
  per_core : core_class array;
  counters : Counters.t;  (** system-wide sum over all cores (fresh) *)
  divergences : Oracle.divergence list;
}

val run :
  ?ucfg:Config.t ->
  ?skip_cfg:Skip.config ->
  ?plan:Plan.t ->
  ?cores:int ->
  ?quantum:int ->
  ?policy:Dlink_pipeline.Policy.t ->
  link_mode:Dlink_linker.Mode.t ->
  rate:int ->
  ops:int ->
  seed:int ->
  Churn.scenario ->
  report
(** [rate] is churn events per 1000 ops, [ops] the number of plugin
    calls; [cores] (default 1), [quantum] and [policy] are as in
    {!Dlink_core.Churn.make_machine}.  A divergence within 50 ops of a
    hazard-realised close is additionally charged to its core's
    stale-unload bucket.  Each call runs on bounded fuel, so a call that
    never returns on either machine is counted as one unclassified op.
    With an empty plan the run must be divergence-free in every link mode
    and on every core — that invariant is what makes the stable-linking
    resolver comparison trustworthy.  Fully deterministic for equal
    arguments. *)
