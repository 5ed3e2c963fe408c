(** The fault-injection layer: applies a {!Plan.t} against one skip unit
    (and optionally a coherence bus) as a workload advances.

    All randomness inside the injector (which Bloom bit to flip, which
    live ABTB entry's slot to rebind) flows from the plan's seed, so a
    plan replays bit-identically.  Every applied action bumps the
    [fault_injected] counter. *)

open Dlink_uarch
module Skip = Dlink_pipeline.Skip
module Coherence = Dlink_mach.Coherence

type t

val create :
  ?bus:Coherence.t ->
  ?rewrite:(Dlink_util.Rng.t -> bool) ->
  skip:Skip.t ->
  counters:Counters.t ->
  plan:Plan.t ->
  unit ->
  t
(** Arms the skip unit's clear-veto hook and (when [bus] is given) the
    bus's fault hook.  [rewrite] performs a [Got_rewrite] action — it gets
    the injector's RNG and reports whether a slot was actually rebound;
    the driver supplies it because only the driver holds the memories.
    Without it, [Got_rewrite] events are no-ops. *)

val on_request : t -> int -> unit
(** Apply every plan action scheduled at this request index.  Call once
    per request, before executing it. *)

val attach_skip : t -> Skip.t -> unit
(** Install this injector's clear-veto on a further skip unit (multi-core
    topologies: every core shares one suppress-credit pool).  Idempotent
    per unit; {!detach} removes the veto from all attached units. *)

val set_current : t -> (unit -> Skip.t) option -> unit
(** Select which unit skip-targeted actions ([Bloom_flip],
    [Spurious_clear], [Asid_reuse]) strike.  Multi-core drivers point
    this at the currently dispatched core; [None] restores the default
    (the [skip] given at {!create}). *)

val detach : t -> unit
(** Remove the veto and bus hooks, restoring fault-free behaviour. *)

(** {2 Churn-machine hooks} *)

val on_machine : plan:Plan.t -> Dlink_core.Churn.machine -> t
(** The injector of a churn driver: armed on every core's skip unit and
    (with more than one core) the machine's bus, striking the dispatched
    core, with {!Dlink_core.Churn.rewrite_got} as its [Got_rewrite]. *)

val close : t -> Dlink_linker.Dynload.t -> Dlink_linker.Dynload.handle -> bool
(** A churn close that realises a pending hazard: a [Stale_unload] close
    applies its invalidation stores with every resulting ABTB clear
    vetoed; an [Unload_inflight] close defers them past the unmap, to
    the next {!Dlink_linker.Dynload.flush_pending}.  Returns whether a
    hazard was realised. *)
