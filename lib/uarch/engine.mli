(** Event-driven microarchitecture accounting.

    Consumes the retire stream and charges each instruction its fetch,
    data, and branch costs against the modeled structures.  This mirrors
    the paper's methodology, which observes performance-counter deltas on
    real hardware rather than simulating a cycle-accurate pipeline: the
    first-order quantities (misses, mispredictions, retired instructions)
    and a penalty-weighted cycle count are what the evaluation reports.

    Branch accounting rules:
    - conditional branches consult the gshare predictor (full mispredict
      penalty when wrong) and the BTB for the taken target (fill bubble);
    - direct calls/jumps suffer only a BTB fill bubble on a miss (decode
      recomputes the target) — unless the call was redirected by the
      trampoline-skip mechanism, in which case a stale BTB is a genuine
      mispredict because decode's target is also wrong;
    - indirect branches mispredict whenever the BTB target differs;
    - returns are predicted by the return address stack.

    Instruction fetch remembers the L1I and I-TLB slots of the previous
    fetch's line and page, and a fetch that stays there restamps them
    instead of scanning their sets.  Only fetch touches those two tables,
    and {!context_switch}, {!set_asid} and {!restore} forget the memo, so
    every table state and counter equals that of full lookups. *)

open Dlink_isa
open Dlink_mach

type t

val create : Config.t -> t
val config : t -> Config.t
val counters : t -> Counters.t
val retire : t -> Event.t -> unit
(** {!retire_packed} for a boxed event (tests and examples). *)

val retire_packed :
  t ->
  pc:Addr.t ->
  size:int ->
  in_plt:bool ->
  load:Addr.t ->
  load2:Addr.t ->
  store:Addr.t ->
  kind:int ->
  target:Addr.t ->
  aux:Addr.t ->
  taken:bool ->
  unit
(** Allocation-free {!retire} on packed operands.  Absent operands are
    {!Addr.none}; [kind] is an {!Event.Kind} code ({!Event.Kind.none} for a
    non-branch); [aux] is the architectural target of a direct call (equal
    to [target] when unredirected) or the GOT slot of an indirect branch.
    [retire t ev] is equivalent to packing [ev]'s fields and calling this. *)

val btb_update : t -> Addr.t -> Addr.t -> unit
(** External BTB training: the skip controller uses this to retarget a
    library call's BTB entry at pair-retire time (§3.2 "populating"). *)

val btb_predict : t -> Addr.t -> Addr.t option

val btb_predict_raw : t -> Addr.t -> Addr.t
(** Allocation-free {!btb_predict}: {!Addr.none} on a miss. *)

val asid : t -> int
val set_asid : t -> int -> unit
(** Address-space id tagging TLB fills and lookups (default 0).  Set by the
    multi-process scheduler when it dispatches a different process. *)

val context_switch :
  ?flush_predictors:bool -> ?flush_caches:bool -> ?retain_asid:bool -> t -> unit
(** The RAS always flushes.  TLBs flush unless [retain_asid] (tagged
    entries from other address spaces cannot hit, so retention is safe);
    predictors and caches flush optionally (physically-tagged caches
    survive a switch on real hardware). *)

type snap
(** Frozen copy of every modeled structure, the counters, and the ASID. *)

val snapshot : t -> snap

val restore : t -> snap -> unit
(** Overwrite [t] with the snapshot.  The target must share the
    snapshotted engine's {!Config.t} geometry; the counter record is
    updated in place (callers hold it by reference). *)

val fingerprint : t -> int
(** Deterministic digest of all table/predictor contents and the ASID
    (counters excluded — compare those directly). *)
