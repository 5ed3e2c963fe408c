(** The one retire pipeline.

    Every execution path in the repo drives this kernel: generate mode
    ({!Dlink_core.Sim} / {!Dlink_core.Experiment}), packed-trace replay
    ({!Dlink_trace.Replay}), the multi-process scheduler
    ({!Dlink_sched.Scheduler}) and its replay mirror
    ({!Dlink_trace.Sched_replay}), and the fault oracle's device under test
    ({!Dlink_fault.Oracle}).  The kernel is parameterized over two axes:

    - {b event source} — an interpreter ({!process_hooks} feeding a
      [Process.t]) or a packed-trace cursor ({!replay_request}).  Both
      funnel into the same monomorphic, allocation-free
      {!retire_packed}.
    - {b topology} — one kernel for a single process, or one per core
      behind {!Multi} for the ASID-tagged scheduler with a coherence bus.

    Instrumentation (profile, GOT-store sink, boxed-event tap, the fault
    hooks on the embedded {!Skip.t}) attaches to kernel-level points, so
    fuzzing, replay, and multi-process runs exercise literally the same
    code. *)

open Dlink_isa
open Dlink_mach
open Dlink_uarch

type t

(** [create ?ucfg ?skip_cfg ~with_skip ()] builds an engine, its counters,
    and — when [with_skip] — a skip controller wired to the engine's BTB
    and mispredict accounting.  GOT reads made by the skip controller
    resolve through {!set_read_got} (default: every slot reads 0, the
    replay convention). *)
val create : ?ucfg:Config.t -> ?skip_cfg:Skip.config -> with_skip:bool -> unit -> t

val ucfg : t -> Config.t
val engine : t -> Engine.t
val counters : t -> Counters.t
val skip : t -> Skip.t option
val profile : t -> Profile.t option

(** Late-bind GOT reads to the currently-running process's memory. *)
val set_read_got : t -> (Addr.t -> int) -> unit

(** Attach/detach the trampoline-call profile consulted at retire. *)
val set_profile : t -> Profile.t option -> unit

(** Attach the sink consulted on every retired GOT store — the multi-core
    topology points this at the coherence bus under the shared-guard
    policy. *)
val set_got_sink : t -> (Addr.t -> unit) option -> unit

(** Attach a boxed-event tap (generate sources only); the fault oracle's
    projected control-flow collector hangs here. *)
val set_tap : t -> (Event.t -> unit) option -> unit

(** Attach a request-boundary tap.  Every driver — generate, packed-trace
    replay, and the multi-process topology — announces the start of each
    request through {!note_boundary} with the workload's request-type id,
    so request-level instrumentation (the serving stack's latency
    attribution, invariant checkers) sees the same boundaries on every
    execution path.  A tap, not a retire-path branch: the packed retire
    loop never consults it. *)
val set_boundary_tap : t -> (rtype:int -> unit) option -> unit

(** Announce a request boundary to the attached tap (no-op without one). *)
val note_boundary : t -> rtype:int -> unit

(** Flush microarchitectural state on a context switch; unless
    [retain_asid], the skip controller's tables flush too. *)
val context_switch : ?retain_asid:bool -> t -> unit

(** Switch the engine's and skip controller's address-space tag. *)
val set_asid : t -> int -> unit

(** The retire pipeline: opportunity counters, engine accounting, skip
    controller, GOT-store sink, profile — in that order, on every path.
    [plt_call]/[got_store] are precomputed by the event source.
    Allocation-free. *)
val retire_packed :
  t ->
  pc:Addr.t ->
  size:int ->
  in_plt:bool ->
  plt_call:bool ->
  got_store:bool ->
  load:Addr.t ->
  load2:Addr.t ->
  store:Addr.t ->
  kind:int ->
  target:Addr.t ->
  aux:Addr.t ->
  taken:bool ->
  unit

(** Classify a boxed event the way the recorder and interpreter hooks do:
    a direct call is profile-eligible when its {e architectural} target is
    a PLT entry, an indirect call when its actual target is. *)
val plt_call_of : is_plt_entry:(Addr.t -> bool) -> Event.t -> bool

val got_store_of : in_got:(Addr.t -> bool) -> Event.t -> bool

(** Boxed-event retire: unpacks onto {!retire_packed}, then feeds the
    tap. *)
val retire_event : t -> plt_call:bool -> got_store:bool -> Event.t -> unit

(** Front-end consultation on a fetched direct call: the skip controller's
    redirect decision, or the architectural target when no controller is
    attached. *)
val fetch_call : t -> pc:Addr.t -> arch_target:Addr.t -> Addr.t

(** Interpreter event source: hooks feeding a [Process.t]'s fetch and
    retire streams through this kernel, classifying against the given
    loader predicates. *)
val process_hooks :
  t ->
  is_plt_entry:(Addr.t -> bool) ->
  in_got:(Addr.t -> bool) ->
  Process.hooks

(** Packed-trace event source: retire the cursor's current event with an
    explicit [target]/[aux] (an enhanced redirect retires the call at the
    function address while the cursor holds the recorded operands). *)
val retire_cursor : t -> Trace.Cursor.t -> target:Addr.t -> aux:Addr.t -> unit

(** Replay events until [stop] (an event index, normally the next request
    boundary), consulting the skip controller on every direct call and
    dropping a skipped trampoline's in_plt continuation. *)
val replay_events : t -> Trace.Cursor.t -> stop:int -> unit

(** Seek to request [r] and replay it to its boundary. *)
val replay_request : t -> Trace.Cursor.t -> int -> unit

type snap
(** Frozen copy of everything the retire pipeline reads or writes: engine
    tables/predictors/counters/ASID plus the skip controller's full state.
    Driver attachments (profile, taps, sinks, GOT reader) are wiring, not
    state, and are not captured.  Dominated by flat bigarray blits — cheap
    enough to take every K requests. *)

val snapshot : t -> snap

val restore : t -> snap -> unit
(** Overwrite [t] with the snapshot.  The target must have been built with
    the same {!Dlink_mach.Config.t} geometry and the same [with_skip] as
    the snapshotted kernel ([Invalid_argument] otherwise).  Counters are
    restored in place, preserving the identity of the record returned by
    {!counters}.  A snapshot may be restored into many kernels without
    aliasing. *)

val fingerprint : t -> int
(** Deterministic digest of the kernel's microarchitectural state (tables,
    predictors, skip shadows; counters excluded — compare those
    directly). *)
