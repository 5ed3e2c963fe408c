open Dlink_isa
open Dlink_mach
open Dlink_uarch

(* The one retire pipeline.  Every execution path in the repo — generate
   mode (Sim/Experiment), packed-trace replay, the multi-process scheduler,
   its replay mirror, and the fault oracle's device under test — is a thin
   driver over this kernel.  The kernel owns the engine, the optional skip
   controller, and the instrumentation points (profile, GOT-store sink,
   boxed-event tap); drivers choose an event source (interpreter hooks or a
   packed-trace cursor) and a topology (one kernel, or one per core behind
   [Multi]).

   The packed retire path is allocation-free: every instrumentation point
   is a pre-installed field consulted with a pointer compare, never an
   optional argument built per call. *)

type t = {
  ucfg : Config.t;
  engine : Engine.t;
  counters : Counters.t;
  skip : Skip.t option;
  (* GOT reads resolve through whichever process the driver currently has
     running; late-bound because processes are built after the kernel. *)
  read_got : (Addr.t -> int) ref;
  mutable profile : Profile.t option;
  (* Consulted on every retired GOT store; the multi-core topology points
     this at the coherence bus under the shared-guard policy. *)
  mutable got_sink : (Addr.t -> unit) option;
  (* Boxed-event tap, interpreter sources only, built per event only while
     attached: the fault oracle's projected control-flow collector and the
     soak invariants hang here. *)
  mutable tap : (Event.t -> unit) option;
  (* Request-boundary tap: every driver (generate, replay, multi-process)
     announces the start of each request here with its request-type id.
     A tap, not a retire-path branch — the packed retire loop never
     consults it. *)
  mutable boundary_tap : (rtype:int -> unit) option;
}

let no_read_got (_ : Addr.t) = 0

let create ?(ucfg = Config.xeon_e5450) ?skip_cfg ~with_skip () =
  let engine = Engine.create ucfg in
  let counters = Engine.counters engine in
  let on_stale_prediction () =
    counters.Counters.branch_mispredictions <-
      counters.Counters.branch_mispredictions + 1;
    counters.Counters.cycles <-
      counters.Counters.cycles + ucfg.Config.penalties.mispredict
  in
  let read_got = ref no_read_got in
  let skip =
    if with_skip then
      Some
        (Skip.create ?config:skip_cfg ~counters
           ~btb_update:(Engine.btb_update engine)
           ~btb_predict:(Engine.btb_predict_raw engine)
           ~on_stale_prediction
           ~read_got:(fun slot -> !read_got slot)
           ())
    else None
  in
  { ucfg; engine; counters; skip; read_got; profile = None; got_sink = None;
    tap = None; boundary_tap = None }

let ucfg t = t.ucfg
let engine t = t.engine
let counters t = t.counters
let skip t = t.skip
let profile t = t.profile
let set_read_got t f = t.read_got := f
let set_profile t p = t.profile <- p
let set_got_sink t f = t.got_sink <- f
let set_tap t f = t.tap <- f
let set_boundary_tap t f = t.boundary_tap <- f

let note_boundary t ~rtype =
  match t.boundary_tap with Some f -> f ~rtype | None -> ()

let context_switch ?(retain_asid = false) t =
  Engine.context_switch ~retain_asid t.engine;
  if not retain_asid then Option.iter Skip.flush t.skip

let set_asid t asid =
  Engine.set_asid t.engine asid;
  Option.iter (fun s -> Skip.set_asid s asid) t.skip

(* ------------------------------------------------------------------ *)
(* The retire pipeline: opportunity counters, engine accounting, skip
   controller, cross-core publication, profiling — in that order, on every
   path.  [plt_call] and [got_store] are precomputed by the event source
   (the interpreter hooks classify against the loader; the packed trace
   carries them as info-word bits). *)

let retire_packed t ~pc ~size ~in_plt ~plt_call ~got_store ~load ~load2 ~store
    ~kind ~target ~aux ~taken =
  if plt_call && kind = Event.Kind.call_direct then
    t.counters.Counters.tramp_calls <- t.counters.Counters.tramp_calls + 1;
  if kind = Event.Kind.jump_resolver then
    t.counters.Counters.resolver_runs <- t.counters.Counters.resolver_runs + 1;
  if got_store then
    t.counters.Counters.got_stores <- t.counters.Counters.got_stores + 1;
  Engine.retire_packed t.engine ~pc ~size ~in_plt ~load ~load2 ~store ~kind
    ~target ~aux ~taken;
  (match t.skip with
  | Some s -> Skip.on_retire_packed s ~pc ~size ~store ~kind ~target ~aux
  | None -> ());
  (match t.got_sink with Some f when got_store -> f store | _ -> ());
  match t.profile with
  | Some p when plt_call ->
      Profile.note p ~site:pc
        (if kind = Event.Kind.call_direct then aux else target)
  | _ -> ()

(* Trampoline-call classification shared by the interpreter hooks and the
   trace recorder: a direct call is profile-eligible when its architectural
   target ([aux]) is a PLT entry (a skipped call still "calls" its
   trampoline as far as opportunity accounting is concerned); an indirect
   call when its actual target is. *)
let is_plt_call ~is_plt_entry ~kind ~target ~aux =
  if kind = Event.Kind.call_direct then is_plt_entry aux
  else kind = Event.Kind.call_indirect && is_plt_entry target

let is_got_store ~in_got store = store <> Addr.none && in_got store

let fetch_call t ~pc ~arch_target =
  match t.skip with
  | Some s -> Skip.on_fetch_call s ~pc ~arch_target
  | None -> arch_target

(* Interpreter event source: the process retires packed operands straight
   into [retire_packed]; an event is built only for an attached tap. *)
let process_hooks t ~is_plt_entry ~in_got =
  let on_retire ~pc ~size ~in_plt ~load ~load2 ~store ~kind ~target ~aux
      ~taken =
    retire_packed t ~pc ~size ~in_plt
      ~plt_call:(is_plt_call ~is_plt_entry ~kind ~target ~aux)
      ~got_store:(is_got_store ~in_got store)
      ~load ~load2 ~store ~kind ~target ~aux ~taken;
    match t.tap with
    | Some f ->
        f
          (Event.of_packed ~pc ~size ~in_plt ~load ~load2 ~store ~kind ~target
             ~aux ~taken)
    | None -> ()
  in
  let on_fetch_call ~pc ~arch_target = fetch_call t ~pc ~arch_target in
  { Process.on_fetch_call; on_retire }

(* ------------------------------------------------------------------ *)
(* Packed-trace event source.  [target]/[aux] are passed explicitly
   because an enhanced redirect retires the call with the function address
   while the cursor still holds the recorded (architectural) operands. *)

let retire_cursor t (c : Trace.Cursor.t) ~target ~aux =
  retire_packed t ~pc:c.Trace.Cursor.pc ~size:c.Trace.Cursor.size
    ~in_plt:c.Trace.Cursor.in_plt ~plt_call:c.Trace.Cursor.plt_call
    ~got_store:c.Trace.Cursor.got_store ~load:c.Trace.Cursor.load
    ~load2:c.Trace.Cursor.load2 ~store:c.Trace.Cursor.store
    ~kind:c.Trace.Cursor.kind ~target ~aux ~taken:c.Trace.Cursor.taken

(* Replay events until [stop] (an event index, normally the next request
   boundary), drained in fixed-size blocks with the skip-controller
   dispatch hoisted out of the per-event path: the [t.skip] option is
   matched once per [replay_events] call, and each block runs a
   monomorphic inner loop whose bounds stay in registers.  Both loops are
   top-level functions taking only immediates, preserving the
   zero-allocation guarantee. *)
let block_events = 256

(* Skipless retire: a straight drain with no per-event dispatch at all. *)
let replay_block_plain t (c : Trace.Cursor.t) ~stop =
  while c.Trace.Cursor.i < stop do
    Trace.Cursor.advance c;
    retire_cursor t c ~target:c.Trace.Cursor.target ~aux:c.Trace.Cursor.aux
  done

(* Enhanced retire: the skip controller is consulted on every direct
   call, exactly as the interpreter's fetch hook does; a redirect retires
   the call at the function address and drops the trampoline's in_plt
   continuation without retiring it.  The drop loop runs against the true
   [stop], not the block boundary — a skipped trampoline body may
   straddle two blocks. *)
let replay_block_skip t s (c : Trace.Cursor.t) ~block_stop ~stop =
  while c.Trace.Cursor.i < block_stop do
    Trace.Cursor.advance c;
    if c.Trace.Cursor.kind = Event.Kind.call_direct then begin
      let arch = c.Trace.Cursor.aux in
      let actual =
        Skip.on_fetch_call s ~pc:c.Trace.Cursor.pc ~arch_target:arch
      in
      if actual <> arch then begin
        retire_cursor t c ~target:actual ~aux:arch;
        while c.Trace.Cursor.i < stop && Trace.Cursor.peek_in_plt c do
          Trace.Cursor.advance c
        done
      end
      else
        retire_cursor t c ~target:c.Trace.Cursor.target ~aux:c.Trace.Cursor.aux
    end
    else retire_cursor t c ~target:c.Trace.Cursor.target ~aux:c.Trace.Cursor.aux
  done

let replay_events t (c : Trace.Cursor.t) ~stop =
  match t.skip with
  | None ->
      while c.Trace.Cursor.i < stop do
        let b = c.Trace.Cursor.i + block_events in
        replay_block_plain t c ~stop:(if b < stop then b else stop)
      done
  | Some s ->
      while c.Trace.Cursor.i < stop do
        let b = c.Trace.Cursor.i + block_events in
        replay_block_skip t s c
          ~block_stop:(if b < stop then b else stop)
          ~stop
      done

let replay_request t (c : Trace.Cursor.t) r =
  Trace.Cursor.seek_request c r;
  replay_events t c ~stop:c.Trace.Cursor.trace.Trace.req_start.(r + 1)

(* ------------------------------------------------------------------ *)
(* Snapshot/restore, used by [Sim.snapshot] (the benchmark's
   [core.snapshot_us] probe and a resume test).  A snapshot freezes
   everything the retire pipeline reads or writes: the engine (tables,
   predictors, counters, ASID) and the skip controller (ABTB, filter,
   shadows, idiom window, quarantine).  The driver-owned attachments —
   [read_got], [profile], [got_sink], [tap], [boundary_tap] — are
   deliberately NOT captured: they are wiring, not state, and each
   restore target keeps its own.  Counters are restored in place (the
   kernel and engine share one record, and drivers hold it by reference
   via [counters t]).

   Cost: dominated by the cache tables' bigarray blits — a few MiB, flat
   memcpy, no per-entry work. *)

type snap = { k_engine : Engine.snap; k_skip : Skip.snap option }

let snapshot t =
  { k_engine = Engine.snapshot t.engine; k_skip = Option.map Skip.snapshot t.skip }

let restore t s =
  Engine.restore t.engine s.k_engine;
  match (t.skip, s.k_skip) with
  | Some sk, Some ss -> Skip.restore sk ss
  | None, None -> ()
  | _ -> invalid_arg "Kernel.restore: skip-controller presence mismatch"

let fingerprint t =
  Hashtbl.hash
    ( Engine.fingerprint t.engine,
      match t.skip with Some s -> Skip.fingerprint s | None -> 0 )
