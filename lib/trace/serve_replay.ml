module Sim = Dlink_core.Sim
module Serve = Dlink_core.Serve
module Workload = Dlink_core.Workload
module Counters = Dlink_uarch.Counters
module Kernel = Dlink_pipeline.Kernel

(* Replay mirror of Dlink_core.Serve: the same execute-once, fold-every-
   load driver with service times from packed-trace replay instead of
   live interpretation.  Service times come from [Kernel.replay_request]
   against the cached trace, and because the fold is shared and the
   kernel is bit-identical across event sources, per-request latencies
   match the live driver bit for bit (asserted by the pipeline
   equivalence matrix). *)

let calibrate ?ucfg ?skip_cfg ?requests ?warmup (w : Workload.t) =
  let n = Option.value requests ~default:w.Workload.default_requests in
  let tr = Cache.get ?warmup ~requests:n ~mode:Sim.Base w in
  let c = Replay.replay_counters ?ucfg ?skip_cfg ~mode:Sim.Base ~requests:n tr in
  max 1 (c.Counters.cycles / max 1 n)

(* The trace-cursor executor: a replay machine that has replayed the
   trace's warmup requests. *)
let cursor_executor ?ucfg ?skip_cfg ~mode tr =
  let m = Replay.make_machine ?ucfg ?skip_cfg ~mode () in
  let c = Trace.Cursor.create tr in
  let request r =
    Kernel.note_boundary m ~rtype:(Trace.request_rtype tr r);
    Kernel.replay_request m c r
  in
  let warmup = Trace.warmup tr in
  for r = 0 to warmup - 1 do
    request r
  done;
  let counters = Kernel.counters m in
  let start = Counters.copy counters in
  {
    Serve.ex_counters = counters;
    ex_request = (fun i -> request (warmup + i));
    ex_switch = (fun ~retain_asid -> Kernel.context_switch ~retain_asid m);
    ex_measured = (fun () -> Counters.diff ~after:counters ~before:start);
  }

(* Each pass replays the cached trace of its mode, fetched on the calling
   domain before the pool starts, so workers only read immutable traces.
   Modes the replay invariants exclude fall back to live interpretation,
   like [Replay.run]. *)
let grid ?ucfg ?skip_cfg ?jobs ?mean_service ~cfg ~loads ~modes ~flushes
    (w : Workload.t) =
  let executor mode =
    if Replay.compatible ?skip_cfg ~mode () then
      let tr = Cache.get ~requests:cfg.Serve.requests ~mode w in
      fun () -> cursor_executor ?ucfg ?skip_cfg ~mode tr
    else fun () -> Serve.live_executor ?ucfg ?skip_cfg ~mode w
  in
  Serve.run_grid ?jobs ?mean_service ~executor ~cfg ~loads ~modes ~flushes w

let run_cell ?ucfg ?skip_cfg ?mean_service ?jobs ~cfg (w : Workload.t) =
  List.hd
    (grid ?ucfg ?skip_cfg ?jobs ?mean_service ~cfg ~loads:[ cfg.Serve.load ]
       ~modes:[ cfg.Serve.mode ] ~flushes:[ cfg.Serve.flush ] w)

let sweep ?ucfg ?skip_cfg ?jobs ?(cfg = Serve.default_config) ~loads ~modes
    ~flushes (w : Workload.t) =
  if loads = [] then invalid_arg "Serve_replay.sweep: no loads";
  if modes = [] then invalid_arg "Serve_replay.sweep: no modes";
  if flushes = [] then invalid_arg "Serve_replay.sweep: no flushes";
  grid ?ucfg ?skip_cfg ?jobs ~cfg ~loads ~modes ~flushes w
