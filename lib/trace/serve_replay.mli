(** Replay mirror of {!Dlink_core.Serve}: open-loop serving cells whose
    service times come from packed-trace replay.  The same
    execute-once, fold-every-load driver ({!Serve.run_grid}) over a
    trace-cursor executor, so per-request latencies are bit-identical to
    the live driver for replay-compatible configurations. *)

module Sim = Dlink_core.Sim
module Serve = Dlink_core.Serve
module Workload = Dlink_core.Workload

val calibrate :
  ?ucfg:Dlink_uarch.Config.t ->
  ?skip_cfg:Dlink_pipeline.Skip.config ->
  ?requests:int ->
  ?warmup:int ->
  Workload.t ->
  int
(** Mean base-mode service cycles per request via counters-only replay;
    bit-identical to {!Serve.calibrate_generate}. *)

val run_cell :
  ?ucfg:Dlink_uarch.Config.t ->
  ?skip_cfg:Dlink_pipeline.Skip.config ->
  ?mean_service:int ->
  ?jobs:int ->
  cfg:Serve.config ->
  Workload.t ->
  Serve.cell
(** One cell over the cached trace of its mode; modes the replay
    invariants exclude run on {!Serve.live_executor} instead.  The
    calibration and measured passes run on up to [jobs] domains, and a
    [Base], [No_flush] cell without [mean_service] runs one pass. *)

val sweep :
  ?ucfg:Dlink_uarch.Config.t ->
  ?skip_cfg:Dlink_pipeline.Skip.config ->
  ?jobs:int ->
  ?cfg:Serve.config ->
  loads:float list ->
  modes:Sim.mode list ->
  flushes:Serve.flush list ->
  Workload.t ->
  Serve.cell list
(** Mode x flush x load grid (in that nesting order): one replay per
    distinct (mode, flush) pair, run on up to [jobs] domains, with every
    load folded over its service vector.  Traces are fetched before the
    pool starts, so results are deterministic and independent of [jobs].
    Raises [Invalid_argument] on an empty axis or a bad load. *)
