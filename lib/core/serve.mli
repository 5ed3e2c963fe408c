(** Open-loop serving cells: offered load x link mode x flush policy,
    reporting goodput and tail latency per cell.

    A cell plays a deterministic open-loop client (Poisson or MMPP
    arrivals from {!Dlink_util.Arrival}) against a single-server bounded
    admission queue whose service times come from executing each request
    on the pipeline kernel.  Latency = queue wait + service, in simulated
    cycles; no host clock anywhere, so cells are bit-reproducible from
    their seeds.

    Every driver executes once, then folds: one measured pass per
    distinct (mode, flush) pair buffers its per-request service vector,
    and each cell pushes that vector through the one queue engine at its
    own load ({!run_grid}).  The live executor lives here; the
    packed-trace one is in {!Dlink_trace.Serve_replay}, and both feed the
    same fold, so their per-request latencies are bit-identical. *)

open Dlink_uarch

(** What happens to the server's microarchitectural state every
    [flush_every] requests of the stream (served or dropped) — nothing,
    a full flush, or an ASID-retaining switch. *)
type flush = No_flush | Flush | Asid

val flush_names : string list
val flush_to_string : flush -> string
val flush_of_string : string -> flush option

type config = {
  mode : Sim.mode;
  load : float;  (** offered load as a fraction of base-mode capacity *)
  arrival : Dlink_util.Arrival.process;
  queue_cap : int;
  requests : int;
  flush : flush;
  flush_every : int;
  seed : int;
}

val default_config : config

val check_config : config -> unit
(** Raises [Invalid_argument] on a non-positive/non-finite load or
    non-positive queue_cap/flush_every. *)

(** {2 Queue engine}

    A single-server bounded FIFO fed one service time at a time, in
    request-index order, that folds each served request into a
    caller-provided sink instead of per-request arrays — O(1) queue
    memory at any cell size.  An arrival finding the queue full is
    dropped; an empty queue idles to the next arrival.  The engine is
    also the driver for {!Dlink_util.Arrival.Closed} cells, whose
    arrivals are coupled to completions: a fixed client population
    thinks (exponential, mean set by the interactive response-time law
    [S * (clients/load - 1)]) between a completion and its next request,
    so at most [clients] requests are outstanding and nothing is ever
    dropped. *)

type stream_sink = req:int -> lat:int -> wait:int -> unit
(** Called once per served request, in serve order, with cycles. *)

type stream_queue

val stream_queue :
  cfg:config -> mean_service:int -> sink:stream_sink -> stream_queue
(** Fresh engine for one cell; arrivals are generated internally
    (incrementally for open-loop processes, from completions for closed
    loop).  Raises [Invalid_argument] on a bad config or non-positive
    [mean_service]. *)

val stream_queue_at :
  arrivals:int array -> queue_cap:int -> sink:stream_sink -> stream_queue
(** The same engine over explicit absolute arrival times, one per
    request.  Raises [Invalid_argument] on a non-positive [queue_cap] or
    unsorted or negative [arrivals]. *)

val stream_push : stream_queue -> req:int -> service:int -> unit
(** [stream_push t ~req ~service] resolves request [req]'s fate — serve
    (sink called) or drop.  Must be called exactly once for each
    [req = 0 .. requests-1], in increasing order.  Raises
    [Invalid_argument] on a negative service time. *)

val stream_served : stream_queue -> int
val stream_dropped : stream_queue -> int
val stream_busy_cycles : stream_queue -> int

val stream_span_cycles : stream_queue -> int
(** Completion time of the last served request so far. *)

val run_queue :
  cfg:config -> mean_service:int -> services:int array -> stream_queue
(** The engine over a whole service vector: a fresh {!stream_queue}
    with no sink, every [services.(req)] pushed in index order.  Raises
    [Invalid_argument] if the vector's length is not [cfg.requests]. *)

(** {2 Cells} *)

type rtype_stats = {
  rt_name : string;
  rt_served : int;
  rt_mean_us : float;
  rt_p99_us : float;
}

type cell = {
  cfg : config;
  workload_name : string;
  mean_service_cycles : int;  (** base-mode calibration behind [load] *)
  served : int;
  dropped : int;
  lat_cycles : int array;
      (** per served request, serve order; [[||]] above {!lat_keep_cap} *)
  recorder : Dlink_stats.Latency.t;
  offered_rps : float;
  goodput_rps : float;
  util : float;
  span_us : float;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  mean_wait_us : float;
  by_rtype : rtype_stats array;
  lat_fingerprint : int;
      (** Order-sensitive digest of (request index, latency, wait) folded
          in serve order — two drivers produce the same fingerprint iff
          every per-request outcome matches, even when [lat_cycles] is
          not materialized. *)
  counters : Counters.t;
}

val lat_keep_cap : int
(** Largest request count for which cells still materialize
    [lat_cycles]; above it the raw vector is [[||]] and reporting flows
    through the recorder and {!cell.lat_fingerprint}. *)

type stream_accum
(** Constant-memory per-request accounting for one cell: log-bucket
    recorder, per-rtype buckets, wait sum, order-sensitive fingerprint,
    and (for cells within {!lat_keep_cap}) the raw latency vector. *)

val stream_accum : Workload.t -> requests:int -> stream_accum

val accum_sink : stream_accum -> stream_sink
(** The sink that folds served requests into the accumulator; pass to
    {!stream_queue}. *)

val calibrate_generate :
  ?ucfg:Config.t ->
  ?skip_cfg:Dlink_pipeline.Skip.config ->
  ?requests:int ->
  ?warmup:int ->
  Workload.t ->
  int
(** Mean base-mode service cycles per request (closed loop) — the
    capacity every [load] value is expressed against, measured in [Base]
    for every mode so all modes see the same arrival sequence. *)

(** {2 Execute once, fold every load} *)

type executor = {
  ex_counters : Counters.t;
      (** the machine's live counters; service = cycles across a request *)
  ex_request : int -> unit;  (** run measured request [i] *)
  ex_switch : retain_asid:bool -> unit;  (** the flush policy's switch *)
  ex_measured : unit -> Counters.t;
      (** counter deltas since the measurement window opened *)
}
(** One machine running one pass's closed-loop request stream, warmup
    already run and measurement window open. *)

val live_executor :
  ?ucfg:Config.t ->
  ?skip_cfg:Dlink_pipeline.Skip.config ->
  mode:Sim.mode ->
  Workload.t ->
  executor
(** Live interpretation on a fresh {!Sim}, after the workload's warmup
    requests. *)

val run_grid :
  ?jobs:int ->
  ?mean_service:int ->
  executor:(Sim.mode -> unit -> executor) ->
  cfg:config ->
  loads:float list ->
  modes:Sim.mode list ->
  flushes:flush list ->
  Workload.t ->
  cell list
(** The mode x flush x load grid over [cfg] (in that nesting order).
    Runs one measured pass per distinct (mode, flush) pair, plus the
    (Base, No_flush) calibration pass unless [mean_service] is given,
    on up to [jobs] domains; the calibration is that pass's mean service
    time, equal to {!calibrate_generate}.  Then every cell pushes its
    pass's buffered service vector through the queue engine at its own
    load — exact, since service times do not depend on load and the
    flush cadence counts request indices.  [executor mode] is called on
    the calling domain, once per pass in a fixed order, before the pool
    starts; the thunk it returns builds and warms the machine inside the
    pool.  Results do not depend on [jobs].  Raises [Invalid_argument]
    on a bad config or non-positive [mean_service]. *)

val run_cell_stream :
  ?ucfg:Config.t ->
  ?skip_cfg:Dlink_pipeline.Skip.config ->
  ?mean_service:int ->
  ?jobs:int ->
  cfg:config ->
  Workload.t ->
  cell
(** One cell over {!live_executor}: a one-point {!run_grid}.  The
    calibration and measured passes run on up to [jobs] domains; a
    [Base], [No_flush] cell without [mean_service] is its own
    calibration and runs one pass.  Memory is the 8 B-per-request service
    vector plus the queue and accounting, which keep per-request latencies
    only up to {!lat_keep_cap}.  Raises [Invalid_argument] on a bad
    config. *)

val run_cell_generate :
  ?ucfg:Config.t ->
  ?skip_cfg:Dlink_pipeline.Skip.config ->
  ?mean_service:int ->
  cfg:config ->
  Workload.t ->
  cell
(** {!run_cell_stream} on the calling domain. *)

val cell_json : ?hist:bool -> cell -> Dlink_util.Json.t
(** Cell report; with [hist], includes the log-bucket latency histogram
    as [(lo_us, hi_us, count)] triples. *)

val cell_label : cell -> string
(** Stable "<mode>_<arrival>_<flush>_load<l>" key for sweeps and bench
    leaves. *)
