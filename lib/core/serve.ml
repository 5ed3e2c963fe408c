open Dlink_uarch
module Arrival = Dlink_util.Arrival
module Dpool = Dlink_util.Dpool
module Json = Dlink_util.Json
module Rng = Dlink_util.Rng
module Site_hash = Dlink_util.Site_hash
module Latency = Dlink_stats.Latency
module Kernel = Dlink_pipeline.Kernel

(* Open-loop serving cells: the driver that turns "skip mechanism saves X
   PKI" into "skip mechanism buys Y% more requests/sec at the same p99".

   A cell fixes a workload, a link mode, an offered load, an arrival
   process, and a flush policy, then plays an open-loop client against a
   single-server bounded admission queue whose service times come from
   actually executing each request on the pipeline kernel — so service
   depends on the link mode and on the microarchitectural state carried
   across requests, exactly like the closed-loop experiments.  Request
   latency = queue wait + service, in simulated cycles; the host clock
   never enters, so every cell is bit-reproducible from its seed.

   The cell is a trace-driven queueing simulation: the execution stream
   is always the full closed-loop request sequence (flush policy keyed by
   stream index), yielding a per-request service-time vector, and the
   bounded queue is pure arithmetic over that vector plus the arrival
   times.  Admission drops therefore affect queueing only, never machine
   state — which is what makes the live executor here (over {!Sim}) and
   the trace-cursor executor ({!Dlink_trace.Serve_replay}) bit-identical:
   the service vector reduces to the kernel equivalence the pipeline
   matrix already proves.  Service times do not depend on the load
   either, so every driver executes each (mode, flush) pair once,
   buffers its service vector, and folds every load over it ([run_grid]
   below). *)

(* ------------------------------------------------------------------ *)
(* Flush policy: what happens to the server's microarchitectural state
   every [flush_every] requests of the stream — nothing, a full flush
   (untagged hardware), or an ASID-retaining switch (tagged hardware).
   Models a co-scheduled tenant touching the core between bursts of our
   requests. *)

type flush = No_flush | Flush | Asid

let flush_names = [ "none"; "flush"; "asid" ]

let flush_to_string = function
  | No_flush -> "none"
  | Flush -> "flush"
  | Asid -> "asid"

let flush_of_string = function
  | "none" -> Some No_flush
  | "flush" -> Some Flush
  | "asid" -> Some Asid
  | _ -> None

type config = {
  mode : Sim.mode;
  load : float;  (** offered load as a fraction of base-mode capacity *)
  arrival : Arrival.process;
  queue_cap : int;
  requests : int;
  flush : flush;
  flush_every : int;
  seed : int;
}

let default_config =
  {
    mode = Sim.Base;
    load = 0.8;
    arrival = Arrival.Poisson;
    queue_cap = 64;
    requests = 400;
    flush = No_flush;
    flush_every = 32;
    seed = 42;
  }

let check_config cfg =
  if not (Float.is_finite cfg.load) || cfg.load <= 0.0 then
    invalid_arg "Serve: load must be a positive real";
  if cfg.queue_cap <= 0 then invalid_arg "Serve: queue_cap must be positive";
  if cfg.requests < 0 then invalid_arg "Serve: requests must be non-negative";
  if cfg.flush_every <= 0 then invalid_arg "Serve: flush_every must be positive"

(* ------------------------------------------------------------------ *)
(* The queue engine: a single-server bounded FIFO fed one service time at
   a time, in request-index order, that folds each served request into a
   caller-provided sink instead of per-request arrays — O(1) queue memory
   at any cell size.  Admission is lazy, as in [Multi.quantum_open]: all
   arrivals up to the current virtual time are admitted (or dropped at a
   full queue) immediately before each service starts, which reproduces
   exactly the occupancy a real-time interleaving would have seen because
   the queue only drains at those same instants.

   Why pushing index [k] can resolve [k]'s fate immediately: arrivals are
   sorted and the queue is FIFO, so among admitted requests serve order
   equals index order.  At [stream_push k], every index < k has been
   served or dropped, hence [k] is either at the head of the queue
   (serve), not yet arrived with an idle server (idle until its arrival
   and admit), or was dropped at a full queue by an earlier admission
   scan.  [test_serve] pins the engine against a naive array model of the
   same queue over random cells.

   The engine also hosts the closed-loop client population
   ([Arrival.Closed]): [clients] users each wait for their request's
   completion, think for an exponentially distributed time, and
   re-arrive.  Arrivals are coupled to completions and cannot be
   precomputed ([Arrival.times] raises) — the engine pops the earliest
   client ready time as request [k]'s arrival (a client's next ready
   time is >= its request's completion >= every pending ready time, so
   arrivals stay sorted and FIFO order is again index order), serves at
   [max now arrival], and pushes the client back at completion + think.
   The population bound makes admission self-throttling: at most
   [clients] requests are ever outstanding, so nothing is dropped and
   [queue_cap] never binds.  The think-time mean follows the interactive
   response-time law, Z = S * (clients / load - 1), so that a closed
   cell at [load] offers the same arrival rate (load / S) as an open
   cell at the same load while the server keeps up — past the knee the
   population throttles instead of queueing without bound. *)

type stream_sink = req:int -> lat:int -> wait:int -> unit

type stream_open = {
  so_arrival : unit -> int;  (* the next arrival time, in index order *)
  so_q : (int * int) Queue.t;  (* (index, arrival) admitted, FIFO *)
  mutable so_next : int;  (* next index not yet pulled from [so_arrival] *)
  mutable so_next_arr : int;  (* its arrival time; valid while so_next < n *)
}

(* Binary min-heap of client ready times (closed loop).  Clients are
   statistically indistinguishable — each draws its next think time at
   completion — so bare ready times suffice. *)
type stream_heap = { mutable h_n : int; h_ts : int array }

let heap_push h x =
  let ts = h.h_ts in
  let i = ref h.h_n in
  h.h_n <- h.h_n + 1;
  ts.(!i) <- x;
  while !i > 0 && ts.((!i - 1) / 2) > ts.(!i) do
    let p = (!i - 1) / 2 in
    let tmp = ts.(p) in
    ts.(p) <- ts.(!i);
    ts.(!i) <- tmp;
    i := p
  done

let heap_pop h =
  let ts = h.h_ts in
  let top = ts.(0) in
  h.h_n <- h.h_n - 1;
  ts.(0) <- ts.(h.h_n);
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let m = ref !i in
    if l < h.h_n && ts.(l) < ts.(!m) then m := l;
    if r < h.h_n && ts.(r) < ts.(!m) then m := r;
    if !m = !i then sifting := false
    else begin
      let tmp = ts.(!m) in
      ts.(!m) <- ts.(!i);
      ts.(!i) <- tmp;
      i := !m
    end
  done;
  top

type stream_closed = {
  sc_ready : stream_heap;
  sc_rng : Rng.t;
  sc_think_mean : float;
}

type stream_source = Src_open of stream_open | Src_closed of stream_closed

type stream_queue = {
  sq_cap : int;
  sq_n : int;
  sq_sink : stream_sink;
  sq_src : stream_source;
  mutable sq_now : int;
  mutable sq_busy : int;
  mutable sq_served : int;
  mutable sq_dropped : int;
}

let make_queue ~queue_cap ~requests ~sink src =
  {
    sq_cap = queue_cap;
    sq_n = requests;
    sq_sink = sink;
    sq_src = src;
    sq_now = 0;
    sq_busy = 0;
    sq_served = 0;
    sq_dropped = 0;
  }

let open_source ~requests next =
  let o =
    { so_arrival = next; so_q = Queue.create (); so_next = 0; so_next_arr = 0 }
  in
  if requests > 0 then o.so_next_arr <- next ();
  Src_open o

let stream_queue ~cfg ~mean_service ~sink =
  check_config cfg;
  if mean_service <= 0 then
    invalid_arg "Serve.stream_queue: mean_service must be positive";
  let src =
    match cfg.arrival with
    | Arrival.Closed { clients } ->
        if clients <= 0 then
          invalid_arg "Serve.stream_queue: clients must be positive";
        let think_mean =
          Float.max 0.0
            (float_of_int mean_service
            *. ((float_of_int clients /. cfg.load) -. 1.0))
        in
        let rng = Rng.create (Site_hash.mix2 cfg.seed 0xc1d) in
        let ready = { h_n = 0; h_ts = Array.make clients 0 } in
        (* Initial think draws stagger the population's first arrivals. *)
        for _ = 1 to clients do
          let t =
            if think_mean > 0.0 then Rng.exponential rng ~mean:think_mean
            else 0.0
          in
          heap_push ready (int_of_float t)
        done;
        Src_closed { sc_ready = ready; sc_rng = rng; sc_think_mean = think_mean }
    | p ->
        let gen =
          Arrival.gen ~seed:cfg.seed
            ~mean_gap:(float_of_int mean_service /. cfg.load)
            p
        in
        open_source ~requests:cfg.requests (fun () -> Arrival.next gen)
  in
  make_queue ~queue_cap:cfg.queue_cap ~requests:cfg.requests ~sink src

let stream_queue_at ~arrivals ~queue_cap ~sink =
  if queue_cap <= 0 then
    invalid_arg "Serve.stream_queue_at: queue_cap must be positive";
  Array.iteri
    (fun i a ->
      if a < 0 || (i > 0 && a < arrivals.(i - 1)) then
        invalid_arg "Serve.stream_queue_at: arrivals must be sorted, >= 0")
    arrivals;
  let requests = Array.length arrivals in
  let next = ref 0 in
  make_queue ~queue_cap ~requests ~sink
    (open_source ~requests (fun () ->
         let a = arrivals.(!next) in
         incr next;
         a))

let stream_push t ~req:k ~service:s =
  if s < 0 then invalid_arg "Serve.stream_push: negative service time";
  match t.sq_src with
  | Src_open o ->
      let admit () =
        while o.so_next < t.sq_n && o.so_next_arr <= t.sq_now do
          if Queue.length o.so_q < t.sq_cap then
            Queue.add (o.so_next, o.so_next_arr) o.so_q
          else t.sq_dropped <- t.sq_dropped + 1;
          o.so_next <- o.so_next + 1;
          if o.so_next < t.sq_n then o.so_next_arr <- o.so_arrival ()
        done
      in
      admit ();
      if Queue.is_empty o.so_q && o.so_next = k then begin
        (* Server idle and k not yet arrived: idle until its arrival. *)
        if o.so_next_arr > t.sq_now then t.sq_now <- o.so_next_arr;
        admit ()
      end;
      (match Queue.peek_opt o.so_q with
      | Some (r, arr) when r = k ->
          ignore (Queue.pop o.so_q);
          let start = t.sq_now in
          t.sq_busy <- t.sq_busy + s;
          t.sq_now <- t.sq_now + s;
          t.sq_served <- t.sq_served + 1;
          t.sq_sink ~req:k ~lat:(t.sq_now - arr) ~wait:(start - arr)
      | _ -> (* k was dropped by an earlier admission scan *) ())
  | Src_closed c ->
      let arr = heap_pop c.sc_ready in
      let start = if arr > t.sq_now then arr else t.sq_now in
      t.sq_busy <- t.sq_busy + s;
      t.sq_now <- start + s;
      t.sq_served <- t.sq_served + 1;
      t.sq_sink ~req:k ~lat:(t.sq_now - arr) ~wait:(start - arr);
      let think =
        if c.sc_think_mean > 0.0 then
          int_of_float (Rng.exponential c.sc_rng ~mean:c.sc_think_mean)
        else 0
      in
      heap_push c.sc_ready (t.sq_now + think)

let stream_served t = t.sq_served
let stream_dropped t = t.sq_dropped
let stream_busy_cycles t = t.sq_busy
let stream_span_cycles t = t.sq_now

(* The array form of the engine: a whole service vector pushed in index
   order. *)
let push_all sq services =
  Array.iteri (fun req service -> stream_push sq ~req ~service) services

let run_queue ~cfg ~mean_service ~services =
  if Array.length services <> cfg.requests then
    invalid_arg "Serve.run_queue: services length <> requests";
  let sq =
    stream_queue ~cfg ~mean_service ~sink:(fun ~req:_ ~lat:_ ~wait:_ -> ())
  in
  push_all sq services;
  sq

(* ------------------------------------------------------------------ *)

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
  lat_cycles : int array;  (** per served request, serve order *)
  recorder : Latency.t;  (** the same latencies in scaled microseconds *)
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
      (** order-sensitive digest of (req, lat, wait) in serve order *)
  counters : Counters.t;
}

(* Order-sensitive digest of the served-request stream: folding (request
   index, latency, wait) in serve order means two drivers agree iff every
   per-request outcome matches exactly — the O(1)-memory bit-identity
   witness for cells whose per-request latency vector is not
   materialized. *)
let fp_fold acc ~req ~lat ~wait =
  Site_hash.mix2 acc (Site_hash.mix2 (Site_hash.mix2 req lat) wait)

(* ------------------------------------------------------------------ *)
(* Cell accounting: constant-memory per-request accumulation (log-bucket
   recorder, per-rtype buckets, wait sum, order-sensitive fingerprint).
   The raw latency vector is kept only for cells small enough that
   keeping it is free — large cells report through the recorder and
   fingerprint alone. *)

let lat_keep_cap = 100_000

type stream_accum = {
  sa_w : Workload.t;
  sa_recorder : Latency.t;
  sa_rt : Latency.t array;
  sa_keep : int array;  (* [||] above [lat_keep_cap] *)
  mutable sa_kept : int;
  mutable sa_wait_cycles : int;
  mutable sa_fp : int;
}

let stream_accum (w : Workload.t) ~requests =
  {
    sa_w = w;
    sa_recorder = Latency.create ();
    sa_rt = Array.map (fun _ -> Latency.create ()) w.Workload.request_type_names;
    sa_keep = (if requests <= lat_keep_cap then Array.make requests 0 else [||]);
    sa_kept = 0;
    sa_wait_cycles = 0;
    sa_fp = 0;
  }

let accum_sink a ~req ~lat ~wait =
  let us = Workload.cycles_to_us a.sa_w lat in
  Latency.record a.sa_recorder us;
  Latency.record a.sa_rt.((a.sa_w.Workload.gen_request req).Workload.rtype) us;
  a.sa_wait_cycles <- a.sa_wait_cycles + wait;
  a.sa_fp <- fp_fold a.sa_fp ~req ~lat ~wait;
  if Array.length a.sa_keep > 0 then begin
    a.sa_keep.(a.sa_kept) <- lat;
    a.sa_kept <- a.sa_kept + 1
  end

(* Assemble a cell from a fully-pushed engine and its accumulator. *)
let finish_cell ~cfg ~mean_service ~sq ~a ~counters =
  let w = a.sa_w in
  let served = sq.sq_served and span = sq.sq_now in
  let span_us = Workload.cycles_to_us w span in
  let span_s = span_us *. 1e-6 in
  let mean_gap = float_of_int mean_service /. cfg.load in
  let gap_s = Workload.cycles_to_us w (int_of_float mean_gap) *. 1e-6 in
  let recorder = a.sa_recorder in
  {
    cfg;
    workload_name = w.Workload.wname;
    mean_service_cycles = mean_service;
    served;
    dropped = sq.sq_dropped;
    lat_cycles =
      (if Array.length a.sa_keep > 0 then Array.sub a.sa_keep 0 a.sa_kept
       else [||]);
    recorder;
    offered_rps = (if gap_s > 0.0 then 1.0 /. gap_s else Float.nan);
    goodput_rps = (if span_s > 0.0 then float_of_int served /. span_s else 0.0);
    util =
      (if span > 0 then float_of_int sq.sq_busy /. float_of_int span else 0.0);
    span_us;
    mean_us = Latency.mean recorder;
    p50_us = Latency.p50 recorder;
    p99_us = Latency.p99 recorder;
    p999_us = Latency.p999 recorder;
    mean_wait_us =
      (if served = 0 then Float.nan
       else Workload.cycles_to_us w a.sa_wait_cycles /. float_of_int served);
    by_rtype =
      Array.mapi
        (fun rt name ->
          {
            rt_name = name;
            rt_served = Latency.count a.sa_rt.(rt);
            rt_mean_us = Latency.mean a.sa_rt.(rt);
            rt_p99_us = Latency.p99 a.sa_rt.(rt);
          })
        w.Workload.request_type_names;
    lat_fingerprint = a.sa_fp;
    counters;
  }

(* The fold: one cell from its pass's service vector.  Cells of one pass
   get their own copy of its counters. *)
let fold_cell (w : Workload.t) ~mean_service ~services ~counters cfg =
  let a = stream_accum w ~requests:cfg.requests in
  let sq = stream_queue ~cfg ~mean_service ~sink:(accum_sink a) in
  push_all sq services;
  finish_cell ~cfg ~mean_service ~sq ~a ~counters:(Counters.copy counters)

(* ------------------------------------------------------------------ *)
(* Base-mode capacity calibration: the mean service time (cycles per
   request, closed loop) every load level is expressed against.  Always
   measured in [Base] so "load 1.0" means the same client behavior for
   every mode under comparison — the enhanced modes then run the same
   arrival sequence with shorter service times, which is precisely the
   capacity head-room being measured. *)

let calibrate_generate ?ucfg ?skip_cfg ?requests ?warmup (w : Workload.t) =
  let n = Option.value requests ~default:w.Workload.default_requests in
  let r = Experiment.run ?ucfg ?skip_cfg ~requests:n ?warmup ~mode:Sim.Base w in
  max 1 (r.Experiment.counters.Counters.cycles / max 1 n)

(* ------------------------------------------------------------------ *)
(* Executors: what runs the closed-loop request stream of one pass.  The
   live one interprets on {!Sim}; {!Dlink_trace.Serve_replay} supplies
   the trace-cursor one.  Both have run the warmup and started the
   measurement window by the time they are returned. *)

type executor = {
  ex_counters : Counters.t;
  ex_request : int -> unit;
  ex_switch : retain_asid:bool -> unit;
  ex_measured : unit -> Counters.t;
}

let live_executor ?ucfg ?skip_cfg ~mode (w : Workload.t) =
  let sim =
    Sim.create ?ucfg ?skip_cfg ~func_align:w.Workload.func_align ~mode
      w.Workload.objs
  in
  let kernel = Sim.kernel sim in
  let call (rq : Workload.request) =
    Kernel.note_boundary kernel ~rtype:rq.Workload.rtype;
    Sim.call sim ~mname:rq.Workload.mname ~fname:rq.Workload.fname
  in
  for i = 0 to w.Workload.warmup_requests - 1 do
    call (w.Workload.gen_request (-1 - i))
  done;
  Sim.mark_measurement_start sim;
  {
    ex_counters = Sim.counters sim;
    ex_request = (fun i -> call (w.Workload.gen_request i));
    ex_switch = (fun ~retain_asid -> Sim.context_switch ~retain_asid sim);
    ex_measured = (fun () -> Sim.measured_counters sim);
  }

(* One measured pass: every request of the stream in order, the flush
   policy applied by stream index, each service time buffered (8 B per
   request). *)
let execute ~flush ~flush_every ~requests ex =
  let services = Array.make requests 0 in
  let c = ex.ex_counters in
  for i = 0 to requests - 1 do
    if flush <> No_flush && i > 0 && i mod flush_every = 0 then
      ex.ex_switch ~retain_asid:(flush = Asid);
    let before = c.Counters.cycles in
    ex.ex_request i;
    services.(i) <- c.Counters.cycles - before
  done;
  (services, ex.ex_measured ())

(* Every serving driver ends here.  Execute once: one measured pass per
   distinct (mode, flush) pair of the grid, plus the (Base, none)
   calibration pass unless [mean_service] is given, on the domain pool.
   Then fold: every cell pushes its pass's vector through the queue
   engine at its own load.  The fold is exact because service times do
   not depend on load and the flush cadence counts request indices, not
   served requests; and the (Base, none) pass replicates
   [calibrate_generate]'s request sequence, so its mean is the
   calibration. *)
let run_grid ?jobs ?mean_service ~executor ~cfg ~loads ~modes ~flushes
    (w : Workload.t) =
  List.iter (fun load -> check_config { cfg with load }) loads;
  (match mean_service with
  | Some m when m <= 0 ->
      invalid_arg "Serve.run_grid: mean_service must be positive"
  | _ -> ());
  let cells =
    List.concat_map
      (fun mode ->
        List.concat_map
          (fun flush ->
            List.map (fun load -> { cfg with mode; flush; load }) loads)
          flushes)
      modes
  in
  let calibration = (Sim.Base, No_flush) in
  let keys =
    List.sort_uniq compare
      ((if mean_service = None then [ calibration ] else [])
      @ List.map (fun c -> (c.mode, c.flush)) cells)
  in
  (* [executor mode] runs here, on the calling domain, in key order; the
     machines it returns thunks for are built and run on the pool. *)
  let starts = List.map (fun (mode, flush) -> (flush, executor mode)) keys in
  let passes =
    List.combine keys
      (Dpool.map ?jobs
         (fun (flush, start) ->
           execute ~flush ~flush_every:cfg.flush_every ~requests:cfg.requests
             (start ()))
         starts)
  in
  let mean_service =
    match mean_service with
    | Some m -> m
    | None ->
        let services, _ = List.assoc calibration passes in
        max 1 (Array.fold_left ( + ) 0 services / max 1 cfg.requests)
  in
  Dpool.map ?jobs
    (fun c ->
      let services, counters = List.assoc (c.mode, c.flush) passes in
      fold_cell w ~mean_service ~services ~counters c)
    cells

let run_cell_stream ?ucfg ?skip_cfg ?mean_service ?jobs ~cfg (w : Workload.t)
    =
  List.hd
    (run_grid ?jobs ?mean_service
       ~executor:(fun mode () -> live_executor ?ucfg ?skip_cfg ~mode w)
       ~cfg ~loads:[ cfg.load ] ~modes:[ cfg.mode ] ~flushes:[ cfg.flush ] w)

let run_cell_generate ?ucfg ?skip_cfg ?mean_service ~cfg w =
  run_cell_stream ?ucfg ?skip_cfg ?mean_service ~cfg w

(* ------------------------------------------------------------------ *)

let cell_json ?(hist = false) (c : cell) =
  let f v = Json.Float v in
  let fields =
    [
      ("workload", Json.String c.workload_name);
      ("mode", Json.String (Sim.mode_to_string c.cfg.mode));
      ("arrival", Json.String (Arrival.to_string c.cfg.arrival));
      ("flush", Json.String (flush_to_string c.cfg.flush));
      ("load", f c.cfg.load);
      ("queue_cap", Json.Int c.cfg.queue_cap);
      ("requests", Json.Int c.cfg.requests);
      ("seed", Json.Int c.cfg.seed);
      ("mean_service_cycles", Json.Int c.mean_service_cycles);
      ("served", Json.Int c.served);
      ("dropped", Json.Int c.dropped);
      ("offered_rps", f c.offered_rps);
      ("goodput_rps", f c.goodput_rps);
      ("util", f c.util);
      ("span_us", f c.span_us);
      ("mean_us", f c.mean_us);
      ("mean_wait_us", f c.mean_wait_us);
      ("p50_us", f c.p50_us);
      ("p99_us", f c.p99_us);
      ("p999_us", f c.p999_us);
      ( "by_rtype",
        Json.List
          (Array.to_list
             (Array.map
                (fun rt ->
                  Json.Obj
                    [
                      ("rtype", Json.String rt.rt_name);
                      ("served", Json.Int rt.rt_served);
                      ("mean_us", f rt.rt_mean_us);
                      ("p99_us", f rt.rt_p99_us);
                    ])
                c.by_rtype)) );
    ]
  in
  let fields =
    if hist then
      fields
      @ [
          ( "hist_us",
            Json.List
              (List.map
                 (fun (lo, hi, n) ->
                   Json.List [ f lo; f hi; Json.Int n ])
                 (Latency.buckets c.recorder)) );
        ]
    else fields
  in
  Json.Obj fields

(* Stable cell label for sweep output and bench leaf naming:
   "<mode>/<arrival>/<flush>@<load>". *)
let cell_label (c : cell) =
  Printf.sprintf "%s_%s_%s_load%g"
    (Sim.mode_to_string c.cfg.mode)
    (Arrival.to_string c.cfg.arrival)
    (flush_to_string c.cfg.flush)
    c.cfg.load
