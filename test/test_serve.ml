(* Serving-stack tests: arrival processes (open and closed loop), the
   push-based queue engine against a naive array reference model, cells
   (live vs replay bit-identity, the execute-once fold against separate
   single-cell runs, independence from jobs, determinism), open-loop
   cells past saturation, and the kernel's request-boundary tap. *)

module Rng = Dlink_util.Rng
module Arrival = Dlink_util.Arrival
module Latency = Dlink_stats.Latency
module Counters = Dlink_uarch.Counters
module Sim = Dlink_core.Sim
module Serve = Dlink_core.Serve
module Workload = Dlink_core.Workload
module Registry = Dlink_workloads.Registry
module Kernel = Dlink_pipeline.Kernel
module Tcache = Dlink_trace.Cache
module Replay = Dlink_trace.Replay
module Serve_replay = Dlink_trace.Serve_replay

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let wl name =
  match Registry.find name with
  | Some f -> f ()
  | None -> Alcotest.failf "unknown workload %s" name

(* ---------------- arrivals ---------------- *)

let test_arrival_deterministic () =
  List.iter
    (fun p ->
      let a = Arrival.times ~seed:7 ~mean_gap:100.0 ~n:500 p in
      let b = Arrival.times ~seed:7 ~mean_gap:100.0 ~n:500 p in
      checkb (Arrival.to_string p ^ " same seed same times") true (a = b);
      let c = Arrival.times ~seed:8 ~mean_gap:100.0 ~n:500 p in
      checkb (Arrival.to_string p ^ " different seed differs") true (a <> c))
    [ Arrival.Poisson; Arrival.default_mmpp ]

let test_arrival_sorted_nonneg () =
  List.iter
    (fun p ->
      let a = Arrival.times ~seed:3 ~mean_gap:50.0 ~n:2000 p in
      checki "length" 2000 (Array.length a);
      Array.iteri
        (fun i x ->
          checkb "non-negative" true (x >= 0);
          if i > 0 then checkb "sorted" true (x >= a.(i - 1)))
        a)
    [ Arrival.Poisson; Arrival.default_mmpp ]

let test_arrival_mean_gap () =
  List.iter
    (fun p ->
      let n = 20_000 in
      let a = Arrival.times ~seed:11 ~mean_gap:200.0 ~n p in
      let mean = float_of_int a.(n - 1) /. float_of_int n in
      checkb
        (Printf.sprintf "%s long-run mean gap ~200 (got %.1f)"
           (Arrival.to_string p) mean)
        true
        (abs_float (mean -. 200.0) < 20.0))
    [ Arrival.Poisson; Arrival.default_mmpp ]

let test_arrival_rejects_bad () =
  checkb "bad name" true (Arrival.of_string "uniform" = None);
  (match Arrival.times ~seed:1 ~mean_gap:0.0 ~n:3 Arrival.Poisson with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mean_gap 0 should raise");
  match Arrival.times ~seed:1 ~mean_gap:Float.nan ~n:3 Arrival.Poisson with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "nan mean_gap should raise"

let test_closed_arrival_spec () =
  (match Arrival.of_string "closed:32" with
  | Some (Arrival.Closed { clients = 32 }) -> ()
  | _ -> Alcotest.fail "closed:32 should parse");
  checkb "round-trips" true
    (Arrival.of_string (Arrival.to_string (Arrival.Closed { clients = 7 }))
    = Some (Arrival.Closed { clients = 7 }));
  checkb "closed:0 rejected" true (Arrival.of_string "closed:0" = None);
  checkb "closed:-3 rejected" true (Arrival.of_string "closed:-3" = None);
  checkb "closed:x rejected" true (Arrival.of_string "closed:x" = None);
  (* Closed arrivals are coupled to completions: only the streaming queue
     engine can generate them, never the standalone arrival API. *)
  (match
     Arrival.times ~seed:1 ~mean_gap:10.0 ~n:5 (Arrival.Closed { clients = 4 })
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "times on closed should raise");
  match Arrival.gen ~seed:1 ~mean_gap:10.0 (Arrival.Closed { clients = 4 }) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "gen on closed should raise"

(* ---------------- queue engine ---------------- *)

(* The reference model: the bounded FIFO written the obvious way, over
   the whole arrival array at once, materializing every per-request
   outcome.  Lazy admission of all arrivals at or before now, drop on a
   full queue, idle to the next arrival when empty. *)
type ref_stats = {
  served : (int * int * int) array;  (** (request, latency, wait) *)
  dropped : int;
  busy : int;
  span : int;
}

let simulate_queue ~arrivals ~queue_cap ~service =
  let n = Array.length arrivals in
  let q = Queue.create () in
  let out = ref [] in
  let now = ref 0 and busy = ref 0 in
  let served = ref 0 and dropped = ref 0 and next = ref 0 in
  let admit () =
    while !next < n && arrivals.(!next) <= !now do
      if Queue.length q < queue_cap then Queue.add !next q else incr dropped;
      incr next
    done
  in
  while !served + !dropped < n do
    admit ();
    if Queue.is_empty q then begin
      if arrivals.(!next) > !now then now := arrivals.(!next);
      admit ()
    end;
    let r = Queue.pop q in
    let start = !now in
    let s = service r in
    busy := !busy + s;
    now := !now + s;
    out := (r, !now - arrivals.(r), start - arrivals.(r)) :: !out;
    incr served
  done;
  {
    served = Array.of_list (List.rev !out);
    dropped = !dropped;
    busy = !busy;
    span = !now;
  }

(* The engine over explicit arrivals: every served (request, latency,
   wait) in serve order, and the engine for its totals. *)
let push_at ~arrivals ~queue_cap services =
  let got = ref [] in
  let sq =
    Serve.stream_queue_at ~arrivals ~queue_cap ~sink:(fun ~req ~lat ~wait ->
        got := (req, lat, wait) :: !got)
  in
  Array.iteri (fun req service -> Serve.stream_push sq ~req ~service) services;
  (sq, Array.of_list (List.rev !got))

(* Constant service against a hand-computable arrival pattern. *)
let test_queue_hand_example () =
  (* service 10; arrivals at 0,2,4,100: three back-to-back, then idle. *)
  let sq, got =
    push_at ~arrivals:[| 0; 2; 4; 100 |] ~queue_cap:8 (Array.make 4 10)
  in
  checki "served" 4 (Serve.stream_served sq);
  checki "dropped" 0 (Serve.stream_dropped sq);
  checkb "latencies" true
    (Array.map (fun (_, lat, _) -> lat) got = [| 10; 18; 26; 10 |]);
  checkb "waits" true
    (Array.map (fun (_, _, wait) -> wait) got = [| 0; 8; 16; 0 |]);
  checki "busy" 40 (Serve.stream_busy_cycles sq);
  checki "span" 110 (Serve.stream_span_cycles sq);
  checkb "reference model agrees" true
    ((simulate_queue ~arrivals:[| 0; 2; 4; 100 |] ~queue_cap:8
        ~service:(fun _ -> 10))
       .served = got)

let test_queue_drops_when_full () =
  (* cap 1: while request 0 is in service (0..100), arrivals 1,2,3 come;
     1 queues, 2 and 3 find the queue full and drop. *)
  let sq, got =
    push_at ~arrivals:[| 0; 10; 20; 30 |] ~queue_cap:1 (Array.make 4 100)
  in
  checki "served" 2 (Serve.stream_served sq);
  checki "dropped" 2 (Serve.stream_dropped sq);
  checkb "served reqs" true (Array.map (fun (r, _, _) -> r) got = [| 0; 1 |]);
  checkb "reference model agrees" true
    ((simulate_queue ~arrivals:[| 0; 10; 20; 30 |] ~queue_cap:1
        ~service:(fun _ -> 100))
       .served = got);
  match
    Serve.stream_queue_at ~arrivals:[| 5; 3 |] ~queue_cap:1
      ~sink:(fun ~req:_ ~lat:_ ~wait:_ -> ())
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unsorted arrivals should raise"

let test_queue_wait_plus_service () =
  let rng = Rng.create 5 in
  let arr = Arrival.times ~seed:9 ~mean_gap:30.0 ~n:300 Arrival.Poisson in
  let services = Array.init 300 (fun _ -> 1 + Rng.int rng 60) in
  let sq, got = push_at ~arrivals:arr ~queue_cap:16 services in
  checki "conservation" 300 (Serve.stream_served sq + Serve.stream_dropped sq);
  Array.iter
    (fun (r, lat, wait) ->
      checki "lat = wait + service" (wait + services.(r)) lat)
    got

(* ---------------- cells: generate vs replay, determinism ------------- *)

let mk_cfg ?(mode = Sim.Enhanced) ?(load = 0.9) ?(flush = Serve.No_flush)
    ?(arrival = Arrival.Poisson) () =
  {
    Serve.mode;
    load;
    arrival;
    flush;
    flush_every = 7;
    requests = 60;
    queue_cap = 8;
    seed = 5;
  }

let test_cell_generate_replay_identical () =
  Tcache.clear ();
  let w = wl "synth" in
  let mean_service = Serve.calibrate_generate ~requests:60 w in
  checki "calibrations agree" mean_service
    (Serve_replay.calibrate ~requests:60 w);
  List.iter
    (fun (mode, flush, arrival) ->
      let cfg = mk_cfg ~mode ~flush ~arrival () in
      let g = Serve.run_cell_generate ~mean_service ~cfg w in
      let r = Serve_replay.run_cell ~mean_service ~cfg w in
      let msg =
        Printf.sprintf "%s/%s/%s" (Sim.mode_to_string mode)
          (Serve.flush_to_string flush)
          (Arrival.to_string arrival)
      in
      checkb (msg ^ ": lat_cycles bit-identical") true
        (g.Serve.lat_cycles = r.Serve.lat_cycles);
      checki (msg ^ ": served") g.Serve.served r.Serve.served;
      checki (msg ^ ": dropped") g.Serve.dropped r.Serve.dropped;
      checkb (msg ^ ": counters") true (g.Serve.counters = r.Serve.counters);
      checkb (msg ^ ": p99 identical") true (g.Serve.p99_us = r.Serve.p99_us))
    [
      (Sim.Base, Serve.No_flush, Arrival.Poisson);
      (Sim.Enhanced, Serve.No_flush, Arrival.Poisson);
      (Sim.Enhanced, Serve.Flush, Arrival.default_mmpp);
      (Sim.Eager, Serve.Asid, Arrival.Poisson);
      (Sim.Stable, Serve.No_flush, Arrival.default_mmpp);
    ]

let test_cell_deterministic () =
  Tcache.clear ();
  let w = wl "synth" in
  let cfg = mk_cfg () in
  let a = Serve_replay.run_cell ~cfg w in
  let b = Serve_replay.run_cell ~cfg w in
  checkb "same seed, identical latency vector" true
    (a.Serve.lat_cycles = b.Serve.lat_cycles);
  let c = Serve_replay.run_cell ~cfg:{ cfg with Serve.seed = 6 } w in
  checkb "different seed, different arrivals" true
    (a.Serve.lat_cycles <> c.Serve.lat_cycles)

let test_cell_saturation_and_validation () =
  Tcache.clear ();
  let w = wl "synth" in
  (* Far past saturation with a tiny queue: drops must appear, and the
     queue bound caps waiting, so latency stays below cap * max service. *)
  let cfg =
    { (mk_cfg ~load:3.0 ()) with Serve.queue_cap = 2; requests = 80 }
  in
  let c = Serve_replay.run_cell ~cfg w in
  checkb "overload drops" true (c.Serve.dropped > 0);
  checki "conservation" 80 (c.Serve.served + c.Serve.dropped);
  checkb "util near 1" true (c.Serve.util > 0.8);
  (match Serve.run_cell_generate ~cfg:{ cfg with Serve.load = 0.0 } w with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "load 0 should raise");
  match Serve.run_cell_generate ~cfg:{ cfg with Serve.queue_cap = 0 } w with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "queue_cap 0 should raise"

let test_sweep_jobs_deterministic () =
  Tcache.clear ();
  let w = wl "synth" in
  let cfg = { Serve.default_config with Serve.requests = 40; seed = 9 } in
  let loads = [ 0.7; 1.1 ] in
  let modes = [ Sim.Base; Sim.Enhanced ] in
  let flushes = [ Serve.No_flush; Serve.Flush ] in
  let seq = Serve_replay.sweep ~jobs:1 ~cfg ~loads ~modes ~flushes w in
  let par = Serve_replay.sweep ~jobs:4 ~cfg ~loads ~modes ~flushes w in
  checki "cells" 8 (List.length seq);
  List.iter2
    (fun (a : Serve.cell) (b : Serve.cell) ->
      checkb "sweep order and latencies independent of jobs" true
        (Serve.cell_label a = Serve.cell_label b
        && a.Serve.lat_cycles = b.Serve.lat_cycles))
    seq par

(* ---------------- execute once, fold every load ---------------- *)

(* Whole-cell equality; [compare] treats the NaN fields of an empty cell
   as equal. *)
let same_cell (a : Serve.cell) (b : Serve.cell) = compare a b = 0

(* A sweep runs one pass per (mode, flush) pair and folds every load over
   it; each of its cells must equal a cell run on its own, which executes
   its own calibration and measured passes. *)
let test_sweep_fold_matches_cells () =
  Tcache.clear ();
  let w = wl "synth" in
  let cfg = { (mk_cfg ()) with Serve.requests = 70 } in
  let loads = [ 0.6; 1.0; 1.4 ] in
  let modes = [ Sim.Base; Sim.Enhanced ] in
  let flushes = [ Serve.No_flush; Serve.Flush; Serve.Asid ] in
  List.iter
    (fun arrival ->
      let cfg = { cfg with Serve.arrival } in
      let seq = Serve_replay.sweep ~jobs:1 ~cfg ~loads ~modes ~flushes w in
      let par = Serve_replay.sweep ~jobs:2 ~cfg ~loads ~modes ~flushes w in
      checki "cells" 18 (List.length seq);
      List.iter2
        (fun (a : Serve.cell) (b : Serve.cell) ->
          let msg = Serve.cell_label a in
          checkb (msg ^ ": jobs 1 = jobs 2") true (same_cell a b);
          checkb (msg ^ ": fold = single cell") true
            (same_cell a (Serve_replay.run_cell ~cfg:a.Serve.cfg w)))
        seq par;
      let base = List.hd seq in
      checkb "first cell is (base, none)" true
        (base.Serve.cfg.Serve.mode = Sim.Base
        && base.Serve.cfg.Serve.flush = Serve.No_flush);
      checki "fold calibration = Serve_replay.calibrate"
        (Serve_replay.calibrate ~requests:70 w)
        base.Serve.mean_service_cycles;
      checki "fold calibration = calibrate_generate"
        (Serve.calibrate_generate ~requests:70 w)
        base.Serve.mean_service_cycles)
    [ Arrival.Poisson; Arrival.default_mmpp; Arrival.Closed { clients = 4 } ]

(* ---------------- streaming engine and cells ---------------- *)

(* The live driver with its calibration and measured passes on two
   domains must reproduce the calling-domain driver exactly — same
   latency vector, same order-sensitive fingerprint, same counters —
   across modes, flush policies, and arrival processes.  The Base/No_flush
   row is its own calibration and runs one pass. *)
let test_stream_matches_generate () =
  Tcache.clear ();
  let w = wl "synth" in
  List.iter
    (fun (mode, flush, arrival) ->
      let cfg = mk_cfg ~mode ~flush ~arrival () in
      let g = Serve.run_cell_generate ~cfg w in
      let s = Serve.run_cell_stream ~jobs:2 ~cfg w in
      let msg =
        Printf.sprintf "%s/%s/%s" (Sim.mode_to_string mode)
          (Serve.flush_to_string flush)
          (Arrival.to_string arrival)
      in
      checkb (msg ^ ": lat_cycles") true
        (g.Serve.lat_cycles = s.Serve.lat_cycles);
      checkb (msg ^ ": fingerprint") true
        (g.Serve.lat_fingerprint = s.Serve.lat_fingerprint);
      checkb (msg ^ ": counters") true (g.Serve.counters = s.Serve.counters);
      checki (msg ^ ": served") g.Serve.served s.Serve.served;
      checki (msg ^ ": dropped") g.Serve.dropped s.Serve.dropped;
      checki (msg ^ ": mean service") g.Serve.mean_service_cycles
        s.Serve.mean_service_cycles;
      checkb (msg ^ ": quantiles") true
        (g.Serve.p50_us = s.Serve.p50_us
        && g.Serve.p99_us = s.Serve.p99_us
        && g.Serve.p999_us = s.Serve.p999_us))
    [
      (Sim.Base, Serve.No_flush, Arrival.Poisson);
      (Sim.Enhanced, Serve.No_flush, Arrival.default_mmpp);
      (Sim.Enhanced, Serve.Flush, Arrival.Poisson);
      (Sim.Eager, Serve.Asid, Arrival.Poisson);
      (Sim.Stable, Serve.No_flush, Arrival.Poisson);
    ]

let test_closed_cell () =
  Tcache.clear ();
  let w = wl "synth" in
  let cfg =
    {
      (mk_cfg ~arrival:(Arrival.Closed { clients = 4 }) ()) with
      Serve.requests = 80;
    }
  in
  let a = Serve.run_cell_stream ~cfg w in
  checki "population bound serves everything" 80 a.Serve.served;
  checki "closed loop never drops" 0 a.Serve.dropped;
  checki "latencies materialized below cap" 80
    (Array.length a.Serve.lat_cycles);
  Array.iter
    (fun l -> checkb "latency positive" true (l > 0))
    a.Serve.lat_cycles;
  let b = Serve.run_cell_stream ~cfg w in
  checkb "deterministic" true
    (a.Serve.lat_cycles = b.Serve.lat_cycles
    && a.Serve.lat_fingerprint = b.Serve.lat_fingerprint);
  let r = Serve_replay.run_cell ~cfg w in
  checkb "replay mirror identical" true
    (a.Serve.lat_cycles = r.Serve.lat_cycles
    && a.Serve.lat_fingerprint = r.Serve.lat_fingerprint
    && a.Serve.counters = r.Serve.counters);
  checkb "generate driver identical" true
    (same_cell a (Serve.run_cell_generate ~cfg w))

let test_closed_jobs_invariant () =
  let w = wl "synth" in
  List.iter
    (fun mode ->
      let cfg =
        {
          (mk_cfg ~mode ~arrival:(Arrival.Closed { clients = 6 }) ()) with
          Serve.requests = 200;
        }
      in
      let a = Serve.run_cell_stream ~jobs:1 ~cfg w in
      checkb
        (Sim.mode_to_string mode ^ ": bit-identical across jobs")
        true
        (List.for_all
           (fun jobs -> same_cell a (Serve.run_cell_stream ~jobs ~cfg w))
           [ 2; 4 ]))
    [ Sim.Base; Sim.Enhanced ]

(* The live driver's outcome does not depend on [jobs], whether the cell
   is its own calibration (one pass) or needs a separate one (two passes
   on the pool), and matches the calling-domain driver bit for bit. *)
let test_stream_jobs_invariant () =
  let check w cfg =
    let g = Serve.run_cell_generate ~cfg w in
    List.iter
      (fun jobs ->
        checkb
          (Printf.sprintf "%s %s jobs %d = generate" w.Workload.wname
             (Serve.cell_label g) jobs)
          true
          (same_cell g (Serve.run_cell_stream ~jobs ~cfg w)))
      [ 1; 2; 4 ]
  in
  let w = wl "synth" in
  let cfg =
    { (mk_cfg ~mode:Sim.Base ~load:1.1 ()) with Serve.requests = 300 }
  in
  check w cfg;
  check w { cfg with Serve.mode = Sim.Enhanced; flush = Serve.Flush };
  (* Same invariant on the realistic memcached stream. *)
  check (wl "memcached") { (mk_cfg ~mode:Sim.Base ()) with Serve.requests = 90 }

let test_replay_jobs_invariant () =
  Tcache.clear ();
  let w = wl "synth" in
  let cfg = { (mk_cfg ~mode:Sim.Enhanced ()) with Serve.requests = 120 } in
  let a = Serve_replay.run_cell ~cfg w in
  List.iter
    (fun jobs ->
      checkb
        (Printf.sprintf "replay jobs %d = jobs 1" jobs)
        true
        (same_cell a (Serve_replay.run_cell ~jobs ~cfg w)))
    [ 2; 4 ]

(* ---------------- properties ---------------- *)

let qcheck_tests =
  [
    (* The push engine, generating its arrivals incrementally, against the
       reference model over [Arrival.times]: identical served set,
       per-request latency and wait, drops, busy time, and span, for
       random Poisson and MMPP cells — and [Serve.run_queue], the same
       engine over a whole vector, agrees on the totals. *)
    QCheck.Test.make ~name:"stream_queue mirrors run_queue" ~count:150
      QCheck.(
        quad (int_range 0 150) (int_range 1 12) (int_range 0 10_000)
          (triple (int_range 5 80) (int_range 0 3) bool))
      (fun (n, cap, seed, (mean_service, li, bursty)) ->
        let load = [| 0.5; 0.9; 1.2; 2.5 |].(li) in
        let arrival =
          if bursty then Arrival.default_mmpp else Arrival.Poisson
        in
        let cfg =
          {
            (mk_cfg ~load ~arrival ()) with
            Serve.requests = n;
            queue_cap = cap;
            seed;
          }
        in
        let rng = Rng.create (seed + 77) in
        let services = Array.init n (fun _ -> Rng.int rng 200) in
        let expect =
          simulate_queue ~queue_cap:cap
            ~service:(fun r -> services.(r))
            ~arrivals:
              (Arrival.times ~seed
                 ~mean_gap:(float_of_int mean_service /. load)
                 ~n arrival)
        in
        let got = ref [] in
        let sq =
          Serve.stream_queue ~cfg ~mean_service ~sink:(fun ~req ~lat ~wait ->
              got := (req, lat, wait) :: !got)
        in
        Array.iteri
          (fun req service -> Serve.stream_push sq ~req ~service)
          services;
        let totals q =
          ( Serve.stream_served q,
            Serve.stream_dropped q,
            Serve.stream_busy_cycles q,
            Serve.stream_span_cycles q )
        in
        Array.of_list (List.rev !got) = expect.served
        && totals sq
           = ( Array.length expect.served,
               expect.dropped,
               expect.busy,
               expect.span )
        && totals (Serve.run_queue ~cfg ~mean_service ~services) = totals sq);
    (* Snapshot/restore is exact: resuming a restored fresh simulator
       replays the suffix bit-identically — per-request cycles, measured
       counters, and the full state fingerprint — across every link mode
       and around (ASID-tagged or full) context switches. *)
    QCheck.Test.make ~name:"sim snapshot/restore resumes bit-identically"
      ~count:12
      QCheck.(
        quad (int_range 0 5) (int_range 0 25) (int_range 1 20) (int_range 0 2))
      (fun (mi, pre, post, sw) ->
        let mode = List.nth Sim.all_modes mi in
        let w = wl "synth" in
        let make () =
          Sim.create ~func_align:w.Workload.func_align ~mode w.Workload.objs
        in
        let call sim i =
          let rq = w.Workload.gen_request i in
          Kernel.note_boundary (Sim.kernel sim) ~rtype:rq.Workload.rtype;
          Sim.call sim ~mname:rq.Workload.mname ~fname:rq.Workload.fname
        in
        let sim = make () in
        for i = 0 to pre - 1 do
          call sim i
        done;
        (match sw with
        | 1 -> Sim.context_switch sim
        | 2 -> Sim.context_switch ~retain_asid:true sim
        | _ -> ());
        Sim.mark_measurement_start sim;
        let snap = Sim.snapshot sim in
        let tail sim =
          let c = Sim.counters sim in
          let services = Array.make post 0 in
          for i = 0 to post - 1 do
            let before = c.Counters.cycles in
            call sim (pre + i);
            services.(i) <- c.Counters.cycles - before
          done;
          ( services,
            Sim.state_fingerprint sim,
            (Sim.measured_counters sim).Counters.cycles )
        in
        let a = tail sim in
        let sim2 = make () in
        Sim.restore sim2 snap;
        a = tail sim2);
  ]

(* ---------------- boundary tap ---------------- *)

let test_boundary_tap_counts () =
  Tcache.clear ();
  let w = wl "synth" in
  let count = ref 0 and rtypes = ref [] in
  let cfg = mk_cfg () in
  let mean_service = Serve.calibrate_generate ~requests:60 w in
  (* The generate driver announces warmup + served requests with their
     request-type ids through the kernel tap.  We can't pre-install the
     tap on a driver-owned kernel, so go through Sim directly. *)
  let sim =
    Sim.create ~func_align:w.Workload.func_align ~mode:Sim.Enhanced
      w.Workload.objs
  in
  Kernel.set_boundary_tap (Sim.kernel sim)
    (Some
       (fun ~rtype ->
         incr count;
         rtypes := rtype :: !rtypes));
  let n_rt = Array.length w.Workload.request_type_names in
  for i = 0 to 9 do
    let rq = w.Workload.gen_request i in
    Kernel.note_boundary (Sim.kernel sim) ~rtype:rq.Workload.rtype;
    Sim.call sim ~mname:rq.Workload.mname ~fname:rq.Workload.fname
  done;
  checki "one boundary per request" 10 !count;
  List.iter
    (fun rt -> checkb "rtype in range" true (rt >= 0 && rt < n_rt))
    !rtypes;
  ignore mean_service;
  ignore cfg

(* ---------------- open loop past saturation ---------------- *)

(* Live cells at twice base capacity with a four-deep queue, under
   Poisson and MMPP arrivals and every flush policy: each request is
   served or dropped, drops appear, and every served request has one
   positive latency. *)
let test_open_loop_drops () =
  let w = wl "synth" in
  let mean_service = Serve.calibrate_generate ~requests:60 w in
  List.iter
    (fun (arrival, flush) ->
      let cfg =
        { (mk_cfg ~load:2.0 ~arrival ~flush ()) with Serve.queue_cap = 4 }
      in
      let c = Serve.run_cell_generate ~mean_service ~cfg w in
      let msg = Serve.cell_label c in
      checki (msg ^ ": served + dropped = requests") 60
        (c.Serve.served + c.Serve.dropped);
      checkb (msg ^ ": overload drops") true (c.Serve.dropped > 0);
      checki (msg ^ ": one latency per served request") c.Serve.served
        (Array.length c.Serve.lat_cycles);
      Array.iter
        (fun l -> checkb (msg ^ ": latency positive") true (l > 0))
        c.Serve.lat_cycles)
    [
      (Arrival.Poisson, Serve.No_flush);
      (Arrival.default_mmpp, Serve.Flush);
      (Arrival.default_mmpp, Serve.Asid);
    ]

let () =
  Alcotest.run "serve"
    [
      ( "arrivals",
        [
          Alcotest.test_case "deterministic" `Quick test_arrival_deterministic;
          Alcotest.test_case "sorted non-negative" `Quick
            test_arrival_sorted_nonneg;
          Alcotest.test_case "mean gap" `Slow test_arrival_mean_gap;
          Alcotest.test_case "rejects bad specs" `Quick test_arrival_rejects_bad;
          Alcotest.test_case "closed-loop spec" `Quick test_closed_arrival_spec;
        ] );
      ( "queue",
        [
          Alcotest.test_case "hand example" `Quick test_queue_hand_example;
          Alcotest.test_case "drops when full" `Quick test_queue_drops_when_full;
          Alcotest.test_case "wait + service" `Quick test_queue_wait_plus_service;
        ] );
      ( "cells",
        [
          Alcotest.test_case "generate = replay" `Quick
            test_cell_generate_replay_identical;
          Alcotest.test_case "deterministic" `Quick test_cell_deterministic;
          Alcotest.test_case "saturation + validation" `Quick
            test_cell_saturation_and_validation;
          Alcotest.test_case "sweep jobs-independent" `Quick
            test_sweep_jobs_deterministic;
          Alcotest.test_case "sweep fold = single cells" `Quick
            test_sweep_fold_matches_cells;
        ] );
      ( "stream",
        [
          Alcotest.test_case "stream = generate" `Quick
            test_stream_matches_generate;
          Alcotest.test_case "closed-loop cell" `Quick test_closed_cell;
          Alcotest.test_case "closed-loop jobs-invariant" `Quick
            test_closed_jobs_invariant;
          Alcotest.test_case "live cell jobs-invariant" `Quick
            test_stream_jobs_invariant;
          Alcotest.test_case "replay cell jobs-invariant" `Quick
            test_replay_jobs_invariant;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
      ( "boundaries",
        [ Alcotest.test_case "tap counts" `Quick test_boundary_tap_counts ] );
      ( "serve open loop",
        [ Alcotest.test_case "serves with drops" `Quick test_open_loop_drops ] );
    ]
