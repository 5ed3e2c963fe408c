(* Per-layer probes for the traced run: host time per operation of each
   layer the workloads' drivers go through, measured on the workload's own
   application (its [primary] workload) from outside the libraries, each
   probe under a span of its layer.  They run after the traced
   repetition, so they never perturb an end-to-end number. *)

module Cfg = Dlink_uarch.Config
module Sim = Dlink_core.Sim
module Serve = Dlink_core.Serve
module Churn = Dlink_core.Churn
module Workload = Dlink_core.Workload
module Kernel = Dlink_pipeline.Kernel
module Skip = Dlink_pipeline.Skip
module Trace = Dlink_pipeline.Trace
module Record = Dlink_trace.Record
module Replay = Dlink_trace.Replay
module Arrival = Dlink_util.Arrival
module Dpool = Dlink_util.Dpool
module Latency = Dlink_stats.Latency
module Dynload = Dlink_linker.Dynload
open Dlink_uarch

(* Median, over [batches] batches of [n] calls of [f i], of the
   nanoseconds per call. *)
let ns_per_op ?(batches = 7) ~n f =
  Stat.median
    (List.init batches (fun _ ->
         let t0 = Span.now_ns () in
         for i = 0 to n - 1 do
           f i
         done;
         float_of_int (Span.now_ns () - t0) /. float_of_int n))

let median_s k f = Stat.median (List.init k (fun _ -> fst (Span.time f)))

(* [requests]: measured requests of the probe trace and of the live
   probes; [scale]: iteration count of the microbenchmarks. *)
let run ~smoke ~seed ~(primary : Workload.t) ~requests =
  (* Without warmup requests, every probe spends its time on the
     [requests] it measures. *)
  let primary = { primary with warmup_requests = 0 } in
  let scale n = if smoke then max 1 (n / 100) else n in
  let out = ref [] in
  let add name v = out := (name, v) :: !out in
  let create_sim () =
    Sim.create ~mode:Sim.Base ~func_align:primary.func_align primary.objs
  in
  add "linker.load_s"
    (median_s 3 (fun () -> Span.run "linker:Sim.create" create_sim));

  (* trace: record, then decode-only walks *)
  let record_s, tr =
    Span.time (fun () ->
        Span.run "trace:Record.record" (fun () -> Record.record ~requests ~mode:Sim.Base primary))
  in
  let events = Trace.n_events tr in
  let per_event s = s *. 1e9 /. float_of_int events in
  add "trace.record_s" record_s;
  add "trace.events" (float_of_int events);
  add "trace.bytes_per_event"
    (float_of_int (Trace.storage_bytes tr) /. float_of_int events);
  let cursor () =
    let c = Trace.Cursor.create tr in
    Trace.Cursor.seek_request c 0;
    c
  in
  let cursor_s =
    median_s 3 (fun () ->
        Span.run "trace:Cursor.advance" (fun () ->
            let c = cursor () in
            while c.i < events do
              Trace.Cursor.advance c
            done))
  in
  add "trace.cursor_ns_per_event" (per_event cursor_s);

  (* pipeline: counters-only replay of the same trace in both modes *)
  let n = Trace.measured_requests tr in
  let replay mode () =
    Span.run "pipeline:Replay.replay_counters" (fun () ->
        Replay.replay_counters ~mode ~requests:n tr)
  in
  let base = replay Sim.Base () in
  let base_s = median_s 3 (replay Sim.Base) in
  let enh_s = median_s 3 (replay Sim.Enhanced) in
  add "pipeline.replay_ns_per_event" (per_event base_s);
  add "pipeline.retire_self_ns_per_event" (per_event (base_s -. cursor_s));
  add "pipeline.skip_ns_per_call"
    ((enh_s -. base_s) *. 1e9 /. float_of_int (max 1 base.tramp_calls));
  let warm = Replay.make_machine ~mode:Sim.Enhanced () in
  let c = cursor () in
  for r = 0 to Trace.n_requests tr - 1 do
    Kernel.replay_request warm c r
  done;
  add "pipeline.context_switch_ns"
    (Span.run "pipeline:Kernel.context_switch" (fun () ->
         ns_per_op ~n:(scale 20_000) (fun _ -> Kernel.context_switch warm)));

  (* uarch: each table alone, fed addresses sampled from the trace *)
  let pcs = Array.make 4096 0 and data = Array.make 4096 0 in
  let c = cursor () and k = ref 0 in
  while c.i < events do
    Trace.Cursor.advance c;
    if c.i land 7 = 0 then begin
      pcs.(!k land 4095) <- c.pc;
      if c.load <> Dlink_isa.Addr.none then data.(!k land 4095) <- c.load;
      incr k
    end
  done;
  let g = Cfg.xeon_e5450 and sk = Skip.default_config in
  let uarch name f =
    add ("uarch." ^ name)
      (Span.run ("uarch:" ^ name) (fun () -> ns_per_op ~n:(scale 200_000) f))
  in
  let l1d = Cache.create ~name:"l1d" ~size_bytes:g.l1d.size_bytes ~ways:g.l1d.ways in
  uarch "cache_ns" (fun i -> ignore (Cache.access l1d data.(i land 4095)));
  let itlb = Tlb.create ~name:"itlb" ~entries:g.itlb.entries ~ways:g.itlb.ways in
  uarch "tlb_ns" (fun i -> ignore (Tlb.access itlb ~asid:0 pcs.(i land 4095)));
  let btb = Btb.create ~sets:g.btb_sets ~ways:g.btb_ways in
  uarch "btb_ns" (fun i ->
      let pc = pcs.(i land 4095) in
      ignore (Btb.predict_default btb pc);
      Btb.update btb pc pcs.((i + 1) land 4095));
  let dir = Direction.create ~table_bits:g.gshare_table_bits ~history_bits:g.gshare_history_bits in
  uarch "direction_ns" (fun i ->
      let pc = pcs.(i land 4095) in
      ignore (Direction.predict dir pc);
      Direction.update dir pc (i land 3 <> 0));
  let abtb = Abtb.create ?ways:sk.abtb_ways ~entries:sk.abtb_entries () in
  let entry j = { Abtb.func = pcs.((j + 2048) land 4095); got_slot = data.(j land 4095) } in
  for j = 0 to 63 do
    Abtb.insert abtb ~asid:0 pcs.(j) (entry j)
  done;
  (* Half the lookups hit one of the 64 live entries. *)
  uarch "abtb_lookup_ns" (fun i ->
      ignore (Abtb.lookup_default abtb ~asid:0 pcs.(i land 127)));
  let bloom = Bloom.create ~bits:sk.bloom_bits ~hashes:sk.bloom_hashes in
  for j = 0 to 63 do
    Bloom.add bloom ~asid:0 data.(j)
  done;
  uarch "bloom_ns" (fun i -> ignore (Bloom.mem bloom ~asid:0 data.(i land 4095)));
  uarch "abtb_clear_ns" (fun i ->
      Abtb.insert abtb ~asid:0 pcs.(i land 4095) (entry i);
      Abtb.clear abtb);
  uarch "bloom_clear_ns" (fun i ->
      Bloom.add bloom ~asid:0 data.(i land 4095);
      Bloom.clear bloom);

  (* core: live interpretation, snapshots, calibration vs a whole cell *)
  let sim = Span.run "linker:Sim.create" create_sim in
  let insns = (Sim.counters sim).instructions in
  let live_s, () =
    Span.time (fun () ->
        Span.run "core.sim:Sim.call" (fun () ->
            for i = 0 to requests - 1 do
              let r = primary.gen_request i in
              Sim.call sim ~mname:r.mname ~fname:r.fname
            done))
  in
  add "core.sim_ns_per_insn"
    (live_s *. 1e9 /. float_of_int (max 1 ((Sim.counters sim).instructions - insns)));
  add "core.snapshot_us"
    (Span.run "core.sim:Sim.snapshot" (fun () ->
         ns_per_op ~batches:5 ~n:(scale 20) (fun _ -> Sim.restore sim (Sim.snapshot sim)))
    /. 1e3);
  let calibrate_s, mean_service =
    Span.time (fun () ->
        Span.run "core.serve:Serve.calibrate_generate" (fun () ->
            Serve.calibrate_generate ~requests primary))
  in
  add "core.calibrate_s" calibrate_s;
  let cfg = { Serve.default_config with mode = Sim.Base; load = 1.0; requests; seed } in
  let cell_s, _ =
    Span.time (fun () ->
        Span.run "core.serve:Serve.run_cell_stream" (fun () ->
            Serve.run_cell_stream ~jobs:1 ~cfg primary))
  in
  add "core.passes_per_cell" (cell_s /. calibrate_s);

  (* serving: the queue engines over this trace's service times *)
  let m = Replay.make_machine ~mode:Sim.Base () in
  let c = cursor () in
  let services =
    Array.init n (fun r ->
        let before = (Kernel.counters m).cycles in
        Kernel.replay_request m c r;
        (Kernel.counters m).cycles - before)
  in
  add "core.serve.queue_ns_per_req"
    (Span.run "core.serve:Serve.run_queue" (fun () ->
         ns_per_op ~batches:5
           ~n:(max 1 (scale 200_000 / n))
           (fun _ ->
             ignore
               (Serve.run_queue ~cfg:{ cfg with requests = n } ~mean_service ~services)))
    /. float_of_int n);
  let pushes = scale 200_000 in
  add "core.serve.stream_push_ns"
    (Span.run "core.serve:Serve.stream_push" (fun () ->
         Stat.median
           (List.init 5 (fun _ ->
                let cfg = { cfg with requests = pushes; load = 0.9 } in
                let a = Serve.stream_accum primary ~requests:pushes in
                let q = Serve.stream_queue ~cfg ~mean_service ~sink:(Serve.accum_sink a) in
                let t0 = Span.now_ns () in
                for req = 0 to pushes - 1 do
                  Serve.stream_push q ~req ~service:services.(req mod n)
                done;
                float_of_int (Span.now_ns () - t0) /. float_of_int pushes))));
  let lat = Latency.create () in
  let samples = Array.init 4096 (fun i -> float_of_int services.(i mod n) /. 3e3) in
  add "stats.latency_record_ns"
    (Span.run "stats:Latency.record" (fun () ->
         ns_per_op ~n:(scale 200_000) (fun i -> Latency.record lat samples.(i land 4095))));
  let arrivals = Arrival.gen ~seed ~mean_gap:1000.0 Arrival.Poisson in
  add "util.arrival_ns"
    (Span.run "util:Arrival.next" (fun () ->
         ns_per_op ~n:(scale 200_000) (fun _ -> ignore (Arrival.next arrivals))));

  (* util: domain-pool dispatch, and its speed-up on replay items *)
  let items = List.init 256 Fun.id in
  add "util.dpool_map_us_per_item"
    (Span.run "util:Dpool.map" (fun () ->
         median_s 5 (fun () -> ignore (Dpool.map ~jobs:2 succ items)))
    *. 1e6 /. 256.0);
  let replays jobs () =
    Span.run "util:Dpool.map" (fun () ->
        ignore
          (Dpool.map ~jobs
             (fun _ -> Replay.replay_counters ~mode:Sim.Enhanced ~requests:n tr)
             [ 1; 2; 3; 4 ]))
  in
  add "util.dpool_speedup" (median_s 3 (replays 1) /. median_s 3 (replays 2));

  (* linker: runtime dlopen/dlclose of the churn plugins *)
  let scen = Dlink_workloads.Churn.scenario () in
  let mc = Churn.make_machine ~link_mode:Dlink_linker.Mode.Lazy_binding scen in
  let opens = ref [] and closes = ref [] in
  Span.run "linker:Dynload" (fun () ->
      for j = 0 to scale 200 - 1 do
        let t0 = Span.now_ns () in
        let h = Dynload.dlopen mc.dynload scen.plugins.(j mod Array.length scen.plugins) in
        let t1 = Span.now_ns () in
        Dynload.dlclose mc.dynload h;
        opens := float_of_int (t1 - t0) :: !opens;
        closes := float_of_int (Span.now_ns () - t1) :: !closes
      done);
  add "linker.dlopen_us" (Stat.median !opens /. 1e3);
  add "linker.dlclose_us" (Stat.median !closes /. 1e3);
  List.rev !out
