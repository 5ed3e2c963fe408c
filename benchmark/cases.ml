(* The four benchmark workloads.  Each one builds its inputs from the
   benchmark seed in [prepare] (the set-up the benchmark times as
   [setup_s]), and [rep] makes one repetition of its driver calls, the
   unit the benchmark times as useful work.  A repetition returns a
   canonical rendering of every simulated value it produced, so the
   benchmark can check outputs exactly, plus the checks that hold for any
   seed: invariants between the cells, and an oracle that recomputes one
   cell on an independent execution path. *)

module C = Dlink_uarch.Counters
module Sim = Dlink_core.Sim
module E = Dlink_core.Experiment
module Serve = Dlink_core.Serve
module Churn = Dlink_core.Churn
module Workload = Dlink_core.Workload
module Tcache = Dlink_trace.Cache
module Replay = Dlink_trace.Replay
module Serve_replay = Dlink_trace.Serve_replay
module Sched_replay = Dlink_trace.Sched_replay
module Qs = Dlink_sched.Quantum_sweep
module Policy = Dlink_sched.Policy
module Mode = Dlink_linker.Mode
module W = Dlink_workloads

type result = {
  outputs : (string * string) list;
      (** cell label, canonical rendering of the cell's simulated values *)
  instructions : int;  (** measured-window instructions over all cells *)
  counters : C.t;  (** summed over the cells that report full counters *)
  switches : int;  (** scheduler context switches *)
  checks : unit -> (string * bool) list;  (** invariants and oracle *)
  notes : (string * float) list;  (** accuracy against the paper *)
}

type prepared = {
  rep : unit -> result;
  primary : Workload.t;  (** the workload the layer probes run on *)
  probe_requests : int;
}

type t = { name : string; prepare : smoke:bool -> seed:int -> prepared }

(* Domains every driver call uses.  On a shared 2-CPU box a second
   domain competes with the rest of the host, and its timings repeated
   worst. *)
let jobs = 1

(* The seed picks which window of each application's request stream the
   client sends: request [i] becomes request [i + seed * stride] (warmup
   requests, which use negative indices, shift the other way).  The
   application binaries stay the paper's, so simulated figures stay
   comparable to its tables across seeds.  The stride is a multiple of
   every workload's housekeeping cadence, which keeps housekeeping
   requests at the same positions. *)
let stride = 1_000_000

let seeded ~seed name =
  let w = (Option.get (W.Registry.find name)) ?seed:None () in
  let off = seed * stride in
  {
    w with
    Workload.gen_request =
      (fun i -> w.Workload.gen_request (if i >= 0 then i + off else i - off));
  }

(* ------------------------------------------------------------------ *)
(* Canonical renderings: every simulated value, floats in hex so they
   compare bit for bit; host-time fields are left out. *)

let fl = Printf.sprintf "%h"
let ints l = String.concat "," (List.map string_of_int l)

let counters_str (c : C.t) =
  ints
    [
      c.instructions; c.cycles; c.icache_misses; c.dcache_misses; c.l2_misses;
      c.itlb_misses; c.dtlb_misses; c.branches; c.branch_mispredictions;
      c.btb_misses; c.tramp_instructions; c.tramp_calls; c.tramp_skips;
      c.abtb_hits; c.abtb_inserts; c.abtb_clears; c.abtb_false_clears;
      c.coherence_invalidations; c.got_stores; c.resolver_runs; c.mis_skips;
      c.lost_skips; c.quarantine_entries; c.timeout_degrades; c.fault_injected;
    ]

let run_str (r : E.run) =
  String.concat ";"
    [
      Sim.mode_to_string r.mode;
      r.workload_name;
      counters_str r.counters;
      String.concat "|"
        (Array.to_list
           (Array.map
              (fun (n, a) ->
                n ^ ":" ^ String.concat "," (Array.to_list (Array.map fl a)))
              r.latencies_us));
      ints [ r.tramp_calls; r.distinct_trampolines; r.requests ];
      String.concat ","
        (List.map (fun (a, b) -> fl a ^ "/" ^ fl b) r.rank_frequency);
    ]

(* [segments] is left out: it is the shape the driver chose to execute
   the cell in, not a simulated value. *)
let cell_str (c : Serve.cell) =
  String.concat ";"
    [
      Serve.cell_label c;
      c.workload_name;
      ints [ c.mean_service_cycles; c.served; c.dropped; c.lat_fingerprint ];
      String.concat ","
        (List.map fl
           [
             c.offered_rps; c.goodput_rps; c.util; c.span_us; c.mean_us;
             c.p50_us; c.p99_us; c.p999_us; c.mean_wait_us;
           ]);
      String.concat "|"
        (Array.to_list
           (Array.map
              (fun (r : Serve.rtype_stats) ->
                Printf.sprintf "%s:%d:%s:%s" r.rt_name r.rt_served
                  (fl r.rt_mean_us) (fl r.rt_p99_us))
              c.by_rtype));
      counters_str c.counters;
    ]

let churn_label (c : Churn.cell) =
  Printf.sprintf "churn/%s/r%d" (Mode.to_string c.link_mode) c.rate

let churn_str (c : Churn.cell) =
  String.concat ";"
    [
      churn_label c;
      ints
        [
          c.calls; c.churn_events; c.opens; c.closes; c.rebinds; c.stable_hits;
          c.stable_misses;
        ];
      counters_str c.counters;
    ]

let point_label (p : Qs.point) =
  Printf.sprintf "sched/%s/q%d" (Policy.to_string p.policy) p.quantum

let point_str (p : Qs.point) =
  String.concat ";"
    [
      point_label p;
      fl p.skip_pct;
      fl p.cpi;
      ints
        [
          p.cycles; p.instructions; p.abtb_clears; p.coherence_invalidations;
          p.switches;
        ];
    ]

let sum_counters cs =
  let into = C.create () in
  List.iter (fun c -> C.add ~into c) cs;
  into

(* ------------------------------------------------------------------ *)

(* Table 2 of the paper: trampoline instructions per kilo-instruction. *)
let paper_tramp_pki = [ ("apache", 12.23); ("memcached", 1.75); ("mysql", 5.56) ]

(* The replay path behind every paper table: trace decode, kernel retire
   and uarch lookups, with no live interpretation and no queueing.  Each
   application replays its trace in base and enhanced mode; the two modes
   share the trace. *)
let paper_replay =
  {
    name = "paper_replay";
    prepare =
      (fun ~smoke ~seed ->
        let counts =
          if smoke then [ ("apache", 4); ("memcached", 4); ("mysql", 2) ]
          else [ ("apache", 200); ("memcached", 250); ("mysql", 40) ]
        in
        let warmup = if smoke then Some 2 else None in
        let ws =
          Span.run "workloads:build" (fun () ->
              List.map (fun (n, k) -> (seeded ~seed n, k)) counts)
        in
        List.iter
          (fun (w, k) ->
            Span.run "trace:Cache.get" (fun () ->
                ignore (Tcache.get ~seed ?warmup ~requests:k ~mode:Sim.Base w)))
          ws;
        let rep () =
          let pairs =
            List.map
              (fun (w, k) ->
                let run mode =
                  Span.run "trace:Replay.run" (fun () ->
                      Replay.run ~seed ?warmup ~requests:k ~mode w)
                in
                let base = run Sim.Base in
                (w, k, base, run Sim.Enhanced))
              ws
          in
          let runs = List.concat_map (fun (_, _, b, e) -> [ b; e ]) pairs in
          let checks () =
            List.concat_map
              (fun ((w : Workload.t), k, (b : E.run), (e : E.run)) ->
                let bc = b.counters and ec = e.counters in
                (* Live execution of a prefix of the same requests must
                   retire exactly what the trace replays. *)
                let o = min k 10 in
                let live = E.run ?warmup ~requests:o ~mode:Sim.Enhanced w in
                let replayed =
                  Replay.replay ~requests:o ~mode:Sim.Enhanced w
                    (Tcache.get ~seed ?warmup ~requests:k ~mode:Sim.Base w)
                in
                let name = w.wname in
                [
                  (name ^ ": same trampoline calls in both modes",
                    bc.tramp_calls = ec.tramp_calls );
                  (name ^ ": base mode skips nothing", bc.tramp_skips = 0);
                  ( name ^ ": skips remove only trampoline instructions",
                    bc.instructions - ec.instructions
                    = bc.tramp_instructions - ec.tramp_instructions );
                  ( name ^ ": live prefix equals its replay",
                    run_str live = run_str replayed );
                ])
              pairs
          in
          let errs =
            List.map
              (fun ((w : Workload.t), _, b, _) ->
                let paper = List.assoc w.wname paper_tramp_pki in
                Float.abs (E.tramp_pki b -. paper) /. paper)
              pairs
          in
          {
            outputs =
              List.map
                (fun (r : E.run) ->
                  (r.workload_name ^ "/" ^ Sim.mode_to_string r.mode, run_str r))
                runs;
            instructions =
              List.fold_left (fun a (r : E.run) -> a + r.counters.instructions) 0 runs;
            counters = sum_counters (List.map (fun (r : E.run) -> r.counters) runs);
            switches = 0;
            checks;
            notes =
              [
                ( "paper_tramp_pki_err_pct",
                  100.0 *. List.fold_left ( +. ) 0.0 errs
                  /. float_of_int (List.length errs) );
              ];
          }
        in
        let primary, _ = List.hd ws in
        { rep; primary; probe_requests = (if smoke then 4 else 100) });
  }

let serve_result cells ~checks =
  {
    outputs = List.map (fun c -> (Serve.cell_label c, cell_str c)) cells;
    instructions =
      List.fold_left (fun a (c : Serve.cell) -> a + c.counters.instructions) 0 cells;
    counters = sum_counters (List.map (fun (c : Serve.cell) -> c.counters) cells);
    switches = 0;
    checks;
    notes = [];
  }

let conserved (c : Serve.cell) =
  (Serve.cell_label c ^ ": served + dropped = requests",
    c.served + c.dropped = c.cfg.requests )

(* Open-loop serving: one trace replayed per cell, plus a calibration
   pass, through the queue engine and Arrival, at three loads x two modes
   x two flush policies. *)
let serve_sweep =
  {
    name = "serve_sweep";
    prepare =
      (fun ~smoke ~seed ->
        let w = Span.run "workloads:build" (fun () -> seeded ~seed "memcached") in
        let cfg =
          { Serve.default_config with requests = (if smoke then 20 else 150); seed }
        in
        (* The key [Serve_replay] itself asks for: no seed, default warmup. *)
        Span.run "trace:Cache.get" (fun () ->
            ignore (Tcache.get ~requests:cfg.requests ~mode:Sim.Base w));
        let rep () =
          let cells =
            Span.run "trace:Serve_replay.sweep" (fun () ->
                Serve_replay.sweep ~jobs ~cfg
                  ~loads:[ 0.7; 1.0; 1.3 ]
                  ~modes:[ Sim.Base; Sim.Enhanced ]
                  ~flushes:[ Serve.No_flush; Serve.Flush ] w)
          in
          let checks () =
            (* Service times do not depend on load, so the cells of one
               (mode, flush) pair execute identically. *)
            let same_work =
              List.map
                (fun (c : Serve.cell) ->
                  ( Serve.cell_label c ^ ": same execution at every load",
                    List.for_all
                      (fun (d : Serve.cell) ->
                        d.cfg.mode <> c.cfg.mode || d.cfg.flush <> c.cfg.flush
                        || counters_str d.counters = counters_str c.counters)
                      cells ))
                cells
            in
            let probe =
              List.find
                (fun (c : Serve.cell) ->
                  c.cfg.mode = Sim.Enhanced && c.cfg.flush = Serve.Flush
                  && c.cfg.load = 1.3)
                cells
            in
            let live =
              Serve.run_cell_generate ~mean_service:probe.mean_service_cycles
                ~cfg:probe.cfg w
            in
            List.map conserved cells @ same_work
            @ [
                ( Serve.cell_label probe ^ ": live execution equals replay",
                  cell_str live = cell_str probe );
              ]
          in
          serve_result cells ~checks
        in
        { rep; primary = w; probe_requests = (if smoke then 4 else 100) });
  }

(* The live interpreter and the snapshot-segmented streaming cell, with
   no trace recorded: one long base-mode cell at the load-1.0 knee. *)
let serve_stream =
  {
    name = "serve_stream";
    prepare =
      (fun ~smoke ~seed ->
        let w = Span.run "workloads:build" (fun () -> seeded ~seed "synth") in
        let cfg =
          {
            Serve.default_config with
            mode = Sim.Base;
            load = 1.0;
            queue_cap = 64;
            requests = (if smoke then 300 else 15_000);
            seed;
          }
        in
        let rep () =
          let cell =
            Span.run "core.serve:Serve.run_cell_stream" (fun () ->
                Serve.run_cell_stream ~jobs ~cfg w)
          in
          let checks () =
            let replayed = Serve_replay.run_cell ~cfg w in
            [
              conserved cell;
              ( Serve.cell_label cell ^ ": trace replay equals the live stream",
                cell_str replayed = cell_str cell );
            ]
          in
          serve_result [ cell ] ~checks
        in
        { rep; primary = w; probe_requests = (if smoke then 40 else 2000) });
  }

(* The write side of the same tables: dlopen/dlclose churn whose GOT
   stores hit the Bloom filter and flash-clear the ABTB, resolver runs,
   and a flush/ASID scheduler sweep whose context switches clear them
   too.  A change that speeds lookups but slows clears shows here. *)
let invalidate =
  {
    name = "invalidate";
    prepare =
      (fun ~smoke ~seed ->
        let scen = Span.run "workloads:build" (fun () -> W.Churn.scenario ()) in
        let ws =
          Span.run "workloads:build" (fun () ->
              List.map (seeded ~seed) [ "apache"; "memcached"; "mysql" ])
        in
        let calls = if smoke then 200 else 5000 in
        let requests = if smoke then 2 else 20 in
        (* The key [Sched_replay] itself asks for: no seed, warmup 0. *)
        List.iter
          (fun w ->
            Span.run "trace:Cache.get" (fun () ->
                ignore (Tcache.get ~warmup:0 ~requests ~mode:Sim.Enhanced w)))
          ws;
        let rep () =
          let cells =
            List.concat_map
              (fun link_mode ->
                List.map
                  (fun rate ->
                    Span.run "core.churn:Churn.run_cell" (fun () ->
                        Churn.run_cell ~link_mode ~rate ~calls ~seed scen))
                  [ 100; 300 ])
              [ Mode.Lazy_binding; Mode.Eager_binding; Mode.Stable_linking ]
          in
          let points =
            Span.run "trace:Sched_replay.sweep" (fun () ->
                Sched_replay.sweep ~mode:Sim.Enhanced ~requests ~jobs
                  ~policies:[ Policy.Flush; Policy.Asid ] ~quanta:[ 1; 2; 5 ] ws)
          in
          let checks () =
            let churn =
              List.concat_map
                (fun (c : Churn.cell) ->
                  let l = churn_label c in
                  [
                    ( l ^ ": every churn event closes one plugin and opens one",
                      c.closes = c.churn_events && c.opens = c.churn_events );
                    ( l ^ ": snapshots only under stable linking",
                      c.link_mode = Mode.Stable_linking
                      || c.stable_hits + c.stable_misses = 0 );
                  ])
                cells
            in
            let live =
              Qs.sweep ~mode:Sim.Enhanced ~requests ~jobs
                ~policies:[ Policy.Flush ] ~quanta:[ 2 ] ws
            in
            churn
            @ List.map
                (fun (p : Qs.point) ->
                  ( point_label p ^ ": live scheduler equals replay",
                    List.exists (fun q -> point_str q = point_str p) points ))
                live
          in
          {
            outputs =
              List.map (fun c -> (churn_label c, churn_str c)) cells
              @ List.map (fun p -> (point_label p, point_str p)) points;
            instructions =
              List.fold_left
                (fun a (c : Churn.cell) -> a + c.counters.instructions)
                0 cells
              + List.fold_left (fun a (p : Qs.point) -> a + p.instructions) 0 points;
            counters = sum_counters (List.map (fun (c : Churn.cell) -> c.counters) cells);
            switches = List.fold_left (fun a (p : Qs.point) -> a + p.switches) 0 points;
            checks;
            notes = [];
          }
        in
        { rep; primary = List.hd ws; probe_requests = (if smoke then 4 else 100) });
  }

let all = [ paper_replay; serve_sweep; serve_stream; invalidate ]
