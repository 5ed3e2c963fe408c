(* Parameterized equivalence matrix for the unified pipeline kernel.

   The kernel (lib/pipeline) is parameterized over an event source — live
   workload generation vs a packed-trace cursor — and a topology — a
   single-process machine vs the ASID-tagged multi-core scheduler.  Each
   cell of this matrix runs the generate-mode driver and the replay
   driver for one topology and asserts every observable (counters,
   binding profiles, latencies, switches) is bit-identical.  Together the
   cells cover all four former execution paths (Experiment.run,
   Trace.Replay, Sched.Scheduler, Trace.Sched_replay) with one
   parameterized suite, replacing the per-path golden tests that
   predated the unification. *)

module Counters = Dlink_uarch.Counters
module Sim = Dlink_core.Sim
module Skip = Dlink_pipeline.Skip
module Experiment = Dlink_core.Experiment
module Registry = Dlink_workloads.Registry
module Scheduler = Dlink_sched.Scheduler
module Policy = Dlink_sched.Policy
module Quantum_sweep = Dlink_sched.Quantum_sweep
module Tcache = Dlink_trace.Cache
module Replay = Dlink_trace.Replay
module Sched_replay = Dlink_trace.Sched_replay

let wl name =
  match Registry.find name with
  | Some f -> f ()
  | None -> Alcotest.failf "unknown workload %s" name

let mode_name = function
  | Sim.Base -> "base"
  | Sim.Enhanced -> "enhanced"
  | Sim.Eager -> "eager"
  | Sim.Static -> "static"
  | Sim.Patched -> "patched"
  | Sim.Stable -> "stable"

let all_modes =
  [ Sim.Base; Sim.Enhanced; Sim.Eager; Sim.Static; Sim.Patched; Sim.Stable ]

let check_counters msg (a : Counters.t) (b : Counters.t) =
  if a <> b then
    Alcotest.failf "%s: counters differ@.generate: %a@.replay:   %a" msg
      Counters.pp a Counters.pp b

(* Everything in an [Experiment.run] except host wall-clock throughput
   must be bit-identical between the two event sources. *)
let check_run msg (a : Experiment.run) (b : Experiment.run) =
  let open Experiment in
  check_counters msg a.counters b.counters;
  Alcotest.(check string) (msg ^ ": workload") a.workload_name b.workload_name;
  Alcotest.(check int) (msg ^ ": requests") a.requests b.requests;
  Alcotest.(check int) (msg ^ ": tramp_calls") a.tramp_calls b.tramp_calls;
  Alcotest.(check int)
    (msg ^ ": distinct_trampolines")
    a.distinct_trampolines b.distinct_trampolines;
  Alcotest.(check bool)
    (msg ^ ": rank_frequency")
    true
    (a.rank_frequency = b.rank_frequency);
  Alcotest.(check bool)
    (msg ^ ": tramp_stream")
    true
    (a.tramp_stream = b.tramp_stream);
  Alcotest.(check bool)
    (msg ^ ": latencies_us")
    true
    (a.latencies_us = b.latencies_us)

(* --- single-process topology: Experiment.run vs Trace.Replay ----------- *)

(* One matrix cell: the same configuration driven once from the live
   workload generator and once from the packed-trace cursor. *)
let single_cell ?skip_cfg ?context_switch_every ?retain_asid ~mode msg w =
  let gen =
    Experiment.run ?skip_cfg ?context_switch_every ?retain_asid ~requests:40
      ~warmup:6 ~record_stream:true ~mode w
  in
  let rep =
    Replay.run ?skip_cfg ?context_switch_every ?retain_asid ~requests:40
      ~warmup:6 ~record_stream:true ~mode w
  in
  check_run msg gen rep

let test_single name () =
  Tcache.clear ();
  let w = wl name in
  List.iter
    (fun mode -> single_cell ~mode (Printf.sprintf "%s/%s" name (mode_name mode)) w)
    all_modes

(* Configuration variants exercise the kernel's instrumentation points:
   context switches (flush vs ASID retention), Bloom granularity and
   coherence modes, and a tiny set-associative ABTB. *)
let test_single_variants () =
  Tcache.clear ();
  let w = wl "synth" in
  single_cell ~context_switch_every:7 ~mode:Sim.Enhanced "switch/flush" w;
  single_cell ~context_switch_every:7 ~retain_asid:true ~mode:Sim.Enhanced
    "switch/retain" w;
  single_cell ~context_switch_every:5 ~mode:Sim.Base "switch/base" w;
  single_cell
    ~skip_cfg:
      {
        Skip.default_config with
        bloom_granularity = Skip.Slot;
        bloom_bits = 4096;
      }
    ~mode:Sim.Enhanced "slot-granularity bloom" w;
  single_cell
    ~skip_cfg:{ Skip.default_config with coherence = Skip.Explicit_invalidate }
    ~mode:Sim.Enhanced "explicit invalidate" w;
  single_cell
    ~skip_cfg:{ Skip.default_config with abtb_entries = 8; abtb_ways = Some 2 }
    ~mode:Sim.Enhanced "tiny set-associative abtb" w

let test_single_fallback () =
  Tcache.clear ();
  let w = wl "synth" in
  let cfg = { Skip.default_config with verify_targets = true } in
  Alcotest.(check bool)
    "verify_targets is not replayable" false
    (Replay.compatible ~skip_cfg:cfg ~mode:Sim.Enhanced ());
  Alcotest.(check bool)
    "no-filter-fallthrough is not replayable" false
    (Replay.compatible
       ~skip_cfg:{ Skip.default_config with filter_fallthrough = false }
       ~mode:Sim.Enhanced ());
  Alcotest.(check bool)
    "base always replayable" true
    (Replay.compatible ~skip_cfg:cfg ~mode:Sim.Base ());
  (* The fallback path must forward every parameter to Experiment.run. *)
  let gen =
    Experiment.run ~skip_cfg:cfg ~requests:30 ~warmup:4 ~mode:Sim.Enhanced w
  in
  let rep =
    Replay.run ~skip_cfg:cfg ~requests:30 ~warmup:4 ~mode:Sim.Enhanced w
  in
  check_run "fallback" gen rep;
  (match
     Replay.run ~skip_cfg:cfg ~aslr_seed:3 ~requests:10 ~mode:Sim.Enhanced w
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "aslr_seed with incompatible config should raise");
  (* ASLR-randomized replay is deterministic per seed. *)
  let a = Replay.run ~aslr_seed:11 ~requests:20 ~warmup:2 ~mode:Sim.Enhanced w in
  let b = Replay.run ~aslr_seed:11 ~requests:20 ~warmup:2 ~mode:Sim.Enhanced w in
  check_run "aslr determinism" a b;
  Alcotest.(check int) "aslr run length" 20 a.Experiment.requests

(* --- multi-core topology: Sched.Scheduler vs Trace.Sched_replay -------- *)

let multi_workloads () = [ wl "apache"; wl "memcached"; wl "synth" ]

let test_multi policy () =
  Tcache.clear ();
  let ws = multi_workloads () in
  let msg what = Printf.sprintf "%s under %s" what (Policy.to_string policy) in
  let sched = Scheduler.create ~requests:24 ~policy ~quantum:5 ~cores:2 ws in
  Scheduler.run sched;
  let pairs =
    List.map
      (fun w -> (w, Tcache.get ~warmup:0 ~requests:24 ~mode:Sim.Enhanced w))
      ws
  in
  let r = Sched_replay.run ~requests:24 ~policy ~quantum:5 ~cores:2 pairs in
  check_counters (msg "system counters")
    (Scheduler.system_counters sched)
    r.Sched_replay.system;
  Alcotest.(check int)
    (msg "switches")
    (Scheduler.switches sched)
    r.Sched_replay.switches;
  List.iter2
    (fun proc (pname, pc, lats) ->
      Alcotest.(check string) (msg "proc name") (Scheduler.name proc) pname;
      check_counters (msg ("proc " ^ pname)) (Scheduler.proc_counters proc) pc;
      Alcotest.(check bool)
        (msg ("latencies " ^ pname))
        true
        (Scheduler.latencies_us proc = lats))
    (Scheduler.procs sched) r.Sched_replay.per_proc

let test_multi_sweep () =
  Tcache.clear ();
  let ws = [ wl "synth"; wl "memcached" ] in
  let quanta = [ 2; 6 ] in
  let real =
    Quantum_sweep.sweep ~requests:20 ~cores:2 ~quanta ~policies:Policy.all ws
  in
  let rep =
    Sched_replay.sweep ~requests:20 ~cores:2 ~quanta ~policies:Policy.all ws
  in
  Alcotest.(check int) "points" (List.length real) (List.length rep);
  List.iter2
    (fun (a : Quantum_sweep.point) (b : Quantum_sweep.point) ->
      if a <> b then
        Alcotest.failf "sweep point differs at quantum %d / %s" a.quantum
          (Policy.to_string a.policy))
    real rep

(* --- cycle identity ------------------------------------------------------ *)

(* [Counters.cycles] has two writers, the engine's retire and the
   kernel's stale-prediction charge, and each charges one penalty per
   counted event.  So every cycle is one of the six terms below, exactly,
   in every cell. *)
let cycle_identity msg (p : Dlink_uarch.Config.penalties) (c : Counters.t) =
  let open Counters in
  let expected =
    c.instructions
    + (p.tlb_miss * (c.itlb_misses + c.dtlb_misses))
    + (p.l1_miss * (c.icache_misses + c.dcache_misses - c.l2_misses))
    + (p.l2_miss * c.l2_misses)
    + (p.mispredict * c.branch_mispredictions)
    + (p.btb_fill * c.btb_misses)
  in
  Alcotest.(check int) (msg ^ ": cycles") expected c.cycles

let penalties = Dlink_uarch.Config.xeon_e5450.Dlink_uarch.Config.penalties

let test_cycle_identity name () =
  let w = wl name in
  List.iter
    (fun mode ->
      let msg = name ^ "/" ^ mode_name mode in
      let live = Experiment.run ~requests:20 ~warmup:2 ~mode w in
      cycle_identity (msg ^ " live") penalties live.Experiment.counters;
      let rep = Replay.run ~requests:20 ~warmup:2 ~mode w in
      cycle_identity (msg ^ " replay") penalties rep.Experiment.counters)
    all_modes

let test_churn_cycle_identity () =
  let scen = Dlink_workloads.Churn.scenario () in
  List.iter
    (fun link_mode ->
      let c =
        Dlink_core.Churn.run_cell ~link_mode ~rate:300 ~calls:2000 ~seed:1 scen
      in
      cycle_identity
        ("churn " ^ Dlink_linker.Mode.to_string link_mode)
        penalties c.Dlink_core.Churn.counters)
    Dlink_linker.Mode.[ Lazy_binding; Eager_binding; Stable_linking ]

let () =
  Alcotest.run "pipeline"
    [
      ( "single topology",
        List.map
          (fun name ->
            Alcotest.test_case ("generate=replay " ^ name) `Quick
              (test_single name))
          Registry.names
        @ [
            Alcotest.test_case "variants" `Quick test_single_variants;
            Alcotest.test_case "fallback" `Quick test_single_fallback;
          ] );
      ( "multi topology",
        List.map
          (fun p ->
            Alcotest.test_case
              ("generate=replay " ^ Policy.to_string p)
              `Quick (test_multi p))
          Policy.all
        @ [ Alcotest.test_case "quantum sweep" `Quick test_multi_sweep ] );
      ( "cycle identity",
        List.map
          (fun name ->
            Alcotest.test_case name `Quick (test_cycle_identity name))
          Registry.names
        @ [ Alcotest.test_case "churn cells" `Quick test_churn_cycle_identity ]
      );
    ]
