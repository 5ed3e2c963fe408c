module Sim = Dlink_core.Sim
module Skip = Dlink_pipeline.Skip
module Profile = Dlink_pipeline.Profile
module Kernel = Dlink_pipeline.Kernel
module Workload = Dlink_core.Workload
module Experiment = Dlink_core.Experiment
module Config = Dlink_uarch.Config
module Counters = Dlink_uarch.Counters

(* Replay-compatibility: the packed trace records the lazy-binding
   architectural stream, and the enhanced replay relies on two invariants —
   an ABTB entry implies its GOT slot is bound (so the traced continuation
   after a redirected call is exactly one in_plt indirect jump), and skips
   are never verified against live GOT contents (replay has none).
   [filter_fallthrough = false] breaks the first (the resolver's first
   execution inserts an entry mapping the trampoline to its own unbound
   fall-through), [verify_targets] the second.  Non-enhanced modes replay
   unconditionally. *)
let compatible ?skip_cfg ~mode () =
  match mode with
  | Sim.Enhanced ->
      let cfg = Option.value skip_cfg ~default:Skip.default_config in
      cfg.Skip.filter_fallthrough && not cfg.Skip.verify_targets
  | Sim.Base | Sim.Eager | Sim.Static | Sim.Patched | Sim.Stable -> true

(* One core's replay state is simply a pipeline kernel driven by the
   cursor event source; GOT reads resolve to 0 (the replay convention —
   see [compatible]). *)
type machine = Kernel.t

let make_machine ?ucfg ?skip_cfg ~mode () =
  Kernel.create ?ucfg ?skip_cfg ~with_skip:(mode = Sim.Enhanced) ()

let check_requests tr n =
  if n > Trace.measured_requests tr then
    invalid_arg
      (Printf.sprintf "Replay: trace has %d measured requests, %d wanted"
         (Trace.measured_requests tr) n)

(* Counters-only replay: no profile, no latency buckets — the
   allocation-free inner loop used by the throughput microbenchmark and
   the GC spot-check. *)
let replay_counters ?ucfg ?skip_cfg ~mode ~requests:n tr =
  check_requests tr n;
  let m = make_machine ?ucfg ?skip_cfg ~mode () in
  let c = Trace.Cursor.create tr in
  let warmup = Trace.warmup tr in
  for r = 0 to warmup - 1 do
    Kernel.replay_request m c r
  done;
  let snapshot = Counters.copy (Kernel.counters m) in
  for i = 0 to n - 1 do
    Kernel.replay_request m c (warmup + i)
  done;
  Counters.diff ~after:(Kernel.counters m) ~before:snapshot

(* Full replay producing the same Experiment.run a generate-mode run
   would.  The profile attaches to the kernel only after warmup, matching
   [Sim.mark_measurement_start]'s reset. *)
let replay ?ucfg ?skip_cfg ?(record_stream = false) ?context_switch_every
    ?(retain_asid = false) ~mode ~requests:n (w : Workload.t) tr =
  check_requests tr n;
  let m = make_machine ?ucfg ?skip_cfg ~mode () in
  let profile = Profile.create ~record_stream () in
  let c = Trace.Cursor.create tr in
  let warmup = Trace.warmup tr in
  for r = 0 to warmup - 1 do
    Kernel.note_boundary m ~rtype:(Trace.request_rtype tr r);
    Kernel.replay_request m c r
  done;
  Kernel.set_profile m (Some profile);
  let counters = Kernel.counters m in
  let snapshot = Counters.copy counters in
  let t0 = Unix.gettimeofday () in
  let buckets = Array.map (fun _ -> ref []) w.Workload.request_type_names in
  for i = 0 to n - 1 do
    (match context_switch_every with
    | Some k when k > 0 && i > 0 && i mod k = 0 ->
        Kernel.context_switch ~retain_asid m
    | _ -> ());
    let before = counters.Counters.cycles in
    let r = warmup + i in
    Kernel.note_boundary m ~rtype:(Trace.request_rtype tr r);
    Kernel.replay_request m c r;
    let us = Workload.cycles_to_us w (counters.Counters.cycles - before) in
    let b = buckets.(Trace.request_rtype tr r) in
    b := us :: !b
  done;
  let wall_s = Unix.gettimeofday () -. t0 in
  let counters = Counters.diff ~after:counters ~before:snapshot in
  {
    Experiment.mode;
    workload_name = w.Workload.wname;
    counters;
    latencies_us =
      Array.mapi
        (fun i name -> (name, Array.of_list (List.rev !(buckets.(i)))))
        w.Workload.request_type_names;
    tramp_calls = Profile.tramp_calls profile;
    distinct_trampolines = Profile.distinct_trampolines profile;
    rank_frequency = Profile.rank_frequency profile;
    tramp_stream = Profile.stream profile;
    requests = n;
    wall_s;
    sim_mips =
      Experiment.mips ~instructions:counters.Counters.instructions ~wall_s;
  }

(* Drop-in Experiment.run replacement: fetch (or record) the cached trace
   and replay it; fall back to generate-mode execution for configurations
   the replay invariants exclude. *)
let run ?ucfg ?skip_cfg ?requests ?warmup ?(record_stream = false)
    ?context_switch_every ?(retain_asid = false) ?seed ?aslr_seed ~mode
    (w : Workload.t) =
  if not (compatible ?skip_cfg ~mode ()) then begin
    if aslr_seed <> None then
      invalid_arg "Replay.run: aslr_seed requires a replay-compatible config";
    Experiment.run ?ucfg ?skip_cfg ?requests ?warmup ~record_stream
      ?context_switch_every ~retain_asid ~mode w
  end
  else begin
    let n = Option.value requests ~default:w.Workload.default_requests in
    let tr = Cache.get ?seed ?aslr_seed ?warmup ~requests:n ~mode w in
    replay ?ucfg ?skip_cfg ~record_stream ?context_switch_every ~retain_asid
      ~mode ~requests:n w tr
  end
