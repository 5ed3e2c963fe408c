open Dlink_mach
open Dlink_uarch
open Dlink_linker
module Skip = Dlink_pipeline.Skip
module Kernel = Dlink_pipeline.Kernel
module Churn = Dlink_core.Churn

type core_class = {
  c_mis_skips : int;
  c_lost_skips : int;
  c_stale_unload : int;
  c_timeout_degrades : int;
}

type report = {
  ops : int;
  churn_events : int;
  migrations : int;
  mis_skips : int;
  lost_skips : int;
  stale_unload : int;
  unclassified : int;
  skips : int;
  resolver_runs : int;
  faults_injected : int;
  stable_hits : int;
  stable_misses : int;
  bus_timeouts : int;
  per_core : core_class array;
  counters : Counters.t;
  divergences : Oracle.divergence list;
}

let max_recorded_divergences = 32

(* Divergences this many ops after a hazard-realised close are charged to
   the stale-unload bucket. *)
let hazard_window = 50

(* Differential churn run: the churn machine is the device under test,
   and a pure architectural interpreter over the same loaded image is the
   reference.  Every loader store lands in both memories (the machine's
   mirror) but retires through the dispatched kernel only — the reference
   has no microarchitecture to inform.  Divergences are classified
   against the dispatched core's skip unit and counters. *)
let run ?ucfg ?skip_cfg ?plan ?(cores = 1) ?quantum ?policy ~link_mode ~rate
    ~ops ~seed (s : Churn.scenario) =
  let plan = Option.value plan ~default:(Plan.empty 0) in
  let m =
    Churn.make_machine ?ucfg ?skip_cfg ~cores ?quantum ?policy ~link_mode s
  in
  let linked = m.Churn.linked and dut_p = m.Churn.process in
  let is_plt_entry = Loader.is_plt_entry linked in
  let ld_so =
    match Space.image_by_name linked.Loader.space Loader.ld_so_name with
    | Some img -> img
    | None -> invalid_arg "Churn_oracle.run: no dynamic-linker image"
  in
  let in_ld_so pc = Image.contains ld_so pc in

  (* Reference machine: pure architectural interpreter. *)
  let ref_col = Oracle.make_collector () in
  let ref_hooks =
    {
      Process.on_fetch_call = (fun ~pc:_ ~arch_target -> arch_target);
      on_retire =
        (fun ev -> Oracle.collector_on_retire ~is_plt_entry ~in_ld_so ref_col ev);
    }
  in
  let ref_p = Process.create ~hooks:ref_hooks linked in
  m.Churn.mirror := Some (Process.memory ref_p);
  let dut_col = Oracle.make_collector () in
  Array.iter
    (fun k ->
      Kernel.set_tap k
        (Some
           (fun ev ->
             Oracle.collector_on_retire ~is_plt_entry ~in_ld_so dut_col ev)))
    m.Churn.kernels;
  let inject = Inject.on_machine ~plan m in
  let rot = Churn.rotation m ~rate ~seed in

  let skips = Churn.skips m in
  let cur () = !(m.Churn.cur) in
  let unclassified = ref 0 in
  let stale_unload = Array.make cores 0 in
  let hazard_until = ref (-1) in
  let divergences = ref [] in
  let n_div = ref 0 in
  let ever_skipped = Hashtbl.create 64 in
  let record_div (d : Oracle.divergence) =
    if d.Oracle.request < !hazard_until then
      stale_unload.(cur ()) <- stale_unload.(cur ()) + 1;
    if !n_div < max_recorded_divergences then begin
      divergences := d :: !divergences;
      incr n_div
    end
  in
  let run_op r =
    Churn.dispatch m r;
    Inject.on_request inject r;
    (* Deferred invalidations from an Unload_inflight close land at the
       next op boundary — after the freed range may have been reused. *)
    Dynload.flush_pending m.Churn.dynload;
    let close h =
      if Inject.close inject m.Churn.dynload h then
        hazard_until := r + hazard_window
    in
    let addr = Churn.next ~close rot in
    Oracle.collector_reset ref_col;
    Oracle.collector_reset dut_col;
    (* An injected GOT rewrite corrupts the shared architectural state,
       so even the reference can land in a function that never returns
       to this frame; a bounded-fuel crash on either machine makes the
       op unclassifiable chaos rather than a hang. *)
    let ref_crashed =
      try
        Process.call ref_p ~fuel:Churn.call_fuel addr;
        false
      with Process.Fault _ -> true
    in
    let crashed =
      try
        Process.call dut_p ~fuel:Churn.call_fuel addr;
        false
      with Process.Fault _ | Skip.Misspeculation _ -> true
    in
    if ref_crashed || crashed then begin
      incr unclassified;
      Process.resync_arch dut_p ~from_:ref_p
    end
    else begin
      let tainted =
        Oracle.diff_request ~skip:skips.(cur ())
          ~counters:(Kernel.counters m.Churn.kernels.(cur ()))
          ~ever_skipped
          ~on_unclassified:(fun () -> incr unclassified)
          ~on_divergence:record_div ~request:r
          (Oracle.collector_records ref_col)
          (Oracle.collector_records dut_col)
      in
      if tainted then Process.resync_arch dut_p ~from_:ref_p
    end
  in
  for r = 0 to ops - 1 do
    run_op r
  done;
  Churn.quiesce m;
  Inject.detach inject;

  let per_core =
    Array.mapi
      (fun i k ->
        let c = Kernel.counters k in
        {
          c_mis_skips = c.Counters.mis_skips;
          c_lost_skips = c.Counters.lost_skips;
          c_stale_unload = stale_unload.(i);
          c_timeout_degrades = m.Churn.degrades.(i);
        })
      m.Churn.kernels
  in
  let sum = Counters.create () in
  Array.iter
    (fun k -> Counters.add ~into:sum (Kernel.counters k))
    m.Churn.kernels;
  let stats = Dynload.stats m.Churn.dynload in
  {
    ops;
    churn_events = Churn.churn_events rot;
    migrations = m.Churn.migrations;
    mis_skips = sum.Counters.mis_skips;
    lost_skips = sum.Counters.lost_skips;
    stale_unload = Array.fold_left ( + ) 0 stale_unload;
    unclassified = !unclassified;
    skips = sum.Counters.tramp_skips;
    resolver_runs = sum.Counters.resolver_runs;
    faults_injected = sum.Counters.fault_injected;
    stable_hits = stats.Dynload.stable_hits;
    stable_misses = stats.Dynload.stable_misses;
    bus_timeouts =
      (match m.Churn.bus with Some bus -> Coherence.timeouts bus | None -> 0);
    per_core;
    counters = sum;
    divergences = List.rev !divergences;
  }
