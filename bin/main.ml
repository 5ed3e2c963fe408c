(* dlinksim — command-line driver for the dynamic-linking architecture
   simulator.

   Subcommands:
     run       run one workload under one mode and print counters
     compare   base vs enhanced vs patched for one workload
     sweep     Figure 5 ABTB-size sweep for one workload
     profile   Table 2/3 + Figure 4 opportunity profile
     memsave   §5.5 memory-overhead model
     multi     multi-process scheduler: flush vs ASID context switching
     fuzz      seeded fault-injection stress with a differential oracle
     churn     dlopen/dlclose rotation: clear rate, skip rate, stable linking
     serve     open-loop serving cells: offered load vs goodput and tail latency
     list      available workloads *)

module C = Dlink_uarch.Counters
module E = Dlink_core.Experiment
module Sim = Dlink_core.Sim
module Sweep = Dlink_core.Abtb_sweep
module Memsave = Dlink_core.Memory_savings
module Table = Dlink_util.Table
open Cmdliner

let fmt = Table.fmt_float

let workload_conv =
  let parse s =
    match Dlink_workloads.Registry.find s with
    | Some _ -> Ok s
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown workload %s (try: %s)" s
               (String.concat ", " Dlink_workloads.Registry.names)))
  in
  Arg.conv (parse, Format.pp_print_string)

(* Modes travel through cmdliner as plain strings and are validated in
   the actions: a typo'd name exits 2 with the full list, rather than the
   generic conversion-failure exit. *)
let resolve_mode s =
  match Sim.mode_of_string s with
  | Some m -> m
  | None ->
      Printf.eprintf "dlinksim: unknown mode %s (valid: %s)\n" s
        (String.concat ", " Sim.mode_names);
      exit 2

let workload_arg =
  Arg.(
    required
    & pos 0 (some workload_conv) None
    & info [] ~docv:"WORKLOAD" ~doc:"Workload name (see $(b,list)).")

let mode_arg =
  Arg.(
    value
    & opt string "base"
    & info [ "m"; "mode" ] ~docv:"MODE"
        ~doc:"Simulation mode: base, enhanced, eager, static, patched or stable.")

let requests_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "n"; "requests" ] ~docv:"N" ~doc:"Number of measured requests.")

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"SEED" ~doc:"Workload generator seed.")

let get_workload name seed =
  let gen = Option.get (Dlink_workloads.Registry.find name) in
  gen ?seed ()

let print_counters (c : C.t) =
  let t = Table.create ~headers:[ "Counter"; "total"; "PKI" ] in
  let row lbl v = Table.add_row t [ lbl; string_of_int v; fmt (C.pki c v) ] in
  Table.add_row t [ "instructions"; string_of_int c.C.instructions; "" ];
  Table.add_row t [ "cycles"; string_of_int c.C.cycles; "" ];
  Table.add_row t
    [
      "CPI";
      fmt ~decimals:3 (float_of_int c.C.cycles /. float_of_int (max 1 c.C.instructions));
      "";
    ];
  row "icache misses" c.C.icache_misses;
  row "dcache misses" c.C.dcache_misses;
  row "l2 misses" c.C.l2_misses;
  row "itlb misses" c.C.itlb_misses;
  row "dtlb misses" c.C.dtlb_misses;
  row "branches" c.C.branches;
  row "branch mispredictions" c.C.branch_mispredictions;
  row "btb fill bubbles" c.C.btb_misses;
  row "trampoline instructions" c.C.tramp_instructions;
  row "trampoline calls" c.C.tramp_calls;
  row "trampoline skips" c.C.tramp_skips;
  row "abtb clears" c.C.abtb_clears;
  row "got stores" c.C.got_stores;
  row "resolver runs" c.C.resolver_runs;
  row "mis skips" c.C.mis_skips;
  row "lost skips" c.C.lost_skips;
  row "quarantined sets" c.C.quarantine_entries;
  row "timeout degrades" c.C.timeout_degrades;
  row "faults injected" c.C.fault_injected;
  Table.print t

let counters_json (c : C.t) =
  let module J = Dlink_util.Json in
  J.Obj
    [
      ("instructions", J.Int c.C.instructions);
      ("cycles", J.Int c.C.cycles);
      ("icache_misses", J.Int c.C.icache_misses);
      ("dcache_misses", J.Int c.C.dcache_misses);
      ("l2_misses", J.Int c.C.l2_misses);
      ("itlb_misses", J.Int c.C.itlb_misses);
      ("dtlb_misses", J.Int c.C.dtlb_misses);
      ("branches", J.Int c.C.branches);
      ("branch_mispredictions", J.Int c.C.branch_mispredictions);
      ("btb_misses", J.Int c.C.btb_misses);
      ("tramp_instructions", J.Int c.C.tramp_instructions);
      ("tramp_calls", J.Int c.C.tramp_calls);
      ("tramp_skips", J.Int c.C.tramp_skips);
      ("abtb_hits", J.Int c.C.abtb_hits);
      ("abtb_inserts", J.Int c.C.abtb_inserts);
      ("abtb_clears", J.Int c.C.abtb_clears);
      ("abtb_false_clears", J.Int c.C.abtb_false_clears);
      ("coherence_invalidations", J.Int c.C.coherence_invalidations);
      ("got_stores", J.Int c.C.got_stores);
      ("resolver_runs", J.Int c.C.resolver_runs);
      ("mis_skips", J.Int c.C.mis_skips);
      ("lost_skips", J.Int c.C.lost_skips);
      ("quarantine_entries", J.Int c.C.quarantine_entries);
      ("timeout_degrades", J.Int c.C.timeout_degrades);
      ("fault_injected", J.Int c.C.fault_injected);
    ]

let run_cmd =
  let action name mode_str requests seed =
    let mode = resolve_mode mode_str in
    let w = get_workload name seed in
    (* Replays the cached packed trace (recording it on first use);
       counters are bit-identical to generate-mode execution. *)
    let run = Dlink_trace.Replay.run ?requests ?seed ~mode w in
    Printf.printf "workload=%s mode=%s requests=%d\n" name (Sim.mode_to_string mode)
      run.E.requests;
    print_counters run.E.counters;
    let t = Table.create ~headers:[ "Request type"; "count"; "mean us"; "p95 us" ] in
    Array.iter
      (fun (rt, samples) ->
        if Array.length samples > 0 then begin
          let s = Dlink_stats.Summary.of_array samples in
          Table.add_row t
            [
              rt;
              string_of_int (Array.length samples);
              fmt ~decimals:1 (Dlink_stats.Summary.mean s);
              fmt ~decimals:1 (Dlink_stats.Summary.percentile s 95.0);
            ]
        end)
      run.E.latencies_us;
    Table.print ~title:"Latencies" t
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one workload under one mode")
    Term.(const action $ workload_arg $ mode_arg $ requests_arg $ seed_arg)

let compare_cmd =
  let action name requests seed =
    let w = get_workload name seed in
    let runs =
      (* One packed trace serves Base and Enhanced; Patched records its
         own (different link image). *)
      List.map
        (fun mode -> (mode, Dlink_trace.Replay.run ?requests ?seed ~mode w))
        [ Sim.Base; Sim.Enhanced; Sim.Patched ]
    in
    let t =
      Table.create
        ~headers:
          ("Counter (PKI)" :: List.map (fun (m, _) -> Sim.mode_to_string m) runs)
    in
    let row lbl f =
      Table.add_row t (lbl :: List.map (fun (_, r) -> fmt (f r.E.counters)) runs)
    in
    row "trampoline instrs" (fun c -> C.pki c c.C.tramp_instructions);
    row "icache misses" (fun c -> C.pki c c.C.icache_misses);
    row "dcache misses" (fun c -> C.pki c c.C.dcache_misses);
    row "itlb misses" (fun c -> C.pki c c.C.itlb_misses);
    row "dtlb misses" (fun c -> C.pki c c.C.dtlb_misses);
    row "branch mispredictions" (fun c -> C.pki c c.C.branch_mispredictions);
    Table.print ~title:("Mode comparison: " ^ name) t;
    let base = List.assoc Sim.Base runs in
    List.iter
      (fun (m, r) ->
        if m <> Sim.Base then
          Printf.printf "%s cycle improvement over base: %s\n"
            (Sim.mode_to_string m)
            (Table.fmt_pct
               (float_of_int (base.E.counters.C.cycles - r.E.counters.C.cycles)
               /. float_of_int base.E.counters.C.cycles)))
      runs
  in
  Cmd.v (Cmd.info "compare" ~doc:"Compare base/enhanced/patched")
    Term.(const action $ workload_arg $ requests_arg $ seed_arg)

let sweep_cmd =
  let action name requests seed =
    let w = get_workload name seed in
    let run = E.run ?requests ~record_stream:true ~mode:Sim.Base w in
    let t = Table.create ~headers:[ "ABTB entries"; "% skipped" ] in
    List.iter
      (fun p ->
        Table.add_row t [ string_of_int p.Sweep.entries; fmt p.Sweep.skipped_pct ])
      (Sweep.sweep run.E.tramp_stream);
    Table.print ~title:("Figure 5 sweep: " ^ name) t
  in
  Cmd.v (Cmd.info "sweep" ~doc:"ABTB size sweep (Figure 5)")
    Term.(const action $ workload_arg $ requests_arg $ seed_arg)

let profile_cmd =
  let action name requests seed =
    let w = get_workload name seed in
    let run = E.run ?requests ~mode:Sim.Base w in
    Printf.printf "workload=%s\n" name;
    Printf.printf "trampoline instructions PKI (Table 2): %s\n"
      (fmt (E.tramp_pki run));
    Printf.printf "distinct trampolines (Table 3): %d\n" run.E.distinct_trampolines;
    Printf.printf "trampoline calls: %d\n" run.E.tramp_calls;
    let t = Table.create ~headers:[ "rank"; "calls" ] in
    List.iteri
      (fun i (rank, calls) ->
        if i < 10 || i mod 100 = 0 then
          Table.add_row t [ fmt ~decimals:0 rank; fmt ~decimals:0 calls ])
      run.E.rank_frequency;
    Table.print ~title:"Figure 4 rank-frequency (sampled)" t
  in
  Cmd.v (Cmd.info "profile" ~doc:"Opportunity profile (Tables 2-3, Figure 4)")
    Term.(const action $ workload_arg $ requests_arg $ seed_arg)

let memsave_cmd =
  let action name seed processes =
    let w = get_workload name seed in
    let sim = Sim.create ~mode:Sim.Patched w.Dlink_core.Workload.objs in
    let pages = Dlink_linker.Loader.patched_pages (Sim.linked sim) in
    Printf.printf "patched call sites: %d on %d pages\n"
      (List.length (Sim.linked sim).Dlink_linker.Loader.patch_sites)
      pages;
    let t =
      Table.create ~headers:[ "Strategy"; "copied pages"; "wasted MB" ]
    in
    List.iter
      (fun r ->
        Table.add_row t
          [
            Memsave.strategy_to_string r.Memsave.strategy;
            string_of_int r.Memsave.copied_pages_total;
            fmt (float_of_int r.Memsave.wasted_bytes /. 1048576.0);
          ])
      (Memsave.analyze_all ~patched_pages:pages ~processes);
    Table.print ~title:"Section 5.5 memory overhead" t
  in
  let processes =
    Arg.(value & opt int 450 & info [ "processes" ] ~doc:"Concurrent server processes.")
  in
  Cmd.v (Cmd.info "memsave" ~doc:"Memory-overhead model (Section 5.5)")
    Term.(const action $ workload_arg $ seed_arg $ processes)

let dump_cmd =
  let action name seed module_opt =
    let w = get_workload name seed in
    let linked =
      Dlink_linker.Loader.load_exn
        ~opts:
          {
            Dlink_linker.Loader.default_options with
            func_align = w.Dlink_core.Workload.func_align;
          }
        w.Dlink_core.Workload.objs
    in
    print_string (Dlink_linker.Dump.layout linked);
    match module_opt with
    | None -> ()
    | Some mname -> (
        match Dlink_linker.Space.image_by_name linked.Dlink_linker.Loader.space mname with
        | None -> Printf.eprintf "no module %s\n" mname
        | Some img ->
            print_newline ();
            print_string (Dlink_linker.Dump.disassemble_image ~max_insns:120 img);
            print_newline ();
            print_string (Dlink_linker.Dump.got_contents linked img))
  in
  let module_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "module" ] ~docv:"NAME" ~doc:"Also disassemble this module.")
  in
  Cmd.v (Cmd.info "dump" ~doc:"Memory map and disassembly of a loaded workload")
    Term.(const action $ workload_arg $ seed_arg $ module_arg)

let trace_cmd =
  let action name seed limit =
    let w = get_workload name seed in
    let linked =
      Dlink_linker.Loader.load_exn
        ~opts:
          {
            Dlink_linker.Loader.default_options with
            func_align = w.Dlink_core.Workload.func_align;
          }
        w.Dlink_core.Workload.objs
    in
    let printed = ref 0 in
    let hooks =
      {
        Dlink_mach.Process.default_hooks with
        on_retire =
          Dlink_mach.Event.boxed (fun ev ->
              if !printed < limit then begin
                incr printed;
                Format.printf "%a@." Dlink_mach.Event.pp ev
              end);
      }
    in
    let p = Dlink_mach.Process.create ~hooks linked in
    let req = w.Dlink_core.Workload.gen_request 0 in
    let addr =
      Option.get
        (Dlink_linker.Loader.func_addr linked ~mname:req.Dlink_core.Workload.mname
           ~fname:req.Dlink_core.Workload.fname)
    in
    Dlink_mach.Process.call p addr;
    Printf.printf "(request retired %d instructions; %d shown)\n"
      (Dlink_mach.Process.retired p) !printed
  in
  let limit_arg =
    Arg.(value & opt int 100 & info [ "limit" ] ~docv:"N" ~doc:"Events to print.")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Print the first retired instructions of a request")
    Term.(const action $ workload_arg $ seed_arg $ limit_arg)

let mix_conv =
  let parse s =
    let names = String.split_on_char ',' s in
    let bad =
      List.filter (fun n -> Dlink_workloads.Registry.find n = None) names
    in
    if names = [] || bad <> [] then
      Error
        (`Msg
          (Printf.sprintf "unknown workload(s) %s (try: %s)"
             (String.concat ", " bad)
             (String.concat ", " Dlink_workloads.Registry.names)))
    else Ok names
  in
  Arg.conv (parse, fun ppf l -> Format.pp_print_string ppf (String.concat "," l))

let policy_conv =
  let parse s =
    match Dlink_sched.Policy.of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg ("unknown policy " ^ s ^ " (flush, asid, asid-shared-guard)"))
  in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf (Dlink_sched.Policy.to_string p))

let multi_cmd =
  let module Sched = Dlink_sched.Scheduler in
  let module Qs = Dlink_sched.Quantum_sweep in
  let action mix policy quantum cores requests seed sweep jobs =
    if quantum <= 0 then begin
      prerr_endline "dlinksim: --quantum must be positive";
      exit 2
    end;
    if cores <= 0 then begin
      prerr_endline "dlinksim: --cores must be positive";
      exit 2
    end;
    (match jobs with
    | Some j when j <= 0 ->
        prerr_endline "dlinksim: --jobs must be positive";
        exit 2
    | _ -> ());
    let workloads = List.map (fun n -> get_workload n seed) mix in
    if sweep then begin
      (* Each workload is recorded once, then every (quantum, policy)
         combination replays the packed traces — across --jobs domains
         when given.  Points are identical to [Qs.sweep]. *)
      let points =
        Dlink_trace.Sched_replay.sweep ?requests ?jobs ~cores
          ~policies:Dlink_sched.Policy.all workloads
      in
      Table.print
        ~title:(Printf.sprintf "Quantum sweep: %s on %d core(s)"
                  (String.concat "+" mix) cores)
        (Qs.table points);
      print_newline ();
      print_string (Qs.plot points)
    end
    else begin
      let sched = Sched.create ?requests ~policy ~quantum ~cores workloads in
      Sched.run sched;
      Printf.printf "mix=%s policy=%s quantum=%d cores=%d switches=%d\n"
        (String.concat "+" mix)
        (Dlink_sched.Policy.to_string policy)
        quantum (Sched.n_cores sched) (Sched.switches sched);
      let t =
        Table.create
          ~headers:
            [
              "pid"; "workload"; "requests"; "quanta"; "skip %"; "CPI";
              "abtb clears"; "mean us"; "p95 us";
            ]
      in
      List.iter
        (fun p ->
          let c = Sched.proc_counters p in
          let s = Dlink_stats.Summary.of_array (Sched.latencies_us p) in
          Table.add_row t
            [
              string_of_int (Sched.pid p);
              Sched.name p;
              string_of_int (Sched.requests_done p);
              string_of_int (Sched.quanta p);
              fmt
                (100.0 *. float_of_int c.C.tramp_skips
                /. float_of_int (max 1 c.C.tramp_calls));
              fmt ~decimals:3
                (float_of_int c.C.cycles /. float_of_int (max 1 c.C.instructions));
              string_of_int c.C.abtb_clears;
              fmt ~decimals:1 (Dlink_stats.Summary.mean s);
              fmt ~decimals:1 (Dlink_stats.Summary.percentile s 95.0);
            ])
        (Sched.procs sched);
      Table.print ~title:"Per-process" t;
      print_newline ();
      print_counters (Sched.system_counters sched);
      let sys = Sched.system_counters sched in
      if sys.C.coherence_invalidations > 0 then
        Printf.printf "coherence invalidations: %d\n" sys.C.coherence_invalidations
    end
  in
  let mix_arg =
    Arg.(
      required
      & pos 0 (some mix_conv) None
      & info [] ~docv:"MIX" ~doc:"Comma-separated workload mix, e.g. apache,memcached,mysql.")
  in
  let policy_arg =
    Arg.(
      value
      & opt policy_conv Dlink_sched.Policy.Flush
      & info [ "p"; "policy" ] ~docv:"POLICY"
          ~doc:"Context-switch policy: flush, asid or asid-shared-guard.")
  in
  let quantum_arg =
    Arg.(
      value
      & opt int 10
      & info [ "q"; "quantum" ] ~docv:"Q" ~doc:"Scheduling quantum in requests.")
  in
  let cores_arg =
    Arg.(
      value
      & opt int 1
      & info [ "cores" ] ~docv:"N" ~doc:"Number of simulated cores.")
  in
  let sweep_arg =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:"Run the flush-vs-ASID quantum sweep instead of a single run.")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Domains for $(b,--sweep): each (quantum, policy) point \
             replays the cached traces in parallel.")
  in
  Cmd.v
    (Cmd.info "multi" ~doc:"Multi-process scheduling: flush vs ASID-tagged ABTB")
    Term.(
      const action $ mix_arg $ policy_arg $ quantum_arg $ cores_arg
      $ requests_arg $ seed_arg $ sweep_arg $ jobs_arg)

let fuzz_cmd =
  let module F = Dlink_fault.Fuzz in
  let module P = Dlink_fault.Plan in
  let module O = Dlink_fault.Oracle in
  let action name seed budget faults plan_str cooldown window json_path =
    if budget <= 0 then begin
      prerr_endline "dlinksim: --budget must be positive";
      exit 2
    end;
    if faults < 0 then begin
      prerr_endline "dlinksim: --faults must be non-negative";
      exit 2
    end;
    if window < 0 then begin
      prerr_endline "dlinksim: --window must be non-negative";
      exit 2
    end;
    let w = get_workload name (Some seed) in
    let skip_cfg =
      { Dlink_pipeline.Skip.default_config with quarantine_window = window }
    in
    let plan =
      match plan_str with
      | None -> P.generate ~seed ~budget ~faults ()
      | Some s -> (
          match P.of_string s with
          | Ok p -> p
          | Error e ->
              Printf.eprintf "dlinksim: bad --plan: %s\n" e;
              exit 2)
    in
    let t = F.trial ~skip_cfg ?cooldown ~workload:w ~budget plan in
    let r = t.F.report in
    Printf.printf "workload=%s seed=%d budget=%d cooldown=%d events=%d\n" name
      seed budget r.O.cooldown_requests
      (List.length plan.P.events);
    Printf.printf "plan: %s\n" (P.to_string plan);
    let tbl = Table.create ~headers:[ "Oracle"; "count" ] in
    let row lbl v = Table.add_row tbl [ lbl; string_of_int v ] in
    row "requests" (r.O.requests + r.O.cooldown_requests);
    row "faults injected" r.O.faults_injected;
    row "trampoline skips" r.O.skips;
    row "mis skips" r.O.mis_skips;
    row "lost skips" r.O.lost_skips;
    row "unclassified" r.O.unclassified;
    row "quarantined sets" r.O.quarantine_entries;
    row "cooldown skips" r.O.cooldown_skips;
    row "cooldown mis skips" r.O.cooldown_mis_skips;
    Table.print tbl;
    List.iter
      (fun (d : O.divergence) ->
        Printf.printf "%s request %d: site %s tramp %s ref->%s dut->%s\n"
          (if d.O.mis_skip then "mis-skip" else "unclassified")
          d.O.request
          (Dlink_isa.Addr.to_hex d.O.site)
          (Dlink_isa.Addr.to_hex d.O.arch_target)
          (Dlink_isa.Addr.to_hex d.O.ref_dest)
          (Dlink_isa.Addr.to_hex d.O.dut_dest))
      r.O.divergences;
    let shrunk =
      if t.F.failures = [] then None
      else Some (F.shrink ~skip_cfg ?cooldown ~workload:w ~budget t)
    in
    (match json_path with
    | None -> ()
    | Some path ->
        let module J = Dlink_util.Json in
        J.write_file path
          (J.Obj
             [
               ("workload", J.String name);
               ("seed", J.Int seed);
               ("budget", J.Int budget);
               ("cooldown", J.Int r.O.cooldown_requests);
               ("plan", J.String (P.to_string plan));
               ( "failures",
                 J.List (List.map (fun f -> J.String f) t.F.failures) );
               ( "minimal_plan",
                 match shrunk with
                 | None -> J.Null
                 | Some s -> J.String (P.to_string s.F.plan) );
               ("mis_skips", J.Int r.O.mis_skips);
               ("lost_skips", J.Int r.O.lost_skips);
               ("unclassified", J.Int r.O.unclassified);
               ("quarantine_entries", J.Int r.O.quarantine_entries);
               ("cooldown_skips", J.Int r.O.cooldown_skips);
               ("cooldown_mis_skips", J.Int r.O.cooldown_mis_skips);
               ("counters", counters_json r.O.counters);
             ]));
    match t.F.failures with
    | [] ->
        if r.O.mis_skips > 0 then
          Printf.printf
            "ok: %d mis-skip(s) detected, quarantined, and recovered from\n"
            r.O.mis_skips
        else print_endline "ok: all robustness properties hold"
    | failures ->
        List.iter (fun f -> Printf.printf "FAIL: %s\n" f) failures;
        (match shrunk with
        | Some s ->
            Printf.printf "minimal failing plan (%d of %d events): %s\n"
              (List.length s.F.plan.P.events)
              (List.length plan.P.events)
              (P.to_string s.F.plan);
            let window_flag =
              if
                window
                = Dlink_pipeline.Skip.default_config
                    .Dlink_pipeline.Skip.quarantine_window
              then ""
              else Printf.sprintf " --window %d" window
            in
            Printf.printf
              "replay with: dlinksim fuzz %s --budget %d%s --plan '%s'\n" name
              budget window_flag
              (P.to_string s.F.plan)
        | None -> ());
        exit 1
  in
  let fuzz_workload_arg =
    Arg.(
      value
      & pos 0 workload_conv "synth"
      & info [] ~docv:"WORKLOAD"
          ~doc:"Workload name (see $(b,list)); defaults to $(b,synth).")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Plan and workload seed.")
  in
  let budget_arg =
    Arg.(
      value & opt int 200
      & info [ "budget" ] ~docv:"N" ~doc:"Requests executed under fault injection.")
  in
  let faults_arg =
    Arg.(
      value & opt int 8
      & info [ "faults" ] ~docv:"N" ~doc:"Fault events drawn into the plan.")
  in
  let plan_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:"Replay an explicit fault plan (seed=S;AT:ACTION;...) instead of generating one.")
  in
  let cooldown_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "cooldown" ] ~docv:"N"
          ~doc:"Fault-free recovery requests after the budget (default max 50 budget/4).")
  in
  let window_arg =
    Arg.(
      value
      & opt int Dlink_pipeline.Skip.default_config.Dlink_pipeline.Skip.quarantine_window
      & info [ "window" ] ~docv:"N"
          ~doc:"Quarantine window: skip opportunities suppressed per quarantined ABTB set.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the outcome as JSON.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Randomized fault injection checked by a differential oracle")
    Term.(
      const action $ fuzz_workload_arg $ seed_arg $ budget_arg $ faults_arg
      $ plan_arg $ cooldown_arg $ window_arg $ json_arg)

let churn_cmd =
  let module Ch = Dlink_core.Churn in
  let module CO = Dlink_fault.Churn_oracle in
  let module Mode = Dlink_linker.Mode in
  (* Only PLT-routed modes have runtime churn to measure: static and
     patched lower imports to direct calls at load time, which a module
     mapped after load cannot use. *)
  let churn_modes = [ "lazy"; "eager"; "stable" ] in
  let action rates_str modes_str calls seed check json_path =
    if calls <= 0 then begin
      prerr_endline "dlinksim: --calls must be positive";
      exit 2
    end;
    let rates =
      List.map
        (fun s ->
          match int_of_string_opt (String.trim s) with
          | Some r when r >= 0 && r <= 1000 -> r
          | _ ->
              Printf.eprintf
                "dlinksim: bad --rates entry %s (want integers in 0..1000)\n"
                (String.trim s);
              exit 2)
        (String.split_on_char ',' rates_str)
    in
    let modes =
      List.map
        (fun s ->
          let s = String.trim s in
          match Mode.of_string s with
          | Some m when List.mem s churn_modes -> m
          | Some _ ->
              Printf.eprintf
                "dlinksim: link mode %s has no runtime churn (valid: %s)\n" s
                (String.concat ", " churn_modes);
              exit 2
          | None ->
              Printf.eprintf "dlinksim: unknown link mode %s (valid: %s)\n" s
                (String.concat ", " churn_modes);
              exit 2)
        (String.split_on_char ',' modes_str)
    in
    let scen = Dlink_workloads.Churn.scenario ~seed () in
    let cells =
      List.concat_map
        (fun m ->
          List.map
            (fun rate -> Ch.run_cell ~link_mode:m ~rate ~calls ~seed scen)
            rates)
        modes
    in
    let t =
      Table.create
        ~headers:
          [
            "mode"; "rate"; "churn"; "opens"; "closes"; "rebinds";
            "stable hit/miss"; "resolver runs"; "clears/1k"; "skip rate";
            "sim MIPS";
          ]
    in
    List.iter
      (fun (c : Ch.cell) ->
        Table.add_row t
          [
            Mode.to_string c.Ch.link_mode;
            string_of_int c.Ch.rate;
            string_of_int c.Ch.churn_events;
            string_of_int c.Ch.opens;
            string_of_int c.Ch.closes;
            string_of_int c.Ch.rebinds;
            Printf.sprintf "%d/%d" c.Ch.stable_hits c.Ch.stable_misses;
            string_of_int c.Ch.counters.C.resolver_runs;
            fmt (Ch.clear_rate c);
            fmt ~decimals:3 (Ch.skip_rate c);
            fmt ~decimals:1 c.Ch.sim_mips;
          ])
      cells;
    Table.print
      ~title:
        (Printf.sprintf "Module churn: %d calls, seed %d (rate = events/1000 calls)"
           calls seed)
      t;
    (match json_path with
    | None -> ()
    | Some path ->
        let module J = Dlink_util.Json in
        let cell_json (c : Ch.cell) =
          J.Obj
            [
              ("link_mode", J.String (Mode.to_string c.Ch.link_mode));
              ("rate", J.Int c.Ch.rate);
              ("calls", J.Int c.Ch.calls);
              ("churn_events", J.Int c.Ch.churn_events);
              ("opens", J.Int c.Ch.opens);
              ("closes", J.Int c.Ch.closes);
              ("rebinds", J.Int c.Ch.rebinds);
              ("stable_hits", J.Int c.Ch.stable_hits);
              ("stable_misses", J.Int c.Ch.stable_misses);
              ("resolver_runs", J.Int c.Ch.counters.C.resolver_runs);
              ("abtb_clears", J.Int c.Ch.counters.C.abtb_clears);
              ("clear_rate", J.Float (Ch.clear_rate c));
              ("skip_rate", J.Float (Ch.skip_rate c));
              ("sim_mips", J.Float c.Ch.sim_mips);
              ("counters", counters_json c.Ch.counters);
            ]
        in
        let doc =
          J.Obj
            [
              ("workload", J.String Dlink_workloads.Churn.name);
              ("calls", J.Int calls);
              ("seed", J.Int seed);
              ("cells", J.List (List.map cell_json cells));
            ]
        in
        if path = "-" then print_endline (J.to_string doc)
        else J.write_file path doc);
    if check then begin
      let orate =
        match List.fold_left max 0 rates with 0 -> 200 | r -> r
      in
      let bad = ref false in
      List.iter
        (fun m ->
          let r =
            CO.run ~link_mode:m ~rate:orate ~ops:(min calls 1500) ~seed scen
          in
          Printf.printf
            "oracle %-6s churn=%d skips=%d resolver=%d mis=%d lost=%d \
             unclassified=%d\n"
            (Mode.to_string m) r.CO.churn_events r.CO.skips r.CO.resolver_runs
            r.CO.mis_skips r.CO.lost_skips r.CO.unclassified;
          if r.CO.mis_skips > 0 || r.CO.unclassified > 0 then bad := true)
        modes;
      if !bad then begin
        prerr_endline
          "dlinksim: churn oracle diverged under a fault-free plan";
        exit 1
      end
      else print_endline "ok: churn oracle clean in every requested mode"
    end
  in
  let rates_arg =
    Arg.(
      value
      & opt string "0,100,300"
      & info [ "rates" ] ~docv:"R1,R2,.."
          ~doc:"Churn rates to sweep, in events per 1000 calls.")
  in
  let modes_arg =
    Arg.(
      value
      & opt string "lazy,eager,stable"
      & info [ "modes" ] ~docv:"M1,M2,.."
          ~doc:"Link modes to sweep: lazy, eager or stable.")
  in
  let calls_arg =
    Arg.(
      value & opt int 2000
      & info [ "calls" ] ~docv:"N" ~doc:"Measured plugin calls per cell.")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED" ~doc:"Scenario and rotation seed.")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Also run the differential churn oracle (fault-free plan) in \
             every requested mode and fail on any divergence.")
  in
  let json_arg =
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write cells as JSON to FILE ($(b,-) or bare flag: stdout).")
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:"dlopen/dlclose churn sweep: ABTB clears vs skips vs throughput")
    Term.(
      const action $ rates_arg $ modes_arg $ calls_arg $ seed_arg $ check_arg
      $ json_arg)

let soak_cmd =
  let module Soak = Dlink_fault.Soak in
  let module Plan = Dlink_fault.Plan in
  let module Mode = Dlink_linker.Mode in
  let module Policy = Dlink_pipeline.Policy in
  let soak_modes = [ "lazy"; "eager"; "stable" ] in
  let action cores quantum policy_str mode_str rate ops events seed seeds jobs
      faults plan_str check json_path repro_path =
    if cores <= 0 then begin
      prerr_endline "dlinksim: --cores must be positive";
      exit 2
    end;
    if quantum <= 0 then begin
      prerr_endline "dlinksim: --quantum must be positive";
      exit 2
    end;
    if rate < 0 || rate > 1000 then begin
      prerr_endline "dlinksim: --rate must be in 0..1000";
      exit 2
    end;
    if seeds <= 0 then begin
      prerr_endline "dlinksim: --seeds must be positive";
      exit 2
    end;
    (match jobs with
    | Some j when j <= 0 ->
        prerr_endline "dlinksim: --jobs must be positive";
        exit 2
    | _ -> ());
    let policy =
      match Policy.of_string policy_str with
      | Some p -> p
      | None ->
          Printf.eprintf "dlinksim: unknown policy %s (valid: %s)\n" policy_str
            (String.concat ", " (List.map Policy.to_string Policy.all));
          exit 2
    in
    let link_mode =
      match Mode.of_string mode_str with
      | Some m when List.mem mode_str soak_modes -> m
      | Some _ ->
          Printf.eprintf
            "dlinksim: link mode %s has no runtime churn (valid: %s)\n" mode_str
            (String.concat ", " soak_modes);
          exit 2
      | None ->
          Printf.eprintf "dlinksim: unknown link mode %s (valid: %s)\n" mode_str
            (String.concat ", " soak_modes);
          exit 2
    in
    let plan_for seed =
      match (plan_str, faults) with
      | Some s, _ -> (
          match Plan.of_string s with
          | Ok p -> p
          | Error e ->
              Printf.eprintf "dlinksim: bad --plan: %s\n" e;
              exit 2)
      | None, 0 -> Plan.empty 0
      | None, f ->
          Plan.generate ~coherence:true ~churn:true ~seed ~budget:ops ~faults:f
            ()
    in
    (* A soak run is inherently sequential (one shared bus, RNG drawn in
       lock-step with the crosscheck), so parallelism comes from running
       independent seeds — one domain each — rather than from inside a
       run. *)
    let run_one seed =
      let plan = plan_for seed in
      let scen = Dlink_workloads.Churn.scenario ~seed () in
      let params =
        {
          Soak.default_params with
          Soak.cores;
          quantum;
          policy;
          link_mode;
          rate;
          ops;
          min_instructions = events;
          seed;
        }
      in
      (seed, plan, scen, params, Soak.run ~plan params scen)
    in
    let jobs = Option.value jobs ~default:1 in
    let results =
      Dlink_util.Dpool.map ~jobs run_one (List.init seeds (fun i -> seed + i))
    in
    let json_docs = ref [] in
    let any_failed = ref false in
    let report (seed, plan, scen, params, r) =
    Printf.printf
      "soak cores=%d quantum=%d policy=%s mode=%s rate=%d seed=%d\n" cores
      quantum (Policy.to_string policy) (Mode.to_string link_mode) rate seed;
    Printf.printf
      "  ops=%d churn=%d migrations=%d instructions=%d crashes=%d\n" r.Soak.ops
      r.Soak.churn_events r.Soak.migrations r.Soak.counters.C.instructions
      r.Soak.crashes;
    Printf.printf
      "  invariants: checks=%d violations=%d (unmapped=%d stale-skip=%d \
       stale-msg=%d) aba-recovered=%d\n"
      r.Soak.checks r.Soak.violations r.Soak.fetch_unmapped r.Soak.stale_skips
      r.Soak.stale_messages r.Soak.aba_discards;
    Printf.printf
      "  bus: published=%d acked=%d dropped=%d retries=%d reorders=%d \
       timeouts=%d stale-discards=%d\n"
      r.Soak.bus.Soak.published r.Soak.bus.Soak.acked r.Soak.bus.Soak.dropped
      r.Soak.bus.Soak.retries r.Soak.bus.Soak.reorders r.Soak.bus.Soak.timeouts
      r.Soak.bus.Soak.stale_discards;
    Printf.printf
      "  dynload: opens=%d closes=%d rebinds=%d grace-unmaps=%d \
       forced-unmaps=%d\n"
      r.Soak.opens r.Soak.closes r.Soak.rebinds r.Soak.grace_unmaps
      r.Soak.forced_unmaps;
    List.iter
      (fun v ->
        Printf.printf "  violation: %s\n"
          (Dlink_fault.Invariant.violation_to_string v))
      r.Soak.recorded;
    print_counters r.Soak.counters;
    (match json_path with
    | None -> ()
    | Some _ ->
        let module J = Dlink_util.Json in
        let doc =
          J.Obj
            [
              ("cores", J.Int cores);
              ("quantum", J.Int quantum);
              ("policy", J.String (Policy.to_string policy));
              ("link_mode", J.String (Mode.to_string link_mode));
              ("rate", J.Int rate);
              ("seed", J.Int seed);
              ("plan", J.String (Plan.to_string plan));
              ("ops", J.Int r.Soak.ops);
              ("churn_events", J.Int r.Soak.churn_events);
              ("migrations", J.Int r.Soak.migrations);
              ("crashes", J.Int r.Soak.crashes);
              ("checks", J.Int r.Soak.checks);
              ("violations", J.Int r.Soak.violations);
              ("fetch_unmapped", J.Int r.Soak.fetch_unmapped);
              ("stale_skips", J.Int r.Soak.stale_skips);
              ("stale_messages", J.Int r.Soak.stale_messages);
              ("aba_discards", J.Int r.Soak.aba_discards);
              ("bus_published", J.Int r.Soak.bus.Soak.published);
              ("bus_acked", J.Int r.Soak.bus.Soak.acked);
              ("bus_dropped", J.Int r.Soak.bus.Soak.dropped);
              ("bus_retries", J.Int r.Soak.bus.Soak.retries);
              ("bus_reorders", J.Int r.Soak.bus.Soak.reorders);
              ("bus_timeouts", J.Int r.Soak.bus.Soak.timeouts);
              ("bus_stale_discards", J.Int r.Soak.bus.Soak.stale_discards);
              ("grace_unmaps", J.Int r.Soak.grace_unmaps);
              ("forced_unmaps", J.Int r.Soak.forced_unmaps);
              ("counters", counters_json r.Soak.counters);
            ]
        in
        json_docs := (Printf.sprintf "seed_%d" seed, doc) :: !json_docs);
    if check then begin
      let failures = Soak.check ~plan r in
      let cross_ok =
        match Soak.crosscheck params scen with
        | Ok () ->
            print_endline "ok: cores=1 soak bit-identical to churn cell";
            true
        | Error e ->
            prerr_endline ("dlinksim: " ^ e);
            false
      in
      (* Any violating run — caught fault class or genuine property
         breakage — yields a minimal replayable plan; the exit code only
         reflects the properties, since caught violations under a seeded
         plan are the checker doing its job. *)
      if Soak.failed ~plan r then begin
        let small, rs = Soak.shrink params ~plan scen in
        let repro = Plan.to_string small in
        Printf.printf "shrunk reproducer (%d violations): %s\n"
          rs.Soak.violations repro;
        match repro_path with
        | Some path ->
            let oc = open_out path in
            output_string oc (repro ^ "\n");
            close_out oc
        | None -> ()
      end;
      if failures <> [] || not cross_ok then begin
        List.iter
          (fun f -> Printf.eprintf "dlinksim: soak property failed: %s\n" f)
          failures;
        any_failed := true
      end
      else print_endline "ok: all soak properties hold"
    end
    in
    List.iter report results;
    (match json_path with
    | None -> ()
    | Some path ->
        let module J = Dlink_util.Json in
        let doc =
          (* Single seed keeps the flat report shape; a seed sweep nests
             one report per seed. *)
          match List.rev !json_docs with
          | [ (_, d) ] when seeds = 1 -> d
          | docs -> J.Obj docs
        in
        if path = "-" then print_endline (J.to_string doc)
        else J.write_file path doc);
    if !any_failed then exit 1
  in
  let cores_arg =
    Arg.(
      value & opt int 4
      & info [ "cores" ] ~docv:"N" ~doc:"Pipeline kernels to migrate over.")
  in
  let quantum_arg =
    Arg.(
      value & opt int 64
      & info [ "quantum" ] ~docv:"OPS" ~doc:"Ops per scheduling quantum.")
  in
  let policy_arg =
    Arg.(
      value
      & opt string "asid-shared-guard"
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:"Context-switch policy: flush, asid or asid-shared-guard.")
  in
  let mode_arg =
    Arg.(
      value & opt string "lazy"
      & info [ "mode" ] ~docv:"MODE" ~doc:"Link mode: lazy, eager or stable.")
  in
  let rate_arg =
    Arg.(
      value & opt int 300
      & info [ "rate" ] ~docv:"R" ~doc:"Churn events per 1000 ops.")
  in
  let ops_arg =
    Arg.(
      value & opt int 10_000
      & info [ "ops" ] ~docv:"N" ~doc:"Minimum plugin calls to soak.")
  in
  let events_arg =
    Arg.(
      value & opt int 0
      & info [ "events" ] ~docv:"N"
          ~doc:
            "Keep soaking until at least N instructions have retired \
             system-wide (0: stop at --ops).")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED" ~doc:"Scenario, rotation and plan seed.")
  in
  let seeds_arg =
    Arg.(
      value & opt int 1
      & info [ "seeds" ] ~docv:"N"
          ~doc:
            "Soak N consecutive seeds (starting at --seed), one \
             independent run each.")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Run the seed sweep across N domains (default 1).")
  in
  let faults_arg =
    Arg.(
      value & opt int 0
      & info [ "faults" ] ~docv:"N"
          ~doc:
            "Generate a fault plan with N random events (coherence and \
             churn classes included); ignored when --plan is given.")
  in
  let plan_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:"Replay a serialized fault plan (e.g. a shrunk reproducer).")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Verify soak safety properties and the cores=1 bit-identity \
             crosscheck; on failure, shrink the plan to a minimal \
             reproducer and exit 1.")
  in
  let json_arg =
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the report as JSON to FILE ($(b,-) or bare flag: stdout).")
  in
  let repro_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "reproducer" ] ~docv:"FILE"
          ~doc:"With --check: write the shrunk reproducer plan to FILE.")
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Multi-core churn soak: invariant checking under coherence faults")
    Term.(
      const action $ cores_arg $ quantum_arg $ policy_arg $ mode_arg $ rate_arg
      $ ops_arg $ events_arg $ seed_arg $ seeds_arg $ jobs_arg $ faults_arg
      $ plan_arg $ check_arg $ json_arg $ repro_arg)

let serve_cmd =
  let module Serve = Dlink_core.Serve in
  let module Arrival = Dlink_util.Arrival in
  let module J = Dlink_util.Json in
  (* Largest single cell served through the packed-trace replay path;
     beyond it the streaming generate driver runs the cell without ever
     recording a trace. *)
  let trace_cell_cap = 20_000 in
  (* Every axis value is validated up front with the full list of valid
     spellings — a typo'd load or arrival exits 2, never a stack trace. *)
  let parse_load s =
    match float_of_string_opt (String.trim s) with
    | Some l when Float.is_finite l && l > 0.0 -> l
    | _ ->
        Printf.eprintf
          "dlinksim: bad load %s (want a positive real fraction of base \
           capacity, e.g. 0.9)\n"
          (String.trim s);
        exit 2
  in
  let parse_arrival s =
    match Arrival.of_string s with
    | Some a -> a
    | None ->
        Printf.eprintf "dlinksim: unknown arrival process %s (valid: %s)\n" s
          (String.concat ", " Arrival.names);
        exit 2
  in
  let parse_flush s =
    match Serve.flush_of_string (String.trim s) with
    | Some f -> f
    | None ->
        Printf.eprintf "dlinksim: unknown flush policy %s (valid: %s)\n"
          (String.trim s)
          (String.concat ", " Serve.flush_names);
        exit 2
  in
  let action name mode_str load loads_str arrival_str queue_cap requests
      flush_str flush_every seed sweep modes_str flushes_str jobs hist json_path
      =
    if queue_cap <= 0 then begin
      prerr_endline "dlinksim: --queue-cap must be positive";
      exit 2
    end;
    if flush_every <= 0 then begin
      prerr_endline "dlinksim: --flush-every must be positive";
      exit 2
    end;
    (match requests with
    | Some n when n < 0 ->
        prerr_endline "dlinksim: --requests must be non-negative";
        exit 2
    | _ -> ());
    (match jobs with
    | Some j when j <= 0 ->
        prerr_endline "dlinksim: --jobs must be positive";
        exit 2
    | _ -> ());
    let arrival = parse_arrival arrival_str in
    let w = get_workload name seed in
    let cell_seed = Option.value seed ~default:Serve.default_config.Serve.seed in
    let requests =
      Option.value requests ~default:Serve.default_config.Serve.requests
    in
    let cfg =
      {
        Serve.default_config with
        Serve.arrival;
        queue_cap;
        requests;
        flush_every;
        seed = cell_seed;
      }
    in
    let cells =
      if sweep then
        let split s = String.split_on_char ',' s in
        let loads = List.map parse_load (split loads_str) in
        let modes = List.map resolve_mode (split modes_str) in
        let flushes = List.map parse_flush (split flushes_str) in
        Dlink_trace.Serve_replay.sweep ?jobs ~cfg ~loads ~modes ~flushes w
      else
        let cfg =
          {
            cfg with
            Serve.mode = resolve_mode mode_str;
            load = parse_load load;
            flush = parse_flush flush_str;
          }
        in
        (* Million-request cells never materialize a packed trace (its
           event stream would dwarf the cell itself): beyond the trace
           cap the live executor runs the cell, buffering only its
           8 B-per-request service vector. *)
        if requests > trace_cell_cap then [ Serve.run_cell_stream ?jobs ~cfg w ]
        else [ Dlink_trace.Serve_replay.run_cell ?jobs ~cfg w ]
    in
    let mean_service =
      match cells with
      | c :: _ -> c.Serve.mean_service_cycles
      | [] -> 0
    in
    Printf.printf
      "workload=%s requests=%d queue_cap=%d seed=%d mean_service=%d cycles\n"
      name requests queue_cap cell_seed mean_service;
    let t =
      Table.create
        ~headers:
          [
            "mode"; "arrival"; "flush"; "load"; "served"; "drops";
            "offered r/s"; "goodput r/s"; "util"; "p50 us"; "p99 us";
            "p999 us";
          ]
    in
    List.iter
      (fun (c : Serve.cell) ->
        Table.add_row t
          [
            Sim.mode_to_string c.Serve.cfg.Serve.mode;
            Arrival.to_string c.Serve.cfg.Serve.arrival;
            Serve.flush_to_string c.Serve.cfg.Serve.flush;
            fmt c.Serve.cfg.Serve.load;
            string_of_int c.Serve.served;
            string_of_int c.Serve.dropped;
            fmt ~decimals:0 c.Serve.offered_rps;
            fmt ~decimals:0 c.Serve.goodput_rps;
            fmt ~decimals:3 c.Serve.util;
            fmt ~decimals:1 c.Serve.p50_us;
            fmt ~decimals:1 c.Serve.p99_us;
            fmt ~decimals:1 c.Serve.p999_us;
          ])
      cells;
    Table.print ~title:("Open-loop serving: " ^ name) t;
    (if not sweep then
       match cells with
       | [ c ] ->
           let rt =
             Table.create ~headers:[ "request type"; "served"; "mean us"; "p99 us" ]
           in
           Array.iter
             (fun (s : Serve.rtype_stats) ->
               if s.Serve.rt_served > 0 then
                 Table.add_row rt
                   [
                     s.Serve.rt_name;
                     string_of_int s.Serve.rt_served;
                     fmt ~decimals:1 s.Serve.rt_mean_us;
                     fmt ~decimals:1 s.Serve.rt_p99_us;
                   ])
             c.Serve.by_rtype;
           Table.print ~title:"Per request type" rt
       | _ -> ());
    match json_path with
    | None -> ()
    | Some path ->
        let doc =
          J.Obj
            [
              ("workload", J.String name);
              ("requests", J.Int requests);
              ("queue_cap", J.Int queue_cap);
              ("seed", J.Int cell_seed);
              ("mean_service_cycles", J.Int mean_service);
              ("cells", J.List (List.map (Serve.cell_json ~hist) cells));
            ]
        in
        if path = "-" then print_endline (J.to_string doc)
        else J.write_file path doc
  in
  let load_arg =
    Arg.(
      value & opt string "0.8"
      & info [ "load" ] ~docv:"L"
          ~doc:"Offered load as a fraction of base-mode capacity (single cell).")
  in
  let loads_arg =
    Arg.(
      value
      & opt string "0.5,0.7,0.85,0.95,1.05"
      & info [ "loads" ] ~docv:"L1,L2,.."
          ~doc:"Offered loads to sweep (with $(b,--sweep)).")
  in
  let arrival_arg =
    Arg.(
      value & opt string "poisson"
      & info [ "arrival" ] ~docv:"PROC"
          ~doc:
            "Arrival process: poisson, mmpp (bursty), or closed:C (closed \
             loop with C clients thinking between completions).")
  in
  let queue_cap_arg =
    Arg.(
      value
      & opt int Serve.default_config.Serve.queue_cap
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:"Admission queue bound; arrivals beyond it are dropped.")
  in
  let flush_arg =
    Arg.(
      value & opt string "none"
      & info [ "flush" ] ~docv:"POLICY"
          ~doc:"Flush policy between requests: none, flush or asid (single cell).")
  in
  let flushes_arg =
    Arg.(
      value & opt string "none"
      & info [ "flushes" ] ~docv:"P1,P2,.."
          ~doc:"Flush policies to sweep (with $(b,--sweep)).")
  in
  let flush_every_arg =
    Arg.(
      value
      & opt int Serve.default_config.Serve.flush_every
      & info [ "flush-every" ] ~docv:"K"
          ~doc:"Apply the flush policy every K requests of the stream.")
  in
  let sweep_arg =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:"Sweep $(b,--modes) x $(b,--flushes) x $(b,--loads) instead of one cell.")
  in
  let modes_arg =
    Arg.(
      value & opt string "base,enhanced"
      & info [ "modes" ] ~docv:"M1,M2,.."
          ~doc:"Link modes to sweep (with $(b,--sweep)).")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Domains for the execution passes: a single cell's calibration \
             and measured passes, or a $(b,--sweep)'s one pass per (mode, \
             flush) pair; every load is then folded over its pass's \
             service times.  Results are bit-identical regardless of N.")
  in
  let hist_arg =
    Arg.(
      value & flag
      & info [ "hist" ]
          ~doc:"Include the log-bucket latency histogram in $(b,--json) output.")
  in
  let json_arg =
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write cells as JSON to FILE ($(b,-) or bare flag: stdout).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Open-loop serving: offered load vs goodput and tail latency")
    Term.(
      const action $ workload_arg $ mode_arg $ load_arg $ loads_arg
      $ arrival_arg $ queue_cap_arg $ requests_arg $ flush_arg
      $ flush_every_arg $ seed_arg $ sweep_arg $ modes_arg $ flushes_arg
      $ jobs_arg $ hist_arg $ json_arg)

let list_cmd =
  let action () =
    List.iter print_endline Dlink_workloads.Registry.names
  in
  Cmd.v (Cmd.info "list" ~doc:"List available workloads") Term.(const action $ const ())

let version = "0.10.0"

let () =
  let doc = "Simulator for 'Architectural Support for Dynamic Linking' (ASPLOS'15)" in
  let group =
    Cmd.group
      (Cmd.info "dlinksim" ~version ~doc)
      [
        run_cmd;
        compare_cmd;
        sweep_cmd;
        profile_cmd;
        memsave_cmd;
        multi_cmd;
        fuzz_cmd;
        churn_cmd;
        serve_cmd;
        soak_cmd;
        dump_cmd;
        trace_cmd;
        list_cmd;
      ]
  in
  (* No uncaught exceptions reach the user: anything a bad flag combination
     can provoke becomes a one-line message and a non-zero exit. *)
  let code =
    try Cmd.eval ~catch:false group with
    | Invalid_argument msg | Failure msg | Sys_error msg ->
        Printf.eprintf "dlinksim: %s\n" msg;
        2
    | Dlink_mach.Process.Fault msg ->
        Printf.eprintf "dlinksim: machine fault: %s\n" msg;
        2
    | Dlink_pipeline.Skip.Misspeculation msg ->
        Printf.eprintf "dlinksim: misspeculation: %s\n" msg;
        2
  in
  exit code
