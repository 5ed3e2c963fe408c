(* Benchmark harness: regenerates every table and figure of
   "Architectural Support for Dynamic Linking" (ASPLOS 2015), prints
   paper-reported values next to simulated ones, runs the ablation studies
   called out in DESIGN.md, and finishes with Bechamel microbenchmarks of
   the core structures.

   Modes reported:
   - base      : conventional lazy dynamic linking;
   - enhanced  : the proposed ABTB/Bloom hardware, simulated faithfully
                 (BTB-gated skips, stale-prediction squashes);
   - patched   : the paper's own evaluation methodology (§4): call sites
                 rewritten to direct calls at load time.  The paper's
                 "Enhanced" measurements correspond to this mode. *)

module C = Dlink_uarch.Counters
module Cfg = Dlink_uarch.Config
module E = Dlink_core.Experiment
module Sim = Dlink_core.Sim
module Skip = Dlink_pipeline.Skip
module Sweep = Dlink_core.Abtb_sweep
module Memsave = Dlink_core.Memory_savings
module Profile = Dlink_pipeline.Profile
module Cow = Dlink_core.Cow
module Sched = Dlink_sched.Scheduler
module Policy = Dlink_sched.Policy
module Qs = Dlink_sched.Quantum_sweep
module Replay = Dlink_trace.Replay
module Tcache = Dlink_trace.Cache
module Sreplay = Dlink_trace.Sched_replay
module Dpool = Dlink_util.Dpool
module W = Dlink_workloads
module Table = Dlink_util.Table
module Plot = Dlink_util.Ascii_plot
module Json = Dlink_util.Json
module Stats = Dlink_stats

let section title =
  Printf.printf "\n%s\n%s\n%!" title (String.make (String.length title) '=')

let fmt = Table.fmt_float

(* --json FILE: machine-readable dump of the headline metrics, appended to
   as sections run and written on exit. *)
let json_path =
  let rec scan = function
    | "--json" :: path :: _ -> Some path
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan (Array.to_list Sys.argv)

(* Fail fast on an unwritable path rather than at the end of a long run. *)
let () =
  match json_path with
  | None -> ()
  | Some path -> (
      try close_out (open_out path)
      with Sys_error e ->
        Printf.eprintf "cannot write --json file: %s\n" e;
        exit 2)

(* --jobs N: shared-memory domain workers for the per-workload
   simulations and the sweeps (0 = auto-detect from DLINK_JOBS / core
   count). *)
let jobs =
  let rec scan = function
    | "--jobs" :: n :: _ -> (
        match int_of_string_opt n with
        | Some 0 -> Dpool.default_jobs ()
        | Some n when n > 0 -> n
        | _ ->
            Printf.eprintf "bad --jobs value: %s\n" n;
            exit 2)
    | _ :: rest -> scan rest
    | [] -> 1
  in
  scan (Array.to_list Sys.argv)

(* --only SEC[,SEC..]: run a subset of sections (CI smoke).  The names
   here must match the driver's section list at the bottom of this file
   (the driver asserts they do); validating at parse time means a typo
   fails fast, before any benchmarking starts. *)
let known_sections =
  [
    "tables";
    "latency";
    "memsave";
    "ablations";
    "multiprocess";
    "fault";
    "throughput";
    "flushsweep";
    "churnsweep";
    "servesweep";
    "servesweep_1m";
    "micro";
  ]

(* --repeat N: the throughput section reports median-of-N sim_mips, so
   the committed baseline and the CI regression gate see numbers stable
   enough to compare across runs. *)
let repeat =
  let rec scan = function
    | "--repeat" :: n :: _ -> (
        match int_of_string_opt n with
        | Some n when n > 0 -> n
        | _ ->
            Printf.eprintf "bad --repeat value: %s\n" n;
            exit 2)
    | _ :: rest -> scan rest
    | [] -> 1
  in
  scan (Array.to_list Sys.argv)

let only =
  let rec scan = function
    | [ "--only" ] ->
        Printf.eprintf "--only requires a section name (try: %s)\n"
          (String.concat ", " known_sections);
        exit 2
    | "--only" :: names :: _ ->
        let names = String.split_on_char ',' names |> List.map String.trim in
        List.iter
          (fun name ->
            if not (List.mem name known_sections) then begin
              Printf.eprintf "unknown --only section %s (try: %s)\n" name
                (String.concat ", " known_sections);
              exit 2
            end)
          names;
        Some names
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan (Array.to_list Sys.argv)

let json_acc : (string * Json.t) list ref = ref []
let json_add key v = if json_path <> None then json_acc := (key, v) :: !json_acc

let json_counters (c : C.t) =
  Json.Obj
    [
      ("instructions", Json.Int c.C.instructions);
      ("cycles", Json.Int c.C.cycles);
      ("tramp_calls", Json.Int c.C.tramp_calls);
      ("tramp_skips", Json.Int c.C.tramp_skips);
      ("tramp_instructions", Json.Int c.C.tramp_instructions);
      ("abtb_clears", Json.Int c.C.abtb_clears);
      ("got_stores", Json.Int c.C.got_stores);
      ("resolver_runs", Json.Int c.C.resolver_runs);
      ("coherence_invalidations", Json.Int c.C.coherence_invalidations);
      ("icache_misses", Json.Int c.C.icache_misses);
      ("dcache_misses", Json.Int c.C.dcache_misses);
      ("itlb_misses", Json.Int c.C.itlb_misses);
      ("dtlb_misses", Json.Int c.C.dtlb_misses);
      ("branch_mispredictions", Json.Int c.C.branch_mispredictions);
      ("mis_skips", Json.Int c.C.mis_skips);
      ("lost_skips", Json.Int c.C.lost_skips);
      ("quarantine_entries", Json.Int c.C.quarantine_entries);
      ("fault_injected", Json.Int c.C.fault_injected);
    ]

let json_flush () =
  match json_path with
  | None -> ()
  | Some path ->
      Json.write_file path (Json.Obj (List.rev !json_acc));
      Printf.printf "\nwrote %s\n%!" path

(* ------------------------------------------------------------------ *)
(* Shared simulation runs: one (base, enhanced, patched) triple per
   workload; every table and figure below is derived from these.         *)

type triple = {
  wl : Dlink_core.Workload.t;
  base : E.run;
  enhanced : E.run;
  patched : E.run;
}

let workload_names = [ "apache"; "firefox"; "memcached"; "mysql" ]

(* Runs go through the trace cache: Base records the packed trace,
   Enhanced replays the very same trace (the skip decision is re-made at
   replay time), Patched records its own (different link image).  Counters
   are bit-identical to generate-mode runs (see test/test_trace.ml). *)
let make_triple ?(verbose = true) name =
  let gen = Option.get (W.Registry.find name) in
  let wl = gen ?seed:None () in
  if verbose then Printf.printf "  running %-10s base ...%!" name;
  let base = Replay.run ~record_stream:true ~mode:Sim.Base wl in
  if verbose then Printf.printf " enhanced ...%!";
  let enhanced = Replay.run ~mode:Sim.Enhanced wl in
  if verbose then Printf.printf " patched ...%!";
  let patched = Replay.run ~mode:Sim.Patched wl in
  if verbose then Printf.printf " done\n%!";
  { wl; base; enhanced; patched }

(* Domain workers share the heap, so triples — workload closures
   included — come back directly, and every trace a worker records lands
   in the shared mutex-guarded cache where the later sections replay it
   instead of re-recording. *)
let make_triples () =
  if jobs <= 1 then List.map (fun n -> (n, make_triple n)) workload_names
  else begin
    Printf.printf "  running %d workloads across %d domains ...%!"
      (List.length workload_names) jobs;
    let triples =
      Dpool.map ~jobs (fun n -> (n, make_triple ~verbose:false n)) workload_names
    in
    Printf.printf " done\n%!";
    triples
  end

(* ------------------------------------------------------------------ *)
(* Table 2: trampoline instructions per kilo-instruction.               *)

let paper_table2 =
  [ ("apache", 12.23); ("firefox", 0.72); ("memcached", 1.75); ("mysql", 5.56) ]

let table2 triples =
  section "Table 2: Instructions in trampoline per kilo instruction";
  let t = Table.create ~headers:[ "Workload"; "Paper (PKI)"; "Simulated (PKI)" ] in
  List.iter
    (fun (name, tr) ->
      Table.add_row t
        [ name; fmt (List.assoc name paper_table2); fmt (E.tramp_pki tr.base) ])
    triples;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Table 3: distinct trampolines used.                                  *)

let paper_table3 =
  [ ("apache", 501); ("firefox", 2457); ("memcached", 33); ("mysql", 1611) ]

let table3 triples =
  section "Table 3: Number of trampolines used by program execution";
  let t = Table.create ~headers:[ "Workload"; "Paper"; "Simulated" ] in
  List.iter
    (fun (name, tr) ->
      Table.add_row t
        [
          name;
          string_of_int (List.assoc name paper_table3);
          string_of_int tr.base.E.distinct_trampolines;
        ])
    triples;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Figure 4: rank-frequency of trampolines (log-log).                   *)

let figure4 triples =
  section "Figure 4: Frequency of trampolines (rank vs call count, log-log)";
  let series =
    List.map
      (fun (name, tr) -> { Plot.label = name; points = tr.base.E.rank_frequency })
      triples
  in
  print_string
    (Plot.line_chart ~log_x:true ~log_y:true ~x_label:"rank" ~y_label:"calls"
       ~title:"trampoline rank vs frequency" series);
  (* Decile samples of each curve for numeric comparison. *)
  let t = Table.create ~headers:[ "Workload"; "rank1"; "rank10"; "rank100"; "last" ] in
  List.iter
    (fun (name, tr) ->
      let rf = Array.of_list tr.base.E.rank_frequency in
      let at i = if i < Array.length rf then fmt ~decimals:0 (snd rf.(i)) else "-" in
      Table.add_row t [ name; at 0; at 9; at 99; at (Array.length rf - 1) ])
    triples;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Table 4: performance counters PKI, base vs enhanced.                 *)

type t4_row = { label : string; paper : float * float; value : C.t -> float }

let paper_table4 =
  [
    ("apache", [ (109.31, 104.22); (1.78, 1.18); (7.96, 7.56); (4.03, 4.62); (13.46, 12.32) ]);
    ("firefox", [ (10.70, 10.38); (0.87, 0.79); (2.66, 2.67); (1.54, 1.75); (4.84, 4.77) ]);
    ("memcached", [ (51.99, 51.42); (0.03, 0.0); (12.25, 12.16); (4.74, 4.73); (5.48, 5.30) ]);
    ("mysql", [ (25.21, 24.93); (2.41, 2.36); (8.48, 8.46); (2.86, 2.77); (14.44, 14.40) ]);
  ]

let table4 triples =
  section "Table 4: Performance counters (per kilo-instruction)";
  print_endline
    "  'patched' reproduces the paper's software emulation of the hardware\n\
    \  (its published Enhanced column); 'enhanced' is the full hardware model.";
  List.iter
    (fun (name, tr) ->
      let paper = List.assoc name paper_table4 in
      let rows =
        List.map2
          (fun (label, value) paper -> { label; paper; value })
          [
            ("I-$ Misses", fun (c : C.t) -> C.pki c c.C.icache_misses);
            ("I-TLB Misses", fun c -> C.pki c c.C.itlb_misses);
            ("D-$ Misses", fun c -> C.pki c c.C.dcache_misses);
            ("D-TLB Misses", fun c -> C.pki c c.C.dtlb_misses);
            ("Branch Mispred.", fun c -> C.pki c c.C.branch_mispredictions);
          ]
          paper
      in
      let t =
        Table.create
          ~headers:
            [ "Counter"; "paper base"; "paper enh"; "sim base"; "sim patched"; "sim enhanced" ]
      in
      List.iter
        (fun r ->
          let pb, pe = r.paper in
          Table.add_row t
            [
              r.label;
              fmt pb;
              fmt pe;
              fmt (r.value tr.base.E.counters);
              fmt (r.value tr.patched.E.counters);
              fmt (r.value tr.enhanced.E.counters);
            ])
        rows;
      Table.print ~title:("Table 4 — " ^ name) t)
    triples

(* ------------------------------------------------------------------ *)
(* Figure 5: % trampolines skipped vs ABTB size.                        *)

let figure5 triples =
  section "Figure 5: % of trampolines skipped for different ABTB sizes";
  let t =
    Table.create
      ~headers:
        ("Entries" :: List.map (fun (n, _) -> n) triples)
  in
  let sweeps =
    List.map (fun (_, tr) -> Sweep.sweep tr.base.E.tramp_stream) triples
  in
  List.iteri
    (fun i entries ->
      Table.add_row t
        (string_of_int entries
        :: List.map
             (fun sweep -> fmt (List.nth sweep i).Sweep.skipped_pct)
             sweeps))
    Sweep.default_sizes;
  Table.print t;
  let series =
    List.map2
      (fun (name, _) sweep ->
        {
          Plot.label = name;
          points =
            List.map
              (fun p -> (float_of_int p.Sweep.entries, p.Sweep.skipped_pct))
              sweep;
        })
      triples sweeps
  in
  print_string
    (Plot.line_chart ~log_x:true ~x_label:"ABTB entries" ~y_label:"% skipped"
       ~title:"trampoline skip rate vs ABTB capacity" series);
  print_endline
    "  (paper: >75% skipped with 16 entries; ~all active trampolines at 256)"

(* ------------------------------------------------------------------ *)
(* Figure 6: Apache response-time CDFs per request type.                *)

let latency_cdf run rtype =
  match Array.find_opt (fun (n, _) -> n = rtype) run.E.latencies_us with
  | Some (_, samples) when Array.length samples > 0 -> Some (Stats.Cdf.of_samples samples)
  | _ -> None

let cdf_quantile_table ~unit name base enhanced rtypes =
  let t =
    Table.create
      ~headers:
        [ "Request type"; "pct"; "base " ^ unit; "enhanced " ^ unit; "delta" ]
  in
  List.iter
    (fun rtype ->
      match (latency_cdf base rtype, latency_cdf enhanced rtype) with
      | Some cb, Some ce ->
          List.iter
            (fun q ->
              let b = Stats.Cdf.quantile cb q and e = Stats.Cdf.quantile ce q in
              Table.add_row t
                [
                  rtype;
                  Printf.sprintf "%.0f%%" (100.0 *. q);
                  fmt ~decimals:1 b;
                  fmt ~decimals:1 e;
                  Table.fmt_pct ((e -. b) /. b);
                ])
            [ 0.5; 0.9; 0.99 ]
      | _ -> Table.add_row t [ rtype; "-"; "-"; "-"; "-" ])
    rtypes;
  Table.print ~title:name t

let figure6 tr =
  section "Figure 6: CDF of Apache requests served vs response time";
  cdf_quantile_table ~unit:"us" "Apache SPECweb response-time quantiles"
    tr.base tr.patched W.Apache.request_types;
  (match (latency_cdf tr.base "Search", latency_cdf tr.patched "Search") with
  | Some cb, Some ce ->
      let to_series label c =
        {
          Plot.label;
          points = List.map (fun (x, y) -> (x, 100.0 *. y)) (Stats.Cdf.points c);
        }
      in
      print_string
        (Plot.line_chart ~x_label:"response time (us)" ~y_label:"% served"
           ~title:"Apache 'Search' requests: base (*) vs enhanced-emulation (+)"
           [ to_series "base" cb; to_series "enhanced" ce ])
  | _ -> ());
  let t =
    Table.create ~headers:[ "Request type"; "mean base us"; "mean enh us"; "improvement" ]
  in
  List.iter
    (fun rtype ->
      let b = E.mean_latency_us tr.base rtype
      and e = E.mean_latency_us tr.patched rtype in
      Table.add_row t
        [ rtype; fmt ~decimals:1 b; fmt ~decimals:1 e; Table.fmt_pct ((e -. b) /. b) ])
    W.Apache.request_types;
  Table.print ~title:"Apache mean response times (paper: up to 4% improvement)" t

(* ------------------------------------------------------------------ *)
(* Table 5: Firefox Peacekeeper scores.                                 *)

let table5 tr =
  section "Table 5: Firefox Peacekeeper scores (higher is better)";
  let base_scores = W.Firefox.scores tr.base in
  let enh_scores = W.Firefox.scores ~anchor:tr.base tr.patched in
  let paper =
    [
      ("Rendering", (49.31, 50.64));
      ("HTML5 Canvas", (37.47, 37.94));
      ("Data", (22499.0, 22727.0));
      ("DOM operations", (16547.0, 16850.0));
      ("Text parsing", (214897.0, 216625.0));
    ]
  in
  let t =
    Table.create
      ~headers:
        [ "Workload"; "unit"; "paper base"; "paper enh"; "sim base"; "sim enh"; "delta" ]
  in
  List.iter2
    (fun (name, unit, b) (_, _, e) ->
      let pb, pe = List.assoc name paper in
      Table.add_row t
        [
          name;
          unit;
          fmt ~decimals:(if pb < 100.0 then 2 else 0) pb;
          fmt ~decimals:(if pe < 100.0 then 2 else 0) pe;
          fmt ~decimals:(if b < 100.0 then 2 else 0) b;
          fmt ~decimals:(if e < 100.0 then 2 else 0) e;
          Table.fmt_pct ((e -. b) /. b);
        ])
    base_scores enh_scores;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Figure 7: Memcached processing-time histograms (TSC kilocycles).     *)

let figure7 tr =
  section "Figure 7: Histogram of Memcached request processing times";
  List.iter
    (fun rtype ->
      match
        ( Array.find_opt (fun (n, _) -> n = rtype) tr.base.E.latencies_us,
          Array.find_opt (fun (n, _) -> n = rtype) tr.patched.E.latencies_us )
      with
      | Some (_, bs), Some (_, es) when Array.length bs > 0 ->
          (* Convert microseconds to TSC kilocycle units as in the paper. *)
          let tsc samples = Array.map (fun us -> us *. 3.0) samples in
          let bs = tsc bs and es = tsc es in
          let all = Stats.Summary.of_array (Array.append bs es) in
          let lo = Stats.Summary.percentile all 2.0
          and hi = Stats.Summary.percentile all 90.0 in
          let hb = Stats.Histogram.of_samples ~lo ~hi ~bins:24 bs
          and he = Stats.Histogram.of_samples ~lo ~hi ~bins:24 es in
          Printf.printf "\n%s requests (processing time, TSC units x1000):\n" rtype;
          List.iter2
            (fun (center, fb) (_, fe) ->
              Printf.printf "  %8.2f  base %-28s| enh %-28s\n" center
                (String.make (int_of_float (fb *. 280.0)) '#')
                (String.make (int_of_float (fe *. 280.0)) '*'))
            (Stats.Histogram.fractions hb) (Stats.Histogram.fractions he);
          let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a) in
          Printf.printf
            "  peak bin: base=%.2f enhanced=%.2f; mean: base=%.2f enhanced=%.2f (%+.2f%%)\n"
            (Stats.Histogram.peak_center hb) (Stats.Histogram.peak_center he)
            (mean bs) (mean es)
            (100.0 *. (mean es -. mean bs) /. mean bs)
      | _ -> ())
    W.Memcached.request_types

(* ------------------------------------------------------------------ *)
(* Figure 8 + Table 6: MySQL latency CDFs and percentiles.              *)

let figure8_table6 tr =
  section "Figure 8 / Table 6: MySQL TPC-C response times";
  let t =
    Table.create
      ~headers:
        [ "Request"; "pct"; "paper base ms"; "paper enh ms"; "sim base ms"; "sim enh ms" ]
  in
  let paper =
    [
      ("New Order", [ (43.5, 43.0); (57.3, 56.9); (72.8, 72.3); (87.1, 86.8) ]);
      ("Payment", [ (17.9, 17.7); (27.9, 27.2); (37.2, 35.9); (44.4, 43.0) ]);
    ]
  in
  List.iter
    (fun rtype ->
      match (latency_cdf tr.base rtype, latency_cdf tr.patched rtype) with
      | Some cb, Some ce ->
          List.iter2
            (fun pct (pb, pe) ->
              let b = Stats.Cdf.quantile cb (pct /. 100.0) /. 1000.0
              and e = Stats.Cdf.quantile ce (pct /. 100.0) /. 1000.0 in
              Table.add_row t
                [
                  rtype;
                  Printf.sprintf "%.0f%%" pct;
                  fmt ~decimals:1 pb;
                  fmt ~decimals:1 pe;
                  fmt ~decimals:1 b;
                  fmt ~decimals:1 e;
                ])
            W.Mysql.table6_percentiles (List.assoc rtype paper)
      | _ -> ())
    W.Mysql.request_types;
  Table.print t;
  match (latency_cdf tr.base "Payment", latency_cdf tr.patched "Payment") with
  | Some cb, Some ce ->
      let to_series label c =
        {
          Plot.label;
          points =
            List.map (fun (x, y) -> (x /. 1000.0, 100.0 *. y)) (Stats.Cdf.points c);
        }
      in
      print_string
        (Plot.line_chart ~x_label:"response time (ms)" ~y_label:"% served"
           ~title:"MySQL 'Payment' CDF: base (*) vs enhanced-emulation (+)"
           [ to_series "base" cb; to_series "enhanced" ce ])
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Section 5.5: memory savings.                                         *)

let memsave () =
  section "Section 5.5: Memory overhead of software call-site patching";
  let wl = W.Apache.workload () in
  let sim = Sim.create ~mode:Sim.Patched wl.Dlink_core.Workload.objs in
  let pages = Dlink_linker.Loader.patched_pages (Sim.linked sim) in
  let sites = List.length (Sim.linked sim).Dlink_linker.Loader.patch_sites in
  Printf.printf "  apache module set: %d patched call sites on %d code pages\n"
    sites pages;
  Printf.printf "  (paper: ~280 code pages copied, ~1.1 MB per process)\n";
  let t =
    Table.create
      ~headers:[ "Strategy"; "processes"; "pages/process"; "copied pages"; "wasted MB" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          Memsave.strategy_to_string r.Memsave.strategy;
          string_of_int r.Memsave.processes;
          string_of_int r.Memsave.patched_pages_per_process;
          string_of_int r.Memsave.copied_pages_total;
          fmt (float_of_int r.Memsave.wasted_bytes /. 1048576.0);
        ])
    (Memsave.analyze_all ~patched_pages:pages ~processes:450);
  Table.print t

let memsave_dynamic triples =
  section "Section 5.5 (dynamic): COW growth under lazy per-process patching";
  let tr = List.assoc "apache" triples in
  (* Re-run a short window to collect the first-touch schedule. *)
  let sim = Sim.create ~mode:Sim.Base tr.wl.Dlink_core.Workload.objs in
  for i = 0 to 199 do
    let req = tr.wl.Dlink_core.Workload.gen_request i in
    Sim.call sim ~mname:req.Dlink_core.Workload.mname ~fname:req.Dlink_core.Workload.fname
  done;
  let p = Sim.profile sim in
  let site_order = Profile.site_first_touch p in
  let total_calls = Profile.tramp_calls p in
  let t =
    Table.create
      ~headers:[ "run elapsed"; "pages copied / process"; "wasted MB (450 procs)" ]
  in
  List.iter
    (fun g ->
      Table.add_row t
        [
          Printf.sprintf "%.0f%%" (100.0 *. g.Cow.calls_fraction);
          string_of_int g.Cow.pages_per_process;
          fmt g.Cow.wasted_mb;
        ])
    (Cow.lazy_patching_growth ~site_order ~total_calls ~processes:450 ~samples:8);
  Table.print t;
  print_endline
    "  Lazy patching dirties code pages as call sites are first executed:\n\
    \  most of the waste appears within the first fraction of the run, and\n\
    \  every worker pays it separately (the paper's 2.3 objection)."

(* ------------------------------------------------------------------ *)
(* Ablations.                                                           *)

let ablation_abtb_organization triples =
  section "Ablation: ABTB organization (256 entries, replayed call stream)";
  let t =
    Table.create ~headers:("Ways" :: List.map (fun (n, _) -> n ^ " skip%") triples)
  in
  List.iter
    (fun ways ->
      Table.add_row t
        (string_of_int ways
        :: List.map
             (fun (_, tr) ->
               fmt (Sweep.replay ~entries:256 ~ways tr.base.E.tramp_stream))
             triples))
    [ 256; 8; 4; 2; 1 ];
  Table.print t;
  print_endline "  (256 ways = fully associative; 1 way = direct mapped)"

(* Replays the cached trace when the skip config allows it; configs the
   replay contract excludes (filter_fallthrough off, verify_targets on)
   fall back to generate-mode execution inside [Replay.run]. *)
let short_enh ?skip_cfg ?warmup ?context_switch_every ?retain_asid wl requests =
  Replay.run ?skip_cfg ?warmup ?context_switch_every ?retain_asid ~requests
    ~mode:Sim.Enhanced wl

let ablation_bloom () =
  section "Ablation: Bloom filter granularity and size (apache, 400 requests)";
  let wl = W.Apache.workload () in
  let t =
    Table.create
      ~headers:[ "Granularity"; "bits"; "hashes"; "clears"; "false clears"; "skip %" ]
  in
  let cases =
    [
      (Skip.Page, 512, 2);
      (Skip.Page, 4096, 2);
      (Skip.Slot, 1024, 2);
      (Skip.Slot, 16384, 4);
      (Skip.Slot, 262144, 6);
    ]
  in
  List.iter
    (fun (granularity, bits, hashes) ->
      let cfg =
        {
          Skip.default_config with
          bloom_granularity = granularity;
          bloom_bits = bits;
          bloom_hashes = hashes;
        }
      in
      let run = short_enh ~skip_cfg:cfg wl 400 in
      let c = run.E.counters in
      Table.add_row t
        [
          (match granularity with Skip.Page -> "page" | Skip.Slot -> "slot");
          string_of_int bits;
          string_of_int hashes;
          string_of_int c.C.abtb_clears;
          string_of_int c.C.abtb_false_clears;
          fmt (100.0 *. float_of_int c.C.tramp_skips /. float_of_int (max 1 c.C.tramp_calls));
        ])
    cases;
  Table.print t;
  print_endline
    "  The paper stores exact GOT-slot addresses but never sizes the filter;\n\
    \  slot granularity needs a large filter before false-positive clears stop\n\
    \  destroying the ABTB, while page granularity is tiny and precise."

let ablation_fallthrough () =
  section "Ablation: fall-through pair filter (memcached, 600 requests)";
  let wl = W.Memcached.workload () in
  let t =
    Table.create
      ~headers:[ "filter_fallthrough"; "ABTB clears"; "inserts"; "skip %"; "mispred PKI" ]
  in
  List.iter
    (fun filter ->
      let cfg = { Skip.default_config with filter_fallthrough = filter } in
      let run = short_enh ~skip_cfg:cfg ~warmup:0 wl 600 in
      let c = run.E.counters in
      Table.add_row t
        [
          string_of_bool filter;
          string_of_int c.C.abtb_clears;
          string_of_int c.C.abtb_inserts;
          fmt (100.0 *. float_of_int c.C.tramp_skips /. float_of_int (max 1 c.C.tramp_calls));
          fmt (C.pki c c.C.branch_mispredictions);
        ])
    [ true; false ];
  Table.print t;
  print_endline
    "  Without the filter, the lazy first execution installs a junk pair and\n\
    \  the resolver's GOT store clears the whole ABTB once per library call —\n\
    \  the startup transient the paper describes in section 3.2."

let ablation_context_switch () =
  section "Ablation: context switches (memcached, 600 requests)";
  let wl = W.Memcached.workload () in
  let t =
    Table.create
      ~headers:[ "switch every"; "retain ASID"; "skip %"; "cycles / instr" ]
  in
  let case every retain =
    let run = short_enh ?context_switch_every:every ~retain_asid:retain wl 600 in
    let c = run.E.counters in
    Table.add_row t
      [
        (match every with None -> "never" | Some k -> string_of_int k ^ " requests");
        string_of_bool retain;
        fmt (100.0 *. float_of_int c.C.tramp_skips /. float_of_int (max 1 c.C.tramp_calls));
        fmt ~decimals:3 (float_of_int c.C.cycles /. float_of_int (max 1 c.C.instructions));
      ]
  in
  case None false;
  case (Some 50) false;
  case (Some 5) false;
  case (Some 5) true;
  Table.print t;
  print_endline
    "  The ABTB flushes with the TLBs on a switch unless address-space IDs\n\
    \  retain it (section 3.3, 'Missing ABTB entry after context switch')."

let ablation_link_modes () =
  section "Ablation: binding strategies (memcached, 600 requests)";
  let wl = W.Memcached.workload () in
  let t =
    Table.create
      ~headers:[ "Mode"; "instructions"; "cycles"; "tramp PKI"; "resolver runs" ]
  in
  List.iter
    (fun mode ->
      let run = Replay.run ~requests:600 ~mode wl in
      let c = run.E.counters in
      Table.add_row t
        [
          Sim.mode_to_string mode;
          string_of_int c.C.instructions;
          string_of_int c.C.cycles;
          fmt (C.pki c c.C.tramp_instructions);
          string_of_int c.C.resolver_runs;
        ])
    [ Sim.Base; Sim.Eager; Sim.Enhanced; Sim.Patched; Sim.Static ];
  Table.print t

let ablation_dispatch_mechanisms () =
  section "Ablation: lookup-table dispatch mechanisms (paper Section 2.4)";
  (* A loop making one PLT call (to an ifunc-resolved symbol) and one
     C++-style virtual call per iteration: the hardware accelerates the
     former and leaves the latter alone. *)
  let module Body = Dlink_obj.Body in
  let module Objfile = Dlink_obj.Objfile in
  let lib =
    Objfile.create_exn ~name:"lib"
      ~ifuncs:
        [ { Objfile.iname = "kernel"; candidates = [ "kernel_fast"; "kernel_slow" ] } ]
      [
        { Objfile.fname = "kernel_fast"; exported = true; body = [ Body.Compute 4 ] };
        { Objfile.fname = "kernel_slow"; exported = true; body = [ Body.Compute 9 ] };
        { Objfile.fname = "method"; exported = true; body = [ Body.Compute 4 ] };
      ]
  in
  let app =
    Objfile.create_exn ~name:"app"
      ~vtables:[ { Objfile.vname = "vt"; entries = [ "method" ] } ]
      [
        {
          Objfile.fname = "main";
          exported = false;
          body =
            [
              Body.Loop
                {
                  mean_iters = 500.0;
                  body =
                    [
                      Body.Call_import "kernel";
                      Body.Call_virtual { vtable = "vt"; slot = 0 };
                      Body.Compute 6;
                    ];
                };
            ];
        };
      ]
  in
  let t =
    Table.create
      ~headers:[ "Mode"; "instructions"; "cycles"; "PLT calls"; "skipped" ]
  in
  List.iter
    (fun mode ->
      let sim = Sim.create ~mode [ app; lib ] in
      for _ = 1 to 20 do
        Sim.call sim ~mname:"app" ~fname:"main"
      done;
      let c = Sim.counters sim in
      Table.add_row t
        [
          Sim.mode_to_string mode;
          string_of_int c.C.instructions;
          string_of_int c.C.cycles;
          string_of_int c.C.tramp_calls;
          string_of_int c.C.tramp_skips;
        ])
    [ Sim.Base; Sim.Enhanced ];
  Table.print t;
  print_endline
    "  The ifunc is called through the PLT and gets skipped like any library\n\
    \  call; the virtual calls dispatch through a data-segment vtable with a\n\
    \  memory-indirect call and never engage the mechanism (Section 2.4.2)."

let ablation_explicit_invalidate () =
  section "Ablation: Bloom guard vs explicit invalidation (paper Section 3.4)";
  let wl = W.Memcached.workload () in
  let t =
    Table.create
      ~headers:[ "Coherence"; "bloom bits"; "skip %"; "clears"; "hardware cost" ]
  in
  List.iter
    (fun (label, coherence, bits, cost) ->
      let cfg =
        { Skip.default_config with coherence; bloom_bits = bits }
      in
      let run = short_enh ~skip_cfg:cfg wl 600 in
      let c = run.E.counters in
      Table.add_row t
        [
          label;
          string_of_int bits;
          fmt (100.0 *. float_of_int c.C.tramp_skips /. float_of_int (max 1 c.C.tramp_calls));
          string_of_int c.C.abtb_clears;
          cost;
        ])
    [
      ("bloom guard (transparent)", Skip.Bloom_guard, 4096, "512 B filter");
      ("explicit invalidate (software)", Skip.Explicit_invalidate, 4096, "none");
    ];
  Table.print t;
  print_endline
    "  Explicit invalidation removes the filter entirely but makes the\n\
    \  dynamic loader responsible for ABTB flushes on every GOT rewrite —\n\
    \  an architecturally visible contract, like non-coherent I-caches."

(* ------------------------------------------------------------------ *)
(* Multi-process scheduling: the dlink_sched subsystem.                  *)

let multiprocess_scheduling () =
  section "Multi-process scheduling: flush vs ASID-tagged ABTB";
  let mix = [ "apache"; "memcached"; "mysql" ] in
  let workloads =
    List.map (fun n -> (Option.get (W.Registry.find n)) ?seed:None ()) mix
  in
  Printf.printf "  mix: %s, 200 requests each, single core, %d job(s)\n%!"
    (String.concat "+" mix) jobs;
  let points = Sreplay.sweep ~requests:200 ~jobs ~policies:Policy.all workloads in
  Table.print (Qs.table points);
  print_string (Qs.plot points);
  print_endline
    "  Short quanta under 'flush' destroy the ABTB working set before it\n\
    \  pays off; ASID tags let a process resume warm (section 3.3).";
  json_add "quantum_sweep"
    (Json.List
       (List.map
          (fun (p : Qs.point) ->
            Json.Obj
              [
                ("quantum", Json.Int p.Qs.quantum);
                ("policy", Json.String (Policy.to_string p.Qs.policy));
                ("skip_pct", Json.Float p.Qs.skip_pct);
                ("cpi", Json.Float p.Qs.cpi);
                ("abtb_clears", Json.Int p.Qs.abtb_clears);
                ("coherence_invalidations", Json.Int p.Qs.coherence_invalidations);
                ("switches", Json.Int p.Qs.switches);
              ])
          points));
  (* Cross-core GOT coherence: a rebinding store retired by one core's
     process clears the sibling core's guarded entries over the bus. *)
  let sched =
    Sched.create ~policy:Policy.Asid_shared_guard ~quantum:10 ~cores:2
      ~requests:150
      (List.map (fun n -> (Option.get (W.Registry.find n)) ?seed:None ())
         [ "memcached"; "memcached" ])
  in
  Sched.run sched;
  let before = (Sched.system_counters sched).C.coherence_invalidations in
  let p1 = Sched.proc sched 1 in
  let got_slot =
    let linked = Sched.proc_linked p1 in
    let lowest =
      Array.fold_left
        (fun acc (img : Dlink_linker.Image.t) ->
          Hashtbl.fold
            (fun _ a acc ->
              match acc with None -> Some a | Some b -> Some (min a b))
            img.Dlink_linker.Image.got_slots acc)
        None
        (Dlink_linker.Space.images linked.Dlink_linker.Loader.space)
    in
    Option.get lowest
  in
  Sched.retire_got_store sched ~pid:1 got_slot;
  let after = (Sched.system_counters sched).C.coherence_invalidations in
  Printf.printf
    "  cross-core rebinding: GOT store on core 1 -> %d coherence invalidation(s)\n\
    \  on the sibling core (bus published=%d delivered=%d)\n"
    (after - before)
    (Dlink_mach.Coherence.published (Sched.bus sched))
    (Dlink_mach.Coherence.delivered (Sched.bus sched));
  json_add "cross_core_guard"
    (Json.Obj
       [
         ("invalidations", Json.Int (after - before));
         ("bus_published", Json.Int (Dlink_mach.Coherence.published (Sched.bus sched)));
         ("bus_delivered", Json.Int (Dlink_mach.Coherence.delivered (Sched.bus sched)));
       ])

(* ------------------------------------------------------------------ *)
(* Simulator throughput: generate-mode execution vs packed-trace replay. *)

(* Median over [repeat] samples: sim_mips varies run to run with host
   noise, and a median is what the CI regression gate can gate on. *)
let median_of samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let median_mips run_once =
  let rec go k acc = if k = 0 then acc else go (k - 1) (run_once () :: acc) in
  median_of (go repeat [])

(* Flush-policy multi-process sweeps, shared by the full throughput
   section and the lean [flushsweep] section (the latter exists so the CI
   regression gate — and A/B comparisons across builds — can re-measure
   the clear-dominated paths without paying for the 8-workload
   generate-vs-replay table).  Forced at most once per process. *)
let flush_sweeps =
  lazy
    ((* Short quanta under the Flush policy wipe the ABTB, Bloom filter
        and TLBs on every context switch — the workload the O(1)
        generation-stamped clears are for. *)
     let mix = [ "apache"; "memcached"; "mysql" ] in
     let workloads =
       List.map (fun n -> (Option.get (W.Registry.find n)) ?seed:None ()) mix
     in
     let quanta = [ 1; 2; 5 ] and requests = 150 in
     (* Record the per-workload traces once, outside the timed region. *)
     List.iter
       (fun w -> ignore (Tcache.get ~warmup:0 ~requests ~mode:Sim.Enhanced w))
       workloads;
     let instructions = ref 0 in
     let sweep_mips () =
       let t0 = Unix.gettimeofday () in
       let points =
         Sreplay.sweep ~requests ~jobs:1 ~policies:[ Policy.Flush ] ~quanta
           workloads
       in
       let wall = Unix.gettimeofday () -. t0 in
       instructions :=
         List.fold_left (fun a (p : Qs.point) -> a + p.Qs.instructions) 0 points;
       E.mips ~instructions:!instructions ~wall_s:wall
     in
     let flush_mips = median_mips sweep_mips in
     Printf.printf
       "  multi-process flush-policy sweep (%s; quanta %s; %d requests):\n\
       \  %.2f Mi/s over %d simulated instructions\n"
       (String.concat "+" mix)
       (String.concat "," (List.map string_of_int quanta))
       requests flush_mips !instructions;
     (* The request-granularity sweep above switches every ~50k
        instructions, so even O(capacity) clears are a sub-0.1% cost
        there.  The clear-dominated regime the O(1) flash clear targets is
        fine-grain timeslicing: round-robin the same packed traces on one
        kernel with an event-granularity quantum, paying the Flush-policy
        context switch (TLB + RAS + ABTB + Bloom wipe) at every slice
        boundary.  At the shortest quantum the eager clears used to cost
        as much as the retire work itself. *)
     let module Kernel = Dlink_pipeline.Kernel in
     let module Ptrace = Dlink_pipeline.Trace in
     let traces =
       List.map
         (fun w -> Tcache.get ~warmup:0 ~requests ~mode:Sim.Enhanced w)
         workloads
     in
     let finegrain ~quantum instructions =
       let m = Replay.make_machine ~mode:Sim.Enhanced () in
       let counters = Kernel.counters m in
       let cursors = Array.of_list (List.map Ptrace.Cursor.create traces) in
       let stops =
         Array.map
           (fun (c : Ptrace.Cursor.t) ->
             c.Ptrace.Cursor.trace.Ptrace.req_start.(requests))
           cursors
       in
       Array.iter (fun c -> Ptrace.Cursor.seek_request c 0) cursors;
       let running = ref (-1) in
       let live = ref 1 in
       let t0 = Unix.gettimeofday () in
       while !live > 0 do
         live := 0;
         Array.iteri
           (fun pid (c : Ptrace.Cursor.t) ->
             if c.Ptrace.Cursor.i < stops.(pid) then begin
               incr live;
               if !running <> pid then begin
                 if !running >= 0 then Kernel.context_switch m;
                 Kernel.set_asid m (pid + 1);
                 running := pid
               end;
               let b = c.Ptrace.Cursor.i + quantum in
               Kernel.replay_events m c
                 ~stop:(if b < stops.(pid) then b else stops.(pid))
             end)
           cursors
       done;
       let wall = Unix.gettimeofday () -. t0 in
       instructions := counters.C.instructions;
       E.mips ~instructions:!instructions ~wall_s:wall
     in
     let fg_quanta = [ 50; 500; 5000 ] in
     let fg_entries =
       List.map
         (fun q ->
           let instructions = ref 0 in
           let mips =
             median_mips (fun () -> finegrain ~quantum:q instructions)
           in
           Printf.printf
             "  fine-grain flush sweep, quantum %d events: %.2f Mi/s over %d \
              simulated instructions\n"
             q mips !instructions;
           ( Printf.sprintf "quantum_%d" q,
             Json.Obj
               [
                 ("sim_mips", Json.Float mips);
                 ("instructions", Json.Int !instructions);
               ] ))
         fg_quanta
     in
     [
       ( "multiprocess_flush_sweep",
         Json.Obj
           [
             ("sim_mips", Json.Float flush_mips);
             ("instructions", Json.Int !instructions);
             ("repeat", Json.Int repeat);
           ] );
       ("finegrain_flush_sweep", Json.Obj fg_entries);
     ])

let flushsweep () =
  section "Flush-policy multi-process sweeps";
  json_add "flushsweep" (Json.Obj (Lazy.force flush_sweeps))

(* Runtime module churn: dlopen/dlclose rotation per (rate x link mode)
   cell.  The paper's mechanism is evaluated against a static module set;
   this section measures how the ABTB/Bloom hardware behaves when the set
   itself churns — unmap invalidations flash-clear the ABTB at a rate set
   by the churn rate, while stable linking (pre-resolved GOT snapshots
   replayed on reopen) removes the resolver runs lazy binding pays on
   every reload without losing the Bloom guard over its GOT stores. *)
let churnsweep () =
  section "Module churn sweep: ABTB clears vs skips vs stable linking";
  let module Ch = Dlink_core.Churn in
  let module Mode = Dlink_linker.Mode in
  let scen = W.Churn.scenario () in
  let calls = 2000 and seed = 42 in
  let rates = [ 0; 100; 300 ] in
  let modes = [ Mode.Lazy_binding; Mode.Eager_binding; Mode.Stable_linking ] in
  let t =
    Table.create
      ~headers:
        [
          "mode"; "rate"; "churn"; "resolver runs"; "stable hit/miss";
          "clears/1k"; "skip rate"; "sim MIPS";
        ]
  in
  let resolver_at_top = Hashtbl.create 4 in
  let entries =
    List.concat_map
      (fun mode ->
        List.map
          (fun rate ->
            let c = Ch.run_cell ~link_mode:mode ~rate ~calls ~seed scen in
            let mips =
              if repeat = 1 then c.Ch.sim_mips
              else
                median_mips (fun () ->
                    (Ch.run_cell ~link_mode:mode ~rate ~calls ~seed scen)
                      .Ch.sim_mips)
            in
            if rate = List.fold_left max 0 rates then
              Hashtbl.replace resolver_at_top mode
                c.Ch.counters.C.resolver_runs;
            Table.add_row t
              [
                Mode.to_string mode;
                string_of_int rate;
                string_of_int c.Ch.churn_events;
                string_of_int c.Ch.counters.C.resolver_runs;
                Printf.sprintf "%d/%d" c.Ch.stable_hits c.Ch.stable_misses;
                fmt (Ch.clear_rate c);
                fmt ~decimals:3 (Ch.skip_rate c);
                fmt mips;
              ];
            ( Printf.sprintf "%s_r%d" (Mode.to_string mode) rate,
              Json.Obj
                [
                  ("churn_events", Json.Int c.Ch.churn_events);
                  ("rebinds", Json.Int c.Ch.rebinds);
                  ("resolver_runs", Json.Int c.Ch.counters.C.resolver_runs);
                  ("stable_hits", Json.Int c.Ch.stable_hits);
                  ("stable_misses", Json.Int c.Ch.stable_misses);
                  ("abtb_clears", Json.Int c.Ch.counters.C.abtb_clears);
                  ("clear_rate", Json.Float (Ch.clear_rate c));
                  ("skip_rate", Json.Float (Ch.skip_rate c));
                  ("sim_mips", Json.Float mips);
                ] ))
          rates)
      modes
  in
  Table.print t;
  (match
     ( Hashtbl.find_opt resolver_at_top Mode.Lazy_binding,
       Hashtbl.find_opt resolver_at_top Mode.Stable_linking )
   with
  | Some lazy_r, Some stable_r ->
      Printf.printf
        "  resolver runs at the top churn rate: lazy %d vs stable %d (%.1fx \
         fewer)\n"
        lazy_r stable_r
        (float_of_int lazy_r /. Float.max 1.0 (float_of_int stable_r))
  | _ -> ());
  print_endline
    "  Stable linking reopens modules from a validated GOT snapshot, so\n\
    \  churn costs flash clears (absorbed by generation stamps) but not\n\
    \  resolver re-runs; every snapshot store still passes the Bloom guard.";
  json_add "churnsweep" (Json.Obj entries)

(* Open-loop serving sweep: the request-first tail-latency view of the
   mechanism.  Each cell plays a deterministic Poisson (or bursty MMPP)
   client against one server at a fraction of base-mode capacity; the
   enhanced mode's shorter service times turn into queueing head-room, so
   the knee of the load-vs-p99 curve moves right.  Every leaf is a pure
   simulated-cycle quantity — bit-reproducible across runs and hosts —
   so the CI gate on goodput_rps (floor) and p99_us (ceiling) only trips
   on behavioral change, never on runner noise. *)
let servesweep () =
  section "Open-loop serving sweep: offered load vs goodput and tail latency";
  let module Serve = Dlink_core.Serve in
  let module Svreplay = Dlink_trace.Serve_replay in
  let module Arrival = Dlink_util.Arrival in
  let name = "memcached" in
  let wl = (Option.get (W.Registry.find name)) ?seed:None () in
  let cfg = { Serve.default_config with Serve.requests = 600 } in
  let loads = [ 0.7; 0.9; 1.0; 1.1 ] in
  let modes = [ Sim.Base; Sim.Enhanced ] in
  let cells =
    Svreplay.sweep ~jobs ~cfg ~loads ~modes
      ~flushes:[ Serve.No_flush; Serve.Flush ] wl
    @ Svreplay.sweep ~jobs
        ~cfg:{ cfg with Serve.arrival = Arrival.default_mmpp }
        ~loads:[ 0.9 ] ~modes ~flushes:[ Serve.No_flush ] wl
  in
  Printf.printf "  %s, %d requests per cell, queue cap %d, seed %d\n" name
    cfg.Serve.requests cfg.Serve.queue_cap cfg.Serve.seed;
  let t =
    Table.create
      ~headers:
        [
          "mode"; "arrival"; "flush"; "load"; "served"; "drops";
          "goodput r/s"; "util"; "p50 us"; "p99 us"; "p999 us";
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
          fmt ~decimals:0 c.Serve.goodput_rps;
          fmt ~decimals:3 c.Serve.util;
          fmt ~decimals:1 c.Serve.p50_us;
          fmt ~decimals:1 c.Serve.p99_us;
          fmt ~decimals:1 c.Serve.p999_us;
        ])
    cells;
  Table.print t;
  (* The headline: p99 at each load, base vs enhanced, no flush. *)
  let p99 mode load =
    List.find_opt
      (fun (c : Serve.cell) ->
        c.Serve.cfg.Serve.mode = mode
        && c.Serve.cfg.Serve.load = load
        && c.Serve.cfg.Serve.flush = Serve.No_flush
        && c.Serve.cfg.Serve.arrival = Arrival.Poisson)
      cells
    |> Option.map (fun (c : Serve.cell) -> c.Serve.p99_us)
  in
  List.iter
    (fun load ->
      match (p99 Sim.Base load, p99 Sim.Enhanced load) with
      | Some b, Some e ->
          Printf.printf
            "  load %.2f: p99 base %.1f us vs enhanced %.1f us (%+.1f%%)\n"
            load b e
            (100.0 *. (e -. b) /. b)
      | _ -> ())
    loads;
  print_endline
    "  The same offered stream (arrivals fixed by the base-mode\n\
    \  calibration) queues behind shorter enhanced-mode services; past the\n\
    \  base knee the tail collapses while goodput keeps scaling.";
  json_add "servesweep"
    (Json.Obj
       (("workload", Json.String name)
       :: ("requests", Json.Int cfg.Serve.requests)
       :: ("mean_service_cycles",
           Json.Int
             (match cells with
             | c :: _ -> c.Serve.mean_service_cycles
             | [] -> 0))
       :: List.map
            (fun (c : Serve.cell) ->
              ( Serve.cell_label c,
                Json.Obj
                  [
                    ("served", Json.Int c.Serve.served);
                    ("dropped", Json.Int c.Serve.dropped);
                    ("goodput_rps", Json.Float c.Serve.goodput_rps);
                    ("util", Json.Float c.Serve.util);
                    ("p50_us", Json.Float c.Serve.p50_us);
                    ("p99_us", Json.Float c.Serve.p99_us);
                    ("p999_us", Json.Float c.Serve.p999_us);
                  ] ))
            cells))

(* Million-request serving cell: the memory-bounded driver at bench
   scale.  One Base-mode synth cell at the knee (load 1.0) runs a million
   requests through [Serve.run_cell_stream]: a Base no-flush cell is its
   own calibration, so one live pass buffers the 8 MB service vector and
   the queue engine folds it — O(1) resident latency state (log-bucket
   recorder + order-sensitive fingerprint; the raw vector is never
   materialized past lat_keep_cap).  The serving leaves are pure
   simulated-cycle quantities, bit-stable across hosts and --jobs;
   sim_mips is the whole-cell wall-clock rate of that one pass, run once
   per bench invocation — at a million requests one run is long enough
   to average runner noise without median-of-N. *)
let servesweep_1m () =
  section "Million-request serving cell: one live pass, streaming queue fold";
  let module Serve = Dlink_core.Serve in
  let name = "synth" in
  let wl = (Option.get (W.Registry.find name)) ?seed:None () in
  let n = 1_000_000 in
  let cfg =
    {
      Serve.default_config with
      Serve.mode = Sim.Base;
      load = 1.0;
      requests = n;
      queue_cap = 64;
    }
  in
  let t0 = Unix.gettimeofday () in
  let c = Serve.run_cell_stream ~jobs ~cfg wl in
  let wall = Unix.gettimeofday () -. t0 in
  let mips = E.mips ~instructions:c.Serve.counters.C.instructions ~wall_s:wall in
  Printf.printf
    "  %s, %d requests, load %s, %d jobs: %.1f s wall\n" name n
    (fmt cfg.Serve.load) jobs wall;
  Printf.printf
    "  served %d  dropped %d  goodput %.0f r/s  util %.3f  sim %.1f Mi/s\n"
    c.Serve.served c.Serve.dropped c.Serve.goodput_rps c.Serve.util mips;
  Printf.printf "  p50 %.1f us  p99 %.1f us  p999 %.1f us\n" c.Serve.p50_us
    c.Serve.p99_us c.Serve.p999_us;
  print_endline
    "  The latency vector is never materialized: tail quantiles come from\n\
    \  the log-bucket recorder, and per-request outcomes are pinned by the\n\
    \  order-sensitive fingerprint — bit-identical at any --jobs.";
  json_add "servesweep_1m"
    (Json.Obj
       [
         ("workload", Json.String name);
         ("requests", Json.Int n);
         ("jobs", Json.Int jobs);
         ("served", Json.Int c.Serve.served);
         ("dropped", Json.Int c.Serve.dropped);
         ("goodput_rps", Json.Float c.Serve.goodput_rps);
         ("util", Json.Float c.Serve.util);
         ("p50_us", Json.Float c.Serve.p50_us);
         ("p99_us", Json.Float c.Serve.p99_us);
         ("p999_us", Json.Float c.Serve.p999_us);
         ("sim_mips", Json.Float mips);
       ])

let throughput () =
  section "Simulator throughput: generate vs packed-trace replay";
  if repeat > 1 then
    Printf.printf
      "  (replay and sweep columns: median of %d runs; generate-mode runs\n\
      \  are too slow to repeat and are not gated)\n"
      repeat;
  let t =
    Table.create
      ~headers:
        [ "workload"; "mode"; "generate Mi/s"; "replay Mi/s"; "speedup"; "equal" ]
  in
  let seq_counters = ref [] in
  let entries =
    List.concat_map
      (fun name ->
        let wl = (Option.get (W.Registry.find name)) ?seed:None () in
        List.map
          (fun mode ->
            (* Prime the cache so the replay timing below excludes the
               one-off recording cost (Base and Enhanced share a trace). *)
            ignore (Tcache.get ~mode wl);
            let gen = E.run ~mode wl in
            let rep = Replay.run ~mode wl in
            let equal = gen.E.counters = rep.E.counters in
            seq_counters := ((name, mode), rep.E.counters) :: !seq_counters;
            let gen_mips = gen.E.sim_mips in
            let rep_mips =
              median_mips (fun () ->
                  if repeat = 1 then rep.E.sim_mips
                  else (Replay.run ~mode wl).E.sim_mips)
            in
            let speedup = rep_mips /. Float.max 1e-9 gen_mips in
            Table.add_row t
              [
                name;
                Sim.mode_to_string mode;
                fmt gen_mips;
                fmt rep_mips;
                fmt speedup ^ "x";
                (if equal then "yes" else "NO");
              ];
            ( name ^ "_" ^ Sim.mode_to_string mode,
              Json.Obj
                [
                  ("generate_mips", Json.Float gen_mips);
                  ("replay_mips", Json.Float rep_mips);
                  ("speedup", Json.Float speedup);
                  ("tramp_pki", Json.Float (E.tramp_pki rep));
                  ("counters_equal", Json.Bool equal);
                ] ))
          [ Sim.Base; Sim.Enhanced ])
      workload_names
  in
  Table.print t;
  (* Aggregate replay throughput: every (workload, mode) cell replayed
     concurrently on the domain pool, total retired instructions over the
     batch's wall clock.  This is the sweep-scale number the roadmap's
     10x target is stated against; counters must stay bit-equal to the
     sequential replays above or the parallelism is buying wrong
     answers. *)
  let aggregate_entry =
    let cells =
      List.concat_map
        (fun name ->
          List.map (fun mode -> (name, mode)) [ Sim.Base; Sim.Enhanced ])
        workload_names
    in
    let batch () =
      let t0 = Unix.gettimeofday () in
      let runs =
        Dpool.map ~jobs
          (fun (name, mode) ->
            let wl = (Option.get (W.Registry.find name)) ?seed:None () in
            Replay.run ~mode wl)
          cells
      in
      (runs, Unix.gettimeofday () -. t0)
    in
    let runs, wall = batch () in
    let instructions =
      List.fold_left (fun a (r : E.run) -> a + r.E.counters.C.instructions) 0 runs
    in
    let equal =
      List.for_all2
        (fun cell (r : E.run) ->
          r.E.counters = List.assoc cell !seq_counters)
        cells runs
    in
    let mips =
      median_mips (fun () ->
          if repeat = 1 then E.mips ~instructions ~wall_s:wall
          else
            let _, w = batch () in
            E.mips ~instructions ~wall_s:w)
    in
    Printf.printf
      "  aggregate replay: %.2f Mi/s over %d cells at --jobs %d (%d \
       instructions, counters bit-equal: %s)\n"
      mips (List.length cells) jobs instructions
      (if equal then "yes" else "NO");
    ( "aggregate",
      Json.Obj
        [
          ("sim_mips", Json.Float mips);
          ("instructions", Json.Int instructions);
          ("jobs", Json.Int jobs);
          ("cells", Json.Int (List.length cells));
          ("counters_equal", Json.Bool equal);
        ] )
  in
  Printf.printf "  trace cache: %d hit(s), %d miss(es), %.2f MB packed\n"
    (Tcache.hits ()) (Tcache.misses ())
    (float_of_int (Tcache.footprint_bytes ()) /. 1048576.0);
  print_endline
    "  Replay drives the identical retire chain from the packed trace —\n\
    \  counters are bit-equal — but skips request generation, linking and\n\
    \  the architectural interpreter, and allocates nothing per event.";
  json_add "throughput"
    (Json.Obj ((entries @ [ aggregate_entry ]) @ Lazy.force flush_sweeps))

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the core structures.                     *)

(* Differential-oracle validation: every workload runs skip-on vs skip-off
   with zero injected faults (the mechanism must produce zero mis-skips on
   its own), then a seeded faulted run on synth demonstrates detection,
   quarantine, and recovery. *)
let fault_oracle () =
  let module Fault = Dlink_fault.Fuzz in
  let module Plan = Dlink_fault.Plan in
  let module Oracle = Dlink_fault.Oracle in
  section "Fault-injection oracle";
  let budget = 150 and seed = 42 in
  let t =
    Table.create
      ~headers:
        [ "workload"; "faults"; "skips"; "mis"; "lost"; "quarantined"; "verdict" ]
  in
  let entries =
    List.map
      (fun name ->
        let w = (Option.get (W.Registry.find name)) ~seed () in
        let clean =
          Fault.trial ~workload:w ~budget (Plan.empty seed)
        in
        let r = clean.Fault.report in
        Table.add_row t
          [
            name;
            "0";
            string_of_int r.Oracle.skips;
            string_of_int r.Oracle.mis_skips;
            string_of_int r.Oracle.lost_skips;
            string_of_int r.Oracle.quarantine_entries;
            (if clean.Fault.failures = [] then "ok" else "FAIL");
          ];
        (name, clean))
      workload_names
  in
  let w = W.Synth.workload ~seed () in
  let faulted = Fault.run ~workload:w ~seed ~budget:200 ~faults:8 () in
  let fr = faulted.Fault.report in
  Table.add_row t
    [
      "synth+faults";
      string_of_int fr.Oracle.faults_injected;
      string_of_int fr.Oracle.skips;
      string_of_int fr.Oracle.mis_skips;
      string_of_int fr.Oracle.lost_skips;
      string_of_int fr.Oracle.quarantine_entries;
      (if faulted.Fault.failures = [] then "ok" else "FAIL");
    ];
  Table.print t;
  Printf.printf
    "faulted plan: %s\ncooldown: %d requests, %d skips, %d mis-skips\n"
    (Plan.to_string faulted.Fault.plan)
    fr.Oracle.cooldown_requests fr.Oracle.cooldown_skips
    fr.Oracle.cooldown_mis_skips;
  json_add "fault_oracle"
    (Json.Obj
       (List.map
          (fun (name, clean) ->
            let r = clean.Fault.report in
            ( name,
              Json.Obj
                [
                  ("mis_skips", Json.Int r.Oracle.mis_skips);
                  ("lost_skips", Json.Int r.Oracle.lost_skips);
                  ("unclassified", Json.Int r.Oracle.unclassified);
                  ("ok", Json.Bool (clean.Fault.failures = []));
                ] ))
          entries
       @ [
           ( "synth_faulted",
             Json.Obj
               [
                 ("plan", Json.String (Plan.to_string faulted.Fault.plan));
                 ("faults_injected", Json.Int fr.Oracle.faults_injected);
                 ("mis_skips", Json.Int fr.Oracle.mis_skips);
                 ("quarantine_entries", Json.Int fr.Oracle.quarantine_entries);
                 ("cooldown_mis_skips", Json.Int fr.Oracle.cooldown_mis_skips);
                 ("cooldown_skips", Json.Int fr.Oracle.cooldown_skips);
                 ("ok", Json.Bool (faulted.Fault.failures = []));
               ] );
         ]))

let microbenchmarks () =
  section "Microbenchmarks (Bechamel, ns/op)";
  let open Bechamel in
  let open Toolkit in
  let cache = Dlink_uarch.Cache.create ~name:"L1" ~size_bytes:32768 ~ways:8 in
  let tlb = Dlink_uarch.Tlb.create ~name:"T" ~entries:128 ~ways:4 in
  let btb = Dlink_uarch.Btb.create ~sets:2048 ~ways:4 in
  let bloom = Dlink_uarch.Bloom.create ~bits:4096 ~hashes:2 in
  let abtb = Dlink_uarch.Abtb.create ~entries:256 () in
  let dir = Dlink_uarch.Direction.create ~table_bits:14 ~history_bits:10 in
  let zipf = Dlink_util.Sampler.Zipf.create ~n:1000 ~s:1.2 in
  let rng = Dlink_util.Rng.create 7 in
  let counter = ref 0 in
  let next () =
    incr counter;
    !counter * 64
  in
  let quick_sim =
    let app =
      Dlink_obj.Objfile.create_exn ~name:"bench_app"
        [
          {
            Dlink_obj.Objfile.fname = "main";
            exported = false;
            body =
              [
                Dlink_obj.Body.Loop
                  {
                    mean_iters = 20.0;
                    body = [ Dlink_obj.Body.Compute 4; Dlink_obj.Body.Call_import "f" ];
                  };
              ];
          };
        ]
    and lib =
      Dlink_obj.Objfile.create_exn ~name:"bench_lib"
        [
          {
            Dlink_obj.Objfile.fname = "f";
            exported = true;
            body = [ Dlink_obj.Body.Compute 8 ];
          };
        ]
    in
    Sim.create ~mode:Sim.Enhanced [ app; lib ]
  in
  let tests =
    [
      Test.make ~name:"cache.access" (Staged.stage (fun () -> Dlink_uarch.Cache.access cache (next ())));
      Test.make ~name:"tlb.access" (Staged.stage (fun () -> Dlink_uarch.Tlb.access tlb ~asid:0 (next () * 61)));
      Test.make ~name:"btb.predict+update"
        (Staged.stage (fun () ->
             let pc = next () land 0xFFFF in
             ignore (Dlink_uarch.Btb.predict btb pc);
             Dlink_uarch.Btb.update btb pc (pc + 5)));
      Test.make ~name:"bloom.add+mem"
        (Staged.stage (fun () ->
             let a = next () land 0xFFFFF in
             Dlink_uarch.Bloom.add bloom ~asid:0 a;
             ignore (Dlink_uarch.Bloom.mem bloom ~asid:0 a)));
      Test.make ~name:"abtb.lookup"
        (Staged.stage (fun () -> ignore (Dlink_uarch.Abtb.lookup abtb (next () land 0xFFF))));
      Test.make ~name:"gshare.predict+update"
        (Staged.stage (fun () ->
             let pc = next () land 0xFFFF in
             let p = Dlink_uarch.Direction.predict dir pc in
             Dlink_uarch.Direction.update dir pc (not p)));
      Test.make ~name:"zipf.sample"
        (Staged.stage (fun () -> ignore (Dlink_util.Sampler.Zipf.sample zipf rng)));
      Test.make ~name:"sim.call (enhanced, ~100 insns)"
        (Staged.stage (fun () -> Sim.call quick_sim ~mname:"bench_app" ~fname:"main"));
    ]
  in
  let cfg_b = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.4) ~kde:None () in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let t = Table.create ~headers:[ "operation"; "ns/op" ] in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg_b [ Instance.monotonic_clock ] elt in
          let est = Analyze.one ols Instance.monotonic_clock raw in
          let ns =
            match Analyze.OLS.estimates est with Some (x :: _) -> x | _ -> nan
          in
          Table.add_row t [ Test.Elt.name elt; fmt ~decimals:1 ns ])
        (Test.elements test))
    tests;
  Table.print t

(* ------------------------------------------------------------------ *)

let () =
  print_endline
    "Reproduction harness: Architectural Support for Dynamic Linking (ASPLOS'15)";
  (* The shared triples are forced on first use, so a --only section that
     does not need them (throughput, multiprocess, fault, micro) skips the
     full simulation pass entirely. *)
  let triples =
    lazy
      (section "Simulations";
       let triples = make_triples () in
       json_add "workloads"
         (Json.Obj
            (List.map
               (fun (name, tr) ->
                 ( name,
                   Json.Obj
                     [
                       ("base", json_counters tr.base.E.counters);
                       ("enhanced", json_counters tr.enhanced.E.counters);
                       ("patched", json_counters tr.patched.E.counters);
                       ( "sim_mips",
                         Json.Obj
                           [
                             ("base", Json.Float tr.base.E.sim_mips);
                             ("enhanced", Json.Float tr.enhanced.E.sim_mips);
                             ("patched", Json.Float tr.patched.E.sim_mips);
                           ] );
                     ] ))
               triples));
       triples)
  in
  let tr () = Lazy.force triples in
  let sections =
    [
      ( "tables",
        fun () ->
          let t = tr () in
          table2 t;
          table3 t;
          figure4 t;
          table4 t;
          figure5 t );
      ( "latency",
        fun () ->
          let t = tr () in
          figure6 (List.assoc "apache" t);
          table5 (List.assoc "firefox" t);
          figure7 (List.assoc "memcached" t);
          figure8_table6 (List.assoc "mysql" t) );
      ( "memsave",
        fun () ->
          memsave ();
          memsave_dynamic (tr ()) );
      ( "ablations",
        fun () ->
          ablation_abtb_organization (tr ());
          ablation_bloom ();
          ablation_fallthrough ();
          ablation_context_switch ();
          ablation_link_modes ();
          ablation_dispatch_mechanisms ();
          ablation_explicit_invalidate () );
      ("multiprocess", multiprocess_scheduling);
      ("fault", fault_oracle);
      ("throughput", throughput);
      ("flushsweep", flushsweep);
      ("churnsweep", churnsweep);
      ("servesweep", servesweep);
      ("servesweep_1m", servesweep_1m);
      ("micro", microbenchmarks);
    ]
  in
  assert (List.map fst sections = known_sections);
  (match only with
  | None -> List.iter (fun (_, f) -> f ()) sections
  | Some names -> List.iter (fun name -> (List.assoc name sections) ()) names);
  json_flush ();
  section "Done";
  print_endline "All tables and figures regenerated; see EXPERIMENTS.md for analysis."
