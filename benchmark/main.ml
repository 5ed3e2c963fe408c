(* dlinkbench: host-time benchmark of the simulator.

   One run measures one workload (see cases.ml) in a process of its own:
   it sets the workload up several times, timing each set-up, makes one
   untimed repetition whose outputs become the reference, then repeats
   the driver calls for --seconds, timing each repetition.
   Every repetition's outputs must equal the reference, the reference
   must equal the committed goldens when there are goldens for its seed,
   and the invariants and oracle of cases.ml must hold.  The last line of
   standard output is one JSON object with the end-to-end metrics, or,
   with --trace 1, the per-layer metrics of a traced run.  Without
   --workload, every workload runs in turn, each in a child process. *)

module C = Dlink_uarch.Counters
module Tcache = Dlink_trace.Cache
module Json = Dlink_util.Json

let per_layer =
  [
    ("workloads.build_s", "s");
    ("linker.load_s", "s");
    ("linker.dlopen_us", "us");
    ("linker.dlclose_us", "us");
    ("linker.resolver_runs", "count");
    ("trace.record_s", "s");
    ("trace.events", "count");
    ("trace.bytes_per_event", "B");
    ("trace.cursor_ns_per_event", "ns");
    ("pipeline.replay_ns_per_event", "ns");
    ("pipeline.retire_self_ns_per_event", "ns");
    ("pipeline.skip_ns_per_call", "ns");
    ("pipeline.context_switch_ns", "ns");
    ("pipeline.skip_rate", "fraction");
    ("pipeline.tramp_pki", "1/kinsn");
    ("uarch.l1i_mpki", "1/kinsn");
    ("uarch.l1d_mpki", "1/kinsn");
    ("uarch.mispredict_pki", "1/kinsn");
    ("uarch.abtb_clears_pki", "1/kinsn");
    ("uarch.cache_ns", "ns");
    ("uarch.tlb_ns", "ns");
    ("uarch.btb_ns", "ns");
    ("uarch.direction_ns", "ns");
    ("uarch.abtb_lookup_ns", "ns");
    ("uarch.bloom_ns", "ns");
    ("uarch.abtb_clear_ns", "ns");
    ("uarch.bloom_clear_ns", "ns");
    ("core.sim_ns_per_insn", "ns");
    ("core.calibrate_s", "s");
    ("core.snapshot_us", "us");
    ("core.passes_per_cell", "ratio");
    ("core.serve.queue_ns_per_req", "ns");
    ("core.serve.stream_push_ns", "ns");
    ("stats.latency_record_ns", "ns");
    ("util.arrival_ns", "ns");
    ("util.dpool_map_us_per_item", "us");
    ("util.dpool_speedup", "ratio");
    ("sched.switches", "count");
    ("gc.minor_words_per_event", "words");
    ("gc.major_collections", "count");
    ("gc.top_heap_mb", "MB");
    ("span.covered_frac", "fraction");
    ("span.overhead_pct", "%");
  ]

let workload = ref ""
let seed = ref 1
let seconds = ref 20.0
let trace = ref 0
let out_dir = ref "benchmark/out"
let expected_dir = ref "benchmark/expected"
let smoke = ref false
let bless = ref false

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("dlinkbench: " ^ msg);
      exit 2)
    fmt

let parse_args () =
  let names = String.concat ", " (List.map (fun (c : Cases.t) -> c.name) Cases.all) in
  let specs =
    Arg.align
      [
        ("--workload", Arg.Set_string workload, "NAME run one workload: " ^ names);
        ("--seed", Arg.Set_int seed, "N input seed (default 1)");
        ("--seconds", Arg.Set_float seconds, "S length of the measured phase (default 20)");
        ("--trace", Arg.Set_int trace, "0|1 1 = traced run reporting per-layer metrics");
        ("--out", Arg.Set_string out_dir, "DIR where dumps and traces go (default benchmark/out)");
        ( "--expected",
          Arg.Set_string expected_dir,
          "DIR golden digests (default benchmark/expected)" );
        ("--smoke", Arg.Set smoke, " tiny sizes, for the test suite");
        ( "--bless",
          Arg.Set bless,
          " store this run's digests as the goldens for its seed and size" );
      ]
  in
  Arg.parse specs
    (fun a -> usage_error "unexpected argument %s" a)
    "main.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]";
  if !trace <> 0 && !trace <> 1 then usage_error "--trace must be 0 or 1";
  if not (Float.is_finite !seconds && !seconds >= 0.0) then
    usage_error "--seconds must be a non-negative number";
  if !workload <> "" && not (List.exists (fun (c : Cases.t) -> c.name = !workload) Cases.all)
  then usage_error "unknown workload %s (try: %s)" !workload names

let peak_rss_mb () =
  try
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun l ->
           Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0))
    |> Option.value ~default:nan
  with Sys_error _ -> nan

let digests (r : Cases.result) =
  List.map (fun (l, s) -> (l, Digest.to_hex (Digest.string s))) r.outputs

(* Golden digests: one file per workload, one "seed size label digest"
   line per cell. *)
let size_name () = if !smoke then "smoke" else "full"
let golden_file name = Filename.concat !expected_dir (name ^ ".txt")

let golden_lines name =
  if Sys.file_exists (golden_file name) then
    Dump.read_file (golden_file name)
    |> String.split_on_char '\n'
    |> List.filter_map (fun l ->
           match String.split_on_char ' ' l with
           | [ s; z; label; d ] -> Some ((s, z), (label, d))
           | _ -> None)
  else []

let key () = (string_of_int !seed, size_name ())

let write_goldens name ds =
  let others = List.filter (fun (k, _) -> k <> key ()) (golden_lines name) in
  let lines =
    List.map
      (fun ((s, z), (l, d)) -> String.concat " " [ s; z; l; d ])
      (others @ List.map (fun x -> (key (), x)) ds)
    |> List.sort compare
  in
  Dump.mkdir_p !expected_dir;
  Out_channel.with_open_bin (golden_file name) (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines)

(* Outcome bookkeeping: every checked output counts as attempted; a
   mismatch, a failed check or an exception counts as failed. *)
let attempted = ref 0
let failures = ref []

let check label ok =
  incr attempted;
  if not ok then failures := label :: !failures

let fail label = check label false

let result_line ~correct ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct (max 1 attempted) failed
    (String.concat ", "
       (List.map
          (fun (n, u, v, _) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (num v) u)
          metrics))

(* One timed repetition: its clock and GC readings and its result. *)
type repetition = {
  t0 : int;
  t1 : int;
  gc0 : Gc.stat;
  gc1 : Gc.stat;
  r : Cases.result;
}

let duration rep = float_of_int (rep.t1 - rep.t0) *. 1e-9

let run_one (case : Cases.t) =
  let traced = !trace = 1 in
  let facts =
    Dump.facts ~jobs:Cases.jobs ~seed:!seed ~smoke:!smoke ~seconds:!seconds
  in
  Printf.printf "dlinkbench %s%s: %s\n%!" case.name
    (if traced then " (traced)" else "")
    (String.concat " "
       (List.map (fun (k, v) -> k ^ "=" ^ Json.to_string v) facts));
  let prepare () = case.prepare ~smoke:!smoke ~seed:!seed in
  (* Set-up, from an empty trace cache each time: at least three times
     and for at least a second, keeping the last one. *)
  let setup_times, prepared =
    if traced then begin
      Span.enabled := true;
      let t, p = Span.time prepare in
      Span.enabled := false;
      ([ t ], p)
    end
    else
      let rec go acc =
        Tcache.clear ();
        Gc.full_major ();
        let t, p = Span.time prepare in
        let acc = t :: acc in
        if (List.length acc >= 3 && List.fold_left ( +. ) 0.0 acc >= 1.0)
           || List.length acc >= 1000
        then (acc, p)
        else go acc
      in
      go []
  in
  (* Every repetition starts from a collected heap, so none pays for the
     garbage of the one before and the peak memory of a repetition does
     not depend on how many ran before it. *)
  let repetition label =
    Gc.full_major ();
    let misses = Tcache.misses () and gc0 = Gc.quick_stat () in
    let t0 = Span.now_ns () in
    let r = prepared.rep () in
    let t1 = Span.now_ns () in
    if Tcache.misses () <> misses then
      fail (label ^ ": the trace cache missed, so set-up leaked into the measurement");
    { t0; t1; gc0; gc1 = Gc.quick_stat (); r }
  in
  let first = repetition "reference repetition" in
  let reference = first.r in
  let ref_digests = digests reference in
  let same_as_reference label (r : Cases.result) =
    List.iter2
      (fun (l, d) (l', d') ->
        check (Printf.sprintf "%s: %s equals the first repetition" label l) (l = l' && d = d'))
      ref_digests (digests r)
  in
  (* Goldens *)
  if !bless then write_goldens case.name ref_digests
  else begin
    let golden =
      List.filter_map (fun (k, x) -> if k = key () then Some x else None) (golden_lines case.name)
    in
    if golden <> [] then
      List.iter
        (fun (l, d) -> check (l ^ ": equals the golden digest") (List.assoc_opt l golden = Some d))
        ref_digests;
    if golden <> [] && List.length golden <> List.length ref_digests then
      fail "the cells differ from the goldens'"
  end;
  let metrics, samples, extra =
    if not traced then begin
      let t_start = Span.now_ns () in
      let reps = ref [] in
      let min_reps = if !smoke then 2 else 3 in
      (* Start a repetition only if one as long as the last still fits. *)
      let last = ref 0.0 in
      while List.length !reps < min_reps || Span.seconds_since t_start +. !last <= !seconds do
        let k = List.length !reps + 1 in
        let rep = repetition (Printf.sprintf "repetition %d" k) in
        same_as_reference (Printf.sprintf "repetition %d" k) rep.r;
        last := duration rep;
        reps := (!last, rep.r.instructions) :: !reps
      done;
      let dist xs =
        let q1, q3 = Stat.quartiles xs in
        (q1, Stat.median xs, q3, List.length xs)
      in
      let rates = dist (List.map (fun (dt, i) -> float_of_int i /. dt /. 1e6) !reps) in
      let setups = dist setup_times in
      (* The heap is collected before every repetition and set-up, so what
         spreads their times is the host: contention from other tenants
         only ever slows one.  The fast quartile is the code's own speed;
         across ten seeds on a busy 2-CPU host it spread 7-19 %, the
         median 10-31 %. *)
      let _, _, fast_rate, _ = rates and fast_setup, _, _, _ = setups in
      ( [
          ("useful_mips", "Mi/s", fast_rate, Some rates);
          ("setup_s", "s", fast_setup, Some setups);
          ("peak_rss_mb", "MB", peak_rss_mb (), None);
        ],
        [
          ("rep_s", Json.List (List.rev_map (fun (dt, _) -> Json.Float dt) !reps));
          ("setup_s", Json.List (List.rev_map (fun t -> Json.Float t) setup_times));
        ],
        [] )
    end
    else begin
      Span.enabled := true;
      let { t0; t1; gc0; gc1; r } = repetition "traced repetition" in
      same_as_reference "traced repetition" r;
      let plain_s = duration first and traced_s = float_of_int (t1 - t0) *. 1e-9 in
      let probes =
        Probes.run ~smoke:!smoke ~seed:!seed ~primary:prepared.primary
          ~requests:prepared.probe_requests
      in
      let c = r.counters in
      let pki x = C.pki c x in
      let self = Span.self_times () in
      let measured =
        [
          ("workloads.build_s", Option.value ~default:0.0 (List.assoc_opt "workloads" self));
          ("linker.resolver_runs", float_of_int c.resolver_runs);
          ("pipeline.skip_rate", float_of_int c.tramp_skips /. float_of_int (max 1 c.tramp_calls));
          ("pipeline.tramp_pki", pki c.tramp_instructions);
          ("uarch.l1i_mpki", pki c.icache_misses);
          ("uarch.l1d_mpki", pki c.dcache_misses);
          ("uarch.mispredict_pki", pki c.branch_mispredictions);
          ("uarch.abtb_clears_pki", pki c.abtb_clears);
          ("sched.switches", float_of_int r.switches);
          ( "gc.minor_words_per_event",
            (gc1.minor_words -. gc0.minor_words) /. float_of_int (max 1 r.instructions) );
          ("gc.major_collections", float_of_int (gc1.major_collections - gc0.major_collections));
          ( "gc.top_heap_mb",
            float_of_int (gc1.top_heap_words * (Sys.word_size / 8)) /. 1048576.0 );
          ("span.covered_frac", Span.covered ~t0 ~t1);
          ("span.overhead_pct", 100.0 *. (traced_s -. plain_s) /. plain_s);
        ]
        @ probes
      in
      let metrics =
        List.map
          (fun (n, u) ->
            match List.assoc_opt n measured with
            | Some v -> (n, u, v, None)
            | None -> failwith ("no measurement for " ^ n))
          per_layer
      in
      Printf.printf "self time by layer (s):\n";
      List.iter (fun (l, s) -> Printf.printf "  %-12s %10.4f\n" l s) self;
      ( metrics,
        [ ("plain_rep_s", Json.Float plain_s); ("traced_rep_s", Json.Float traced_s) ],
        [ ("layers_self_s", Json.Obj (List.map (fun (l, s) -> (l, Json.Float s)) self)) ] )
    end
  in
  Span.enabled := false;
  (try
     List.iter (fun (label, ok) -> check label ok) (reference.checks ())
   with e -> fail ("checks raised " ^ Printexc.to_string e));
  List.iter (fun (n, u, v, q) ->
      Printf.printf "%-34s %14.6g %-8s%s\n" n v u
        (match q with
         | Some (q1, med, q3, k) ->
             Printf.sprintf " q1 %.6g median %.6g q3 %.6g n %d" q1 med q3 k
         | None -> ""))
    metrics;
  List.iter (fun (n, v) -> Printf.printf "%-34s %14.6g\n" n v) reference.notes;
  Printf.printf "outputs checked: %d, failed: %d\n" !attempted (List.length !failures);
  List.iter (fun l -> Printf.printf "FAILED %s\n" l) (List.rev !failures);
  let stem =
    Printf.sprintf "%s-s%d%s" case.name !seed (if traced then "-trace" else "")
  in
  let path = Dump.fresh_path ~dir:!out_dir ~stem ~suffix:".json" in
  let metric_json (n, u, v, q) =
    ( n,
      Json.Obj
        ([ ("value", Json.Float v); ("unit", Json.String u) ]
        @
        match q with
        | Some (q1, med, q3, k) ->
            [
              ("q1", Json.Float q1); ("median", Json.Float med); ("q3", Json.Float q3);
              ("n", Json.Int k);
            ]
        | None -> []) )
  in
  Json.write_file path
    (Json.Obj
       ([
          ("workload", Json.String case.name);
          ("trace", Json.Bool traced);
          ("facts", Json.Obj facts);
          ("correct", Json.Bool (!failures = []));
          ("attempted", Json.Int !attempted);
          ("failed", Json.Int (List.length !failures));
          ("failures", Json.List (List.rev_map (fun l -> Json.String l) !failures));
          ("metrics", Json.Obj (List.map metric_json metrics));
          ("samples", Json.Obj samples);
          ("notes", Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) reference.notes));
          ("digests", Json.Obj (List.map (fun (l, d) -> (l, Json.String d)) ref_digests));
        ]
       @ extra));
  Printf.printf "dump: %s\n" path;
  if traced then begin
    let tpath = Filename.remove_extension path ^ ".chrome.json" in
    Json.write_file tpath (Span.chrome_json ~workload:case.name);
    Printf.printf "trace: %s\n" tpath
  end;
  print_endline
    (result_line ~correct:(!failures = []) ~attempted:!attempted
       ~failed:(List.length !failures) metrics);
  exit (if !failures = [] then 0 else 1)

(* Every workload in turn, each in a child process of its own, so peak
   memory and the process-wide trace cache belong to one workload. *)
let run_all () =
  let forwarded =
    [ "--seed"; string_of_int !seed; "--seconds"; Printf.sprintf "%.17g" !seconds;
      "--trace"; string_of_int !trace; "--out"; !out_dir; "--expected"; !expected_dir ]
    @ (if !smoke then [ "--smoke" ] else [])
    @ if !bless then [ "--bless" ] else []
  in
  let correct = ref true and attempted = ref 0 and failed = ref 0 and metrics = ref [] in
  List.iter
    (fun (case : Cases.t) ->
      let args = Array.of_list (Sys.executable_name :: "--workload" :: case.name :: forwarded) in
      let rd, wr = Unix.pipe ~cloexec:true () in
      let pid = Unix.create_process Sys.executable_name args Unix.stdin wr Unix.stderr in
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let last = ref "" in
      (try
         while true do
           let l = input_line ic in
           print_endline l;
           last := l
         done
       with End_of_file -> ());
      close_in ic;
      let ok = snd (Unix.waitpid [] pid) = Unix.WEXITED 0 in
      match Json.of_string !last with
      | Ok j ->
          let int k = Option.fold ~none:0 ~some:int_of_float (Dump.number (Dump.member k j)) in
          correct := !correct && ok && Dump.member "correct" j = Some (Json.Bool true);
          attempted := !attempted + int "attempted";
          failed := !failed + int "failed";
          (match Dump.member "metrics" j with
           | Some (Json.Obj ms) ->
               List.iter
                 (fun (n, m) ->
                   match (Dump.number (Dump.member "value" m), Dump.member "unit" m) with
                   | Some v, Some (Json.String u) ->
                       metrics := (case.name ^ "." ^ n, u, v, None) :: !metrics
                   | _ -> ())
                 ms
           | _ -> ())
      | Error _ ->
          correct := false;
          incr failed)
    Cases.all;
  print_endline
    (result_line ~correct:!correct ~attempted:!attempted ~failed:!failed
       (List.rev !metrics));
  exit (if !correct then 0 else 1)

let () =
  parse_args ();
  match List.find_opt (fun (c : Cases.t) -> c.name = !workload) Cases.all with
  | Some case -> run_one case
  | None -> run_all ()
