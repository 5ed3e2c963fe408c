(* Tests for the packed trace subsystem: format round-trips, the trace
   cache, the domain pool, and the zero-allocation property of the
   replay fast path.  The generate/replay golden-equivalence contract
   lives in test_pipeline.ml as one matrix over event source and
   topology. *)

module Addr = Dlink_isa.Addr
module Event = Dlink_mach.Event
module Kind = Dlink_mach.Event.Kind
module Counters = Dlink_uarch.Counters
module Sim = Dlink_core.Sim
module Registry = Dlink_workloads.Registry
module Trace = Dlink_trace.Trace
module Tcache = Dlink_trace.Cache
module Replay = Dlink_trace.Replay
module Dpool = Dlink_util.Dpool
module Json = Dlink_util.Json

let wl name =
  match Registry.find name with
  | Some f -> f ()
  | None -> Alcotest.failf "unknown workload %s" name

(* --- format round-trips ------------------------------------------------ *)

let ev ?(size = 4) ?(in_plt = false) ?load ?load2 ?store ?branch pc =
  { Event.pc; size; in_plt; load; load2; store; branch }

let test_manual_round_trip () =
  let w = Trace.Writer.create () in
  (* Request 0: a PLT call whose continuation pcs are all derivable. *)
  let e1 =
    ev 0x1000
      ~branch:(Event.Call_direct { target = 0x2000; arch_target = 0x2000 })
  in
  let e2 =
    ev 0x2000 ~size:2 ~in_plt:true ~load:0x9000
      ~branch:(Event.Jump_indirect { target = 0x3000; slot = 0x9000 })
  in
  let e3 = ev 0x3000 ~size:1 ~store:0x9100 in
  (* Request 1: explicit pc (discontinuity), redirected call, cond branch. *)
  let e4 =
    ev 0x5000
      ~branch:(Event.Call_direct { target = 0x7000; arch_target = 0x6000 })
  in
  let e5 =
    ev 0x7000 ~size:3 ~load:0x100 ~load2:0x200
      ~branch:(Event.Cond_branch { target = 0x1000; taken = false })
  in
  let e6 = ev 0x7003 ~branch:(Event.Return { target = 0x5004 }) in
  Trace.Writer.start_request w ~rtype:1;
  Trace.Writer.add w ~plt_call:true e1;
  Trace.Writer.add w e2;
  Trace.Writer.add w ~got_store:true e3;
  Trace.Writer.start_request w ~rtype:0;
  Trace.Writer.add w e4;
  Trace.Writer.add w e5;
  Trace.Writer.add w e6;
  let tr = Trace.Writer.finish w ~warmup:1 in
  Alcotest.(check int) "n_events" 6 (Trace.n_events tr);
  Alcotest.(check int) "n_requests" 2 (Trace.n_requests tr);
  Alcotest.(check int) "warmup" 1 (Trace.warmup tr);
  Alcotest.(check int) "measured" 1 (Trace.measured_requests tr);
  Alcotest.(check int) "rtype 0" 1 (Trace.request_rtype tr 0);
  Alcotest.(check int) "rtype 1" 0 (Trace.request_rtype tr 1);
  Alcotest.(check int) "events in req 0" 3 (Trace.request_events tr 0);
  Alcotest.(check int) "events in req 1" 3 (Trace.request_events tr 1);
  Alcotest.(check bool) "decode" true
    (Trace.to_events tr = [ e1; e2; e3; e4; e5; e6 ]);
  Alcotest.(check bool) "storage bytes" true (Trace.storage_bytes tr > 0);
  (* The side flags survive through the cursor. *)
  let c = Trace.Cursor.create tr in
  Trace.Cursor.seek_request c 0;
  Trace.Cursor.advance c;
  Alcotest.(check bool) "e1 plt_call" true c.Trace.Cursor.plt_call;
  Alcotest.(check bool) "e1 no got_store" false c.Trace.Cursor.got_store;
  Alcotest.(check bool) "peek sees plt" true (Trace.Cursor.peek_in_plt c);
  Alcotest.(check bool) "event rebuild" true (Trace.Cursor.event c = e1);
  Trace.Cursor.advance c;
  Alcotest.(check int) "e2 load" 0x9000 c.Trace.Cursor.load;
  Alcotest.(check int) "e2 load2 absent" Addr.none c.Trace.Cursor.load2;
  Trace.Cursor.advance c;
  Alcotest.(check bool) "e3 got_store" true c.Trace.Cursor.got_store;
  Alcotest.(check int) "e3 store" 0x9100 c.Trace.Cursor.store;
  Alcotest.(check int) "e3 no branch" Kind.none c.Trace.Cursor.kind;
  (* Seeking straight into request 1 works without replaying request 0. *)
  let c2 = Trace.Cursor.create tr in
  Trace.Cursor.seek_request c2 1;
  Trace.Cursor.advance c2;
  Alcotest.(check int) "seek pc" 0x5000 c2.Trace.Cursor.pc;
  Alcotest.(check int) "redirect target" 0x7000 c2.Trace.Cursor.target;
  Alcotest.(check int) "redirect aux" 0x6000 c2.Trace.Cursor.aux

let test_writer_validation () =
  let expect_invalid msg f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" msg
  in
  expect_invalid "add outside request" (fun () ->
      Trace.Writer.add (Trace.Writer.create ()) (ev 0x1000));
  expect_invalid "size above 15" (fun () ->
      let w = Trace.Writer.create () in
      Trace.Writer.start_request w ~rtype:0;
      Trace.Writer.add w (ev ~size:16 0x1000));
  expect_invalid "warmup beyond requests" (fun () ->
      let w = Trace.Writer.create () in
      Trace.Writer.start_request w ~rtype:0;
      Trace.Writer.add w (ev 0x1000);
      ignore (Trace.Writer.finish w ~warmup:2))

let addr_gen = QCheck.Gen.int_range 0 0x3FFF_FFFF

let branch_gen =
  QCheck.Gen.(
    oneof
      [
        return None;
        map (fun t -> Some (Event.Jump_direct { target = t })) addr_gen;
        map (fun t -> Some (Event.Jump_resolver { target = t })) addr_gen;
        map (fun t -> Some (Event.Return { target = t })) addr_gen;
        map
          (fun (t, s) -> Some (Event.Call_indirect { target = t; slot = s }))
          (pair addr_gen addr_gen);
        map
          (fun (t, s) -> Some (Event.Jump_indirect { target = t; slot = s }))
          (pair addr_gen addr_gen);
        map
          (fun (t, k) -> Some (Event.Cond_branch { target = t; taken = k }))
          (pair addr_gen bool);
        map
          (fun t -> Some (Event.Call_direct { target = t; arch_target = t }))
          addr_gen;
        map
          (fun (t, a) ->
            Some (Event.Call_direct { target = t; arch_target = a }))
          (pair addr_gen addr_gen);
      ])

let event_gen =
  QCheck.Gen.(
    addr_gen >>= fun pc ->
    int_range 1 15 >>= fun size ->
    bool >>= fun in_plt ->
    opt addr_gen >>= fun load ->
    opt addr_gen >>= fun load2 ->
    opt addr_gen >>= fun store ->
    branch_gen >>= fun branch ->
    return { Event.pc; size; in_plt; load; load2; store; branch })

let requests_gen =
  QCheck.Gen.(
    list_size (int_range 1 20)
      (pair (int_range 0 3) (list_size (int_range 1 25) event_gen)))

let qcheck_tests =
  [
    QCheck.Test.make ~name:"pack/decode round-trip" ~count:150
      (QCheck.make requests_gen) (fun reqs ->
        let w = Trace.Writer.create () in
        List.iter
          (fun (rtype, evs) ->
            Trace.Writer.start_request w ~rtype;
            List.iter (fun e -> Trace.Writer.add w e) evs)
          reqs;
        let tr = Trace.Writer.finish w ~warmup:0 in
        Trace.to_events tr = List.concat_map snd reqs
        && Trace.n_requests tr = List.length reqs
        && List.for_all2
             (fun (rtype, evs) r ->
               Trace.request_rtype tr r = rtype
               && Trace.request_events tr r = List.length evs)
             reqs
             (List.init (List.length reqs) Fun.id));
  ]

(* --- trace cache ------------------------------------------------------- *)

let test_cache () =
  Tcache.clear ();
  let w = wl "synth" in
  let misses0 = Tcache.misses () in
  let t1 = Tcache.get ~requests:20 ~mode:Sim.Base w in
  Alcotest.(check int) "first get records" (misses0 + 1) (Tcache.misses ());
  let hits0 = Tcache.hits () in
  (* Enhanced normalizes onto the Base entry, and a shorter request count
     is a prefix hit on the same physical trace. *)
  let t2 = Tcache.get ~requests:10 ~mode:Sim.Enhanced w in
  Alcotest.(check bool) "prefix hit is physical" true (t1 == t2);
  Alcotest.(check int) "hit counted" (hits0 + 1) (Tcache.hits ());
  Alcotest.(check int) "no extra miss" (misses0 + 1) (Tcache.misses ());
  (* Asking for more re-records at the larger count. *)
  let t3 = Tcache.get ~requests:35 ~mode:Sim.Base w in
  Alcotest.(check bool) "longer run re-records" true (t3 != t1);
  Alcotest.(check bool) "re-record covers request" true
    (Trace.measured_requests t3 >= 35);
  let t4 = Tcache.get ~requests:20 ~mode:Sim.Base w in
  Alcotest.(check bool) "replacement serves prefix" true (t3 == t4);
  (* Distinct key components get distinct traces. *)
  let t5 = Tcache.get ~seed:7 ~requests:20 ~mode:Sim.Base w in
  let t6 = Tcache.get ~aslr_seed:9 ~requests:20 ~mode:Sim.Base w in
  let t7 = Tcache.get ~requests:20 ~mode:Sim.Static w in
  Alcotest.(check bool) "seed keys" true (t5 != t3);
  Alcotest.(check bool) "aslr keys" true (t6 != t3 && t6 != t5);
  Alcotest.(check bool) "link mode keys" true (t7 != t3);
  Alcotest.(check bool) "footprint positive" true (Tcache.footprint_bytes () > 0);
  Tcache.clear ();
  Alcotest.(check int) "clear empties footprint" 0 (Tcache.footprint_bytes ())

(* --- domain pool and atomic json ---------------------------------------- *)

let test_dpool_map () =
  let xs = List.init 37 Fun.id in
  let f x = (x * x) - 3 in
  let expect = List.map f xs in
  Alcotest.(check (list int)) "jobs=1" expect (Dpool.map ~jobs:1 f xs);
  Alcotest.(check (list int)) "jobs=2" expect (Dpool.map ~jobs:2 f xs);
  Alcotest.(check (list int)) "jobs=4" expect (Dpool.map ~jobs:4 f xs);
  Alcotest.(check (list int))
    "more jobs than items" [ 0; 1; 2 ]
    (Dpool.map ~jobs:8 Fun.id [ 0; 1; 2 ]);
  Alcotest.(check (list int)) "empty" [] (Dpool.map ~jobs:3 f []);
  Alcotest.(check bool) "default_jobs positive" true (Dpool.default_jobs () >= 1);
  (* Domains share the heap, so results may be closures. *)
  let gs = Dpool.map ~jobs:2 (fun x () -> x + 1) xs in
  Alcotest.(check (list int))
    "closures cross domains"
    (List.map (fun x -> x + 1) xs)
    (List.map (fun g -> g ()) gs);
  match Dpool.map ~jobs:2 (fun x -> if x = 5 then failwith "boom" else x) xs with
  | _ -> Alcotest.fail "domain exception should surface as Failure"
  | exception Failure _ -> ()

let test_json_atomic () =
  let path = Filename.temp_file "dlink_trace_test" ".json" in
  let v = Json.Obj [ ("sim_mips", Json.Float 12.5); ("ok", Json.Bool true) ] in
  Json.write_file path v;
  Alcotest.(check bool) "written" true (Sys.file_exists path);
  Alcotest.(check bool) "no temp residue" false (Sys.file_exists (path ^ ".tmp"));
  (match Json.of_string (In_channel.with_open_text path In_channel.input_all) with
  | Ok v' -> Alcotest.(check bool) "round-trips" true (v = v')
  | Error e -> Alcotest.failf "unparseable json: %s" e);
  Sys.remove path

(* --- allocation-free replay ------------------------------------------- *)

let test_zero_alloc () =
  Tcache.clear ();
  let w = wl "synth" in
  let tr = Tcache.get ~warmup:4 ~requests:300 ~mode:Sim.Base w in
  let measure mode n =
    (* One throwaway run per size triggers any one-time lazy setup. *)
    ignore (Replay.replay_counters ~mode ~requests:n tr);
    let before = Gc.minor_words () in
    ignore (Replay.replay_counters ~mode ~requests:n tr);
    Gc.minor_words () -. before
  in
  (* Machine construction allocates the same amount for both run lengths,
     so the delta isolates per-request allocation: 200 extra requests of a
     truly allocation-free loop add ~nothing. *)
  let d100 = measure Sim.Base 100 in
  let d300 = measure Sim.Base 300 in
  if Float.abs (d300 -. d100) > 512.0 then
    Alcotest.failf "base replay allocates per request: 100->%.0f 300->%.0f words"
      d100 d300;
  (* Enhanced replay allocates only on the skip controller's bookkeeping
     paths (ABTB inserts and filter-driven clears), exactly as generate
     mode does — never per retired event.  Bound the words per control
     event; a per-event leak would blow through this by orders of
     magnitude. *)
  let e100 = measure Sim.Enhanced 100 in
  let e300 = measure Sim.Enhanced 300 in
  let c100 = Replay.replay_counters ~mode:Sim.Enhanced ~requests:100 tr in
  let c300 = Replay.replay_counters ~mode:Sim.Enhanced ~requests:300 tr in
  let control =
    c300.Counters.abtb_inserts - c100.Counters.abtb_inserts
    + (c300.Counters.abtb_clears - c100.Counters.abtb_clears)
  in
  let events =
    let sum = ref 0 in
    for r = 104 to 303 do
      sum := !sum + Trace.request_events tr r
    done;
    !sum
  in
  let per_control = (e300 -. e100) /. float_of_int (max 1 control) in
  let per_event = (e300 -. e100) /. float_of_int (max 1 events) in
  if per_control > 96.0 || per_event > 1.0 then
    Alcotest.failf
      "enhanced replay allocates too much: %.1f words/control-event (%d), \
       %.3f words/event (%d)"
      per_control control per_event events

(* Same property under the domain pool: each domain replays the shared
   trace with its own kernel, and minor-heap accounting is per-domain, so
   the measured words are that domain's replay loop alone.  A 300-request
   replay must not allocate measurably more than a 100-request one. *)
let test_domain_zero_alloc () =
  Tcache.clear ();
  let w = wl "synth" in
  let tr = Tcache.get ~warmup:4 ~requests:300 ~mode:Sim.Base w in
  let deltas =
    Dpool.map ~jobs:2
      (fun n ->
        ignore (Replay.replay_counters ~mode:Sim.Base ~requests:n tr);
        let before = Gc.minor_words () in
        ignore (Replay.replay_counters ~mode:Sim.Base ~requests:n tr);
        Gc.minor_words () -. before)
      [ 100; 300 ]
  in
  match deltas with
  | [ d100; d300 ] ->
      if Float.abs (d300 -. d100) > 512.0 then
        Alcotest.failf
          "domain replay allocates per request: 100->%.0f 300->%.0f words"
          d100 d300
  | _ -> Alcotest.fail "dpool dropped a result"

let () =
  Alcotest.run "trace"
    [
      ( "format",
        [
          Alcotest.test_case "manual round-trip" `Quick test_manual_round_trip;
          Alcotest.test_case "writer validation" `Quick test_writer_validation;
        ] );
      ("cache", [ Alcotest.test_case "keying and prefix" `Quick test_cache ]);
      ( "infra",
        [
          Alcotest.test_case "domain pool map" `Quick test_dpool_map;
          Alcotest.test_case "atomic json" `Quick test_json_atomic;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "replay is allocation-free" `Quick test_zero_alloc;
          Alcotest.test_case "domain replay is allocation-free" `Quick
            test_domain_zero_alloc;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
