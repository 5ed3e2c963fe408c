(* Tests for the runtime dynamic-loading stack: Dynload semantics, the
   churn driver, stable linking, and the churn differential oracle. *)

module Body = Dlink_obj.Body
module Objfile = Dlink_obj.Objfile
module C = Dlink_uarch.Counters
module Kernel = Dlink_pipeline.Kernel
module Process = Dlink_mach.Process
module Memory = Dlink_mach.Memory
module Churn = Dlink_core.Churn
module CO = Dlink_fault.Churn_oracle
module W = Dlink_workloads
open Dlink_linker

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let func ?(exported = true) fname body = { Objfile.fname; exported; body }

let scen = W.Churn.scenario ()

let call_entry (m : Churn.machine) i =
  let mname = scen.Churn.plugins.(i).Objfile.name in
  let addr =
    Option.get
      (Loader.func_addr m.Churn.linked ~mname ~fname:(scen.Churn.entry i))
  in
  Process.call m.Churn.process addr

let resolver_runs (m : Churn.machine) =
  (Kernel.counters m.Churn.kernel).C.resolver_runs

(* ---------------- dlopen / dlclose ---------------- *)

let test_reopen_reuses_base () =
  let m = Churn.make_machine ~link_mode:Mode.Stable_linking scen in
  let d = m.Churn.dynload in
  let h1 = Dynload.dlopen d scen.Churn.plugins.(0) in
  let b1 = Dynload.base_of d h1 in
  call_entry m 0;
  Dynload.dlclose d h1;
  checkb "closed" true (not (Dynload.is_open d h1));
  let h2 = Dynload.dlopen d scen.Churn.plugins.(0) in
  checki "base reused first-fit" b1 (Dynload.base_of d h2);
  checkb "fresh handle" true (h1 <> h2);
  (* Stable linking: the reopened module replays its GOT snapshot, so the
     first call after reopen never enters the resolver. *)
  let r0 = resolver_runs m in
  call_entry m 0;
  checki "no resolver after reopen" r0 (resolver_runs m);
  let s = Dynload.stats d in
  checkb "snapshot used" true (s.Dynload.stable_hits > 0);
  checki "no stale snapshot entries" 0 s.Dynload.stable_misses;
  checki "one reopen counted" 1 s.Dynload.reopens

let test_lazy_reopen_pays_resolver () =
  let m = Churn.make_machine ~link_mode:Mode.Lazy_binding scen in
  let d = m.Churn.dynload in
  let h = Dynload.dlopen d scen.Churn.plugins.(0) in
  call_entry m 0;
  let r_first = resolver_runs m in
  Dynload.dlclose d h;
  ignore (Dynload.dlopen d scen.Churn.plugins.(0) : Dynload.handle);
  call_entry m 0;
  checkb "lazy reopen re-resolves" true (resolver_runs m > r_first)

let test_refcount () =
  let m = Churn.make_machine ~link_mode:Mode.Lazy_binding scen in
  let d = m.Churn.dynload in
  let h = Dynload.dlopen d scen.Churn.plugins.(1) in
  let h' = Dynload.dlopen d scen.Churn.plugins.(1) in
  checkb "same handle" true (h = h');
  Dynload.dlclose d h;
  checkb "still open after one close" true (Dynload.is_open d h);
  Dynload.dlclose d h;
  checkb "closed after second" true (not (Dynload.is_open d h));
  checkb "double close raises" true
    (try
       Dynload.dlclose d h;
       false
     with Invalid_argument _ -> true)

let test_dlsym_tracks_open_set () =
  let m = Churn.make_machine ~link_mode:Mode.Lazy_binding scen in
  let d = m.Churn.dynload in
  let entry0 = scen.Churn.entry 0 in
  checkb "absent before open" true (Dynload.dlsym d entry0 = None);
  let h = Dynload.dlopen d scen.Churn.plugins.(0) in
  checkb "present while open" true (Dynload.dlsym d entry0 <> None);
  Dynload.dlclose d h;
  checkb "absent after close" true (Dynload.dlsym d entry0 = None)

(* ---------------- cross-module rebinding at dlclose ---------------- *)

(* pa imports pb's export: closing pb must rewrite pa's bound GOT slot
   back to the lazy stub (the binding is gone from the link map), and a
   reopened pb must let pa's next call re-resolve against the new map. *)
let rebind_scenario () =
  let base =
    [ Objfile.create_exn ~name:"app" [ func ~exported:false "main" [ Body.Compute 4 ] ] ]
  in
  let pb = Objfile.create_exn ~name:"pb" [ func "b_fn" [ Body.Compute 4 ] ] in
  let pa = Objfile.create_exn ~name:"pa" [ func "a_main" [ Body.Call_import "b_fn" ] ] in
  ( {
      Churn.sname = "rebind";
      base_objs = base;
      plugins = [| pb; pa |];
      n_resident = 2;
      preload = [];
      entry = (fun i -> if i = 0 then "b_fn" else "a_main");
      func_align = 16;
    },
    pa,
    pb )

let test_dlclose_rebinds_other_modules () =
  let rscen, pa, pb = rebind_scenario () in
  let m = Churn.make_machine ~link_mode:Mode.Lazy_binding rscen in
  let d = m.Churn.dynload in
  let hb = Dynload.dlopen d pb in
  ignore (Dynload.dlopen d pa : Dynload.handle);
  let a_entry =
    Option.get (Loader.func_addr m.Churn.linked ~mname:"pa" ~fname:"a_main")
  in
  Process.call m.Churn.process a_entry;
  let img_a = Option.get (Space.image_by_name m.Churn.linked.Loader.space "pa") in
  let slot = Option.get (Image.got_slot img_a "b_fn") in
  let mem = Process.memory m.Churn.process in
  checki "bound into pb" (Option.get (Dynload.dlsym d "b_fn")) (Memory.read mem slot);
  Dynload.dlclose d hb;
  checkb "rebind counted" true ((Dynload.stats d).Dynload.rebinds > 0);
  let stub = Option.get (Image.plt_entry img_a "b_fn") + 6 in
  checki "slot back to lazy stub" stub (Memory.read mem slot);
  (* Reopen the provider: the stub path re-resolves on the next call. *)
  ignore (Dynload.dlopen d pb : Dynload.handle);
  Process.call m.Churn.process a_entry;
  checki "rebound to reopened pb"
    (Option.get (Dynload.dlsym d "b_fn"))
    (Memory.read mem slot)

let test_deferred_invalidation_flushes_fifo () =
  let rscen, pa, pb = rebind_scenario () in
  let m = Churn.make_machine ~link_mode:Mode.Lazy_binding rscen in
  let d = m.Churn.dynload in
  let hb = Dynload.dlopen d pb in
  ignore (Dynload.dlopen d pa : Dynload.handle);
  let a_entry =
    Option.get (Loader.func_addr m.Churn.linked ~mname:"pa" ~fname:"a_main")
  in
  Process.call m.Churn.process a_entry;
  let img_a = Option.get (Space.image_by_name m.Churn.linked.Loader.space "pa") in
  let slot = Option.get (Image.got_slot img_a "b_fn") in
  let mem = Process.memory m.Churn.process in
  let bound = Memory.read mem slot in
  Dynload.dlclose ~defer_invalidate:true d hb;
  checki "one pending" 1 (Dynload.pending_invalidations d);
  (* The hazard window: mapping gone, stale binding still live. *)
  checki "stale binding survives unmap" bound (Memory.read mem slot);
  Dynload.flush_pending d;
  checki "flushed" 0 (Dynload.pending_invalidations d);
  let stub = Option.get (Image.plt_entry img_a "b_fn") + 6 in
  checki "slot rewritten at flush" stub (Memory.read mem slot)

(* Two providers closed (deferred) within one scheduling quantum must
   flush in close order at the next quantum boundary — the soak loop
   calls [flush_pending] at each op, so a LIFO queue would replay the
   unload hazards backwards.  Eager binding writes resolved addresses at
   dlopen, so the consumer's slots point into the providers without
   running any code, and a recording [store] observes the flush order
   directly. *)
let test_deferred_invalidations_flush_in_close_order () =
  let app =
    Objfile.create_exn ~name:"app" [ func ~exported:false "main" [ Body.Compute 4 ] ]
  in
  let pb = Objfile.create_exn ~name:"pb" [ func "b_fn" [ Body.Compute 4 ] ] in
  let pc = Objfile.create_exn ~name:"pc" [ func "c_fn" [ Body.Compute 4 ] ] in
  let pa =
    Objfile.create_exn ~name:"pa"
      [ func "a_main" [ Body.Call_import "b_fn"; Body.Call_import "c_fn" ] ]
  in
  let opts = { Loader.default_options with Loader.mode = Mode.Eager_binding } in
  let linked = Loader.load_exn ~opts [ app ] in
  let mem : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let writes = ref [] in
  let store a v =
    writes := a :: !writes;
    Hashtbl.replace mem a v
  in
  let read a = Option.value (Hashtbl.find_opt mem a) ~default:0 in
  let d = Dynload.create ~store ~read linked in
  let hb = Dynload.dlopen d pb in
  let hc = Dynload.dlopen d pc in
  ignore (Dynload.dlopen d pa : Dynload.handle);
  let img_a = Option.get (Space.image_by_name linked.Loader.space "pa") in
  let slot_b = Option.get (Image.got_slot img_a "b_fn") in
  let slot_c = Option.get (Image.got_slot img_a "c_fn") in
  checki "b bound eagerly" (Option.get (Dynload.dlsym d "b_fn")) (read slot_b);
  checki "c bound eagerly" (Option.get (Dynload.dlsym d "c_fn")) (read slot_c);
  let bound_b = read slot_b and bound_c = read slot_c in
  Dynload.dlclose ~defer_invalidate:true d hb;
  Dynload.dlclose ~defer_invalidate:true d hc;
  checki "two pending" 2 (Dynload.pending_invalidations d);
  (* The quantum in between: both mappings are gone, both stale bindings
     are still live. *)
  checki "b's stale binding survives" bound_b (read slot_b);
  checki "c's stale binding survives" bound_c (read slot_c);
  writes := [];
  Dynload.flush_pending d;
  checki "queue drained" 0 (Dynload.pending_invalidations d);
  checkb "both slots invalidated" true
    (read slot_b <> bound_b && read slot_c <> bound_c);
  let order = List.rev !writes in
  let pos slot =
    let rec go i = function
      | [] -> Alcotest.failf "slot 0x%x never rewritten" slot
      | a :: _ when a = slot -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 order
  in
  checkb "FIFO: first close flushes first" true (pos slot_b < pos slot_c);
  (* Flushing an empty queue at the next boundary is a no-op. *)
  writes := [];
  Dynload.flush_pending d;
  checki "no writes on empty flush" 0 (List.length !writes)

(* ---------------- grace-period unmap and the ABA hazard ---------------- *)

module Coherence = Dlink_mach.Coherence

let test_aba_reuse_discards_delayed_invalidation () =
  (* The first-fit ABA hazard at unit level: an invalidation delayed past
     its module's dlclose must not be applied once the address range
     belongs to a new mapping.  The generation stamp is the defence. *)
  let m = Churn.make_machine ~link_mode:Mode.Lazy_binding scen in
  let d = m.Churn.dynload in
  let bus = Coherence.create () in
  let delivered = ref 0 in
  Coherence.subscribe bus ~core:1 (fun ~src:_ _addr -> incr delivered);
  Coherence.set_validate bus
    (Some
       (fun ~src:_ ~stamp addr ->
         (match Dynload.generation_at d addr with Some g -> g | None -> -1)
         = stamp));
  let h1 = Dynload.dlopen d scen.Churn.plugins.(0) in
  let base = Dynload.base_of d h1 in
  let g1 = Option.get (Dynload.generation_at d base) in
  Coherence.set_fault bus (Some (fun ~src:_ _ -> Coherence.Delay));
  Coherence.publish ~stamp:g1 bus ~src:0 base;
  Coherence.set_fault bus None;
  checki "invalidation parked in flight" 1 (Coherence.pending bus);
  Dynload.dlclose d h1;
  let h2 = Dynload.dlopen d scen.Churn.plugins.(0) in
  checki "range reused first-fit" base (Dynload.base_of d h2);
  let g2 = Option.get (Dynload.generation_at d base) in
  checkb "generation advanced across close/reopen" true (g2 > g1);
  ignore (Coherence.drain bus : int);
  checki "stale invalidation not applied" 0 !delivered;
  checki "counted as an ABA discard" 1 (Coherence.stale_discards bus);
  checki "resolved, not parked" 0 (Coherence.pending bus);
  (* A message stamped with the live generation goes through. *)
  Coherence.publish ~stamp:g2 bus ~src:0 base;
  checki "fresh invalidation applied" 1 !delivered

let test_unmap_grace_period_and_force () =
  let m = Churn.make_machine ~link_mode:Mode.Lazy_binding scen in
  let d = m.Churn.dynload in
  let bus = Coherence.create () in
  Coherence.subscribe bus ~core:1 (fun ~src:_ _ -> ());
  let timeouts = ref 0 in
  Coherence.set_on_timeout bus
    (Some (fun ~core:_ ~src:_ _addr -> incr timeouts));
  Dynload.set_unmap_barrier d
    (Some
       (fun ~span_base:_ ~span_end:_ ~complete -> Coherence.fence bus ~complete));
  let park_message addr =
    Coherence.set_fault bus (Some (fun ~src:_ _ -> Coherence.Delay));
    Coherence.publish bus ~src:0 addr;
    Coherence.set_fault bus None
  in
  let h = Dynload.dlopen d scen.Churn.plugins.(0) in
  let base = Dynload.base_of d h in
  park_message base;
  Dynload.dlclose d h;
  checkb "handle closed immediately" true (not (Dynload.is_open d h));
  checki "unmap parked on the barrier" 1 (Dynload.retiring_count d);
  checki "grace period counted" 1 (Dynload.stats d).Dynload.grace_unmaps;
  (* Natural completion: the drain delivers the laggard, every ack
     arrives, and the unmap lands without forcing anyone. *)
  ignore (Coherence.drain bus : int);
  checki "grace period over" 0 (Dynload.retiring_count d);
  checki "nothing forced" 0 (Dynload.stats d).Dynload.forced_unmaps;
  checki "nobody timed out" 0 !timeouts;
  (* Reuse pressure: a dlopen of the retiring module forces the barrier
     rather than waiting for a drain that may never come. *)
  let h2 = Dynload.dlopen d scen.Churn.plugins.(0) in
  park_message base;
  Dynload.dlclose d h2;
  checki "second grace period" 1 (Dynload.retiring_count d);
  let h3 = Dynload.dlopen d scen.Churn.plugins.(0) in
  checki "reopen forced the unmap" 1 (Dynload.stats d).Dynload.forced_unmaps;
  checki "laggard core timed out" 1 !timeouts;
  checki "range reusable after the forced unmap" base (Dynload.base_of d h3);
  checki "nothing retiring" 0 (Dynload.retiring_count d);
  (* Teardown: force_retiring resolves whatever is still waiting. *)
  park_message base;
  Dynload.dlclose d h3;
  checki "one forced at teardown" 1 (Dynload.force_retiring d);
  checki "teardown force counted" 2 (Dynload.stats d).Dynload.forced_unmaps;
  checki "idempotent" 0 (Dynload.force_retiring d)

(* ---------------- churn driver and stable linking ---------------- *)

let test_stable_beats_lazy_resolver_runs () =
  let lazy_c =
    Churn.run_cell ~link_mode:Mode.Lazy_binding ~rate:200 ~calls:800 ~seed:5 scen
  in
  let stable_c =
    Churn.run_cell ~link_mode:Mode.Stable_linking ~rate:200 ~calls:800 ~seed:5
      scen
  in
  let lr = lazy_c.Churn.counters.C.resolver_runs
  and sr = stable_c.Churn.counters.C.resolver_runs in
  checkb "churn happened" true (lazy_c.Churn.churn_events > 0);
  checkb "lazy pays the resolver" true (lr > 100);
  checkb "stable mostly skips it" true (sr * 10 < lr);
  checkb "snapshots actually hit" true (stable_c.Churn.stable_hits > 0);
  checki "no stale snapshot entries" 0 stable_c.Churn.stable_misses;
  checki "opens balance closes" stable_c.Churn.opens stable_c.Churn.closes;
  checks "lazy cell pinned"
    "lazy r200 calls=800 churn=144 opens=144 closes=144 rebinds=0 \
     stable=0/0 | 292447 592209 2 3290 725 0 0 27880 7974 2174 5390 7037 \
     4535 4535 1780 134 49 0 2649 722 0 0 0 0 0"
    (Pin.cell lazy_c);
  checks "stable cell pinned"
    "stable r200 calls=800 churn=144 opens=144 closes=144 rebinds=0 \
     stable=808/0 | 237855 414010 2 459 394 0 0 25020 6199 1783 1820 7037 \
     5265 5265 1760 98 1 0 2747 12 0 0 0 0 0"
    (Pin.cell stable_c)

let test_run_cell_deterministic () =
  let run () =
    Churn.run_cell ~link_mode:Mode.Stable_linking ~rate:150 ~calls:300 ~seed:11
      scen
  in
  let c = run () in
  checks "cell pinned"
    "stable r150 calls=300 churn=50 opens=50 closes=50 rebinds=0 \
     stable=270/0 | 90856 203832 2 411 378 0 0 9531 2360 778 815 2649 1882 \
     1882 755 38 1 0 946 12 0 0 0 0 0"
    (Pin.cell c);
  checks "bit-identical reruns" (Pin.cell c) (Pin.cell (run ()))

(* ---------------- churn differential oracle ---------------- *)

let test_churn_oracle_clean_without_faults () =
  List.iter
    (fun (link_mode, stable_hits, pin) ->
      let r = CO.run ~link_mode ~rate:200 ~ops:400 ~seed:9 scen in
      checkb "churned" true (r.CO.churn_events > 0);
      checki "no mis-skips" 0 r.CO.mis_skips;
      checki "nothing unclassified" 0 r.CO.unclassified;
      checkb "skips happened" true (r.CO.skips > 0);
      checks "report pinned" pin (Pin.oracle r);
      checki "stable hits pinned" stable_hits r.CO.stable_hits;
      checki "no stale snapshot entries" 0 r.CO.stable_misses)
    [
      ( Mode.Lazy_binding,
        0,
        "ops=400 churn=81 mis=0 lost=1330 unclassified=0 div=0:d41d8cd98f00 \
         | 151413 427795 60 2027 984 7 21 14280 4196 1283 3168 3500 2060 2060 \
         1008 73 29 0 1548 432 0 1330 0 0 0" );
      ( Mode.Eager_binding,
        0,
        "ops=400 churn=81 mis=0 lost=946 unclassified=0 div=0:d41d8cd98f00 | \
         117745 262398 56 451 473 7 12 12580 3129 1070 1036 3500 2464 2464 \
         1036 54 0 0 1116 0 0 946 0 0 0" );
      ( Mode.Stable_linking,
        445,
        "ops=400 churn=81 mis=0 lost=963 unclassified=0 div=0:d41d8cd98f00 | \
         120827 303758 60 637 658 7 21 12701 3189 1094 1191 3500 2445 2445 \
         1021 55 2 0 1595 34 0 963 0 0 0" );
    ]

let test_churn_oracle_classifies_unload_faults () =
  let plan =
    match
      Dlink_fault.Plan.of_string "seed=1;60:unload_inflight;140:stale_unload*1"
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let r =
    CO.run ~plan ~link_mode:Mode.Lazy_binding ~rate:250 ~ops:400 ~seed:9 scen
  in
  checkb "faults armed and injected" true (r.CO.faults_injected > 0);
  (* Whatever the stale entries cause must be classified: a divergence
     the taxonomy cannot attribute would show up here. *)
  checki "nothing unclassified" 0 r.CO.unclassified;
  checks "report pinned"
    "ops=400 churn=95 mis=0 lost=1407 unclassified=0 div=0:d41d8cd98f00 | \
     154528 434689 60 2183 982 7 21 14355 4341 1337 3457 3449 1920 1920 1047 \
     86 38 0 1777 482 0 1407 0 0 2"
    (Pin.oracle r);
  checki "no snapshots under lazy binding" 0
    (r.CO.stable_hits + r.CO.stable_misses)

let test_churn_oracle_reference_crash_classified () =
  (* An unguarded GOT rewrite can send even the reference machine into a
     function that never returns to its frame.  The bounded-fuel call
     turns that into unclassified ops instead of an escaping
     [Process.Fault]. *)
  let plan =
    match Dlink_fault.Plan.of_string "seed=5;900:got_rewrite" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let r =
    CO.run ~plan ~link_mode:Mode.Lazy_binding ~rate:50 ~ops:2000 ~seed:42 scen
  in
  checkb "crashed ops counted as unclassified" true (r.CO.unclassified > 0);
  checki "unclassified ops pinned" 47 r.CO.unclassified;
  checki "the one fault fired" 1 r.CO.faults_injected;
  (* The device under test skips every op the reference crashed on, so it
     never burns a whole call's fuel. *)
  checkb "no crashed op run on the device" true
    (r.CO.counters.C.instructions < Churn.call_fuel)

(* ---------------- property tests ---------------- *)

let qcheck_tests =
  [
    (* Precedence is an invariant of the definitions, not of the order
       they arrived in: preload > default > non-default under every
       interleaving. *)
    QCheck.Test.make ~name:"versioning precedence is order-independent"
      ~count:100
      QCheck.(pair bool (int_range 0 5))
      (fun (have_preload, rot) ->
        let m = Linkmap.create () in
        let defs =
          [
            (fun id -> Linkmap.define m ~symbol:"f@v1" ~addr:1000 ~image_id:id ());
            (fun id -> Linkmap.define m ~symbol:"f@@v2" ~addr:2000 ~image_id:id ());
          ]
          @
          if have_preload then
            [
              (fun id ->
                Linkmap.define m ~preload:true ~symbol:"f" ~addr:3000
                  ~image_id:id ());
            ]
          else []
        in
        let n = List.length defs in
        let rot = rot mod n in
        let defs = List.filteri (fun i _ -> i >= rot) defs
                   @ List.filteri (fun i _ -> i < rot) defs in
        List.iteri (fun i f -> f i) defs;
        Linkmap.lookup_addr m "f" = Some (if have_preload then 3000 else 2000)
        && Linkmap.lookup_addr m "f@v1"
           = Some (if have_preload then 3000 else 1000)
        && Linkmap.lookup_addr m "f@v2"
           = Some (if have_preload then 3000 else 2000));
    (* open -> call -> close cycles under stable linking are idempotent:
       the base is reused, the snapshot replays, and no cycle after the
       first runs the resolver. *)
    QCheck.Test.make ~name:"stable open/close/open cycles are idempotent"
      ~count:8
      QCheck.(pair (int_range 0 5) (int_range 1 3))
      (fun (pi, cycles) ->
        let m = Churn.make_machine ~link_mode:Mode.Stable_linking scen in
        let d = m.Churn.dynload in
        let h0 = Dynload.dlopen d scen.Churn.plugins.(pi) in
        let base0 = Dynload.base_of d h0 in
        call_entry m pi;
        Dynload.dlclose d h0;
        let r0 = resolver_runs m in
        let ok = ref true in
        for _ = 1 to cycles do
          let h = Dynload.dlopen d scen.Churn.plugins.(pi) in
          if Dynload.base_of d h <> base0 then ok := false;
          call_entry m pi;
          Dynload.dlclose d h
        done;
        !ok
        && resolver_runs m = r0
        && (Dynload.stats d).Dynload.stable_misses = 0);
  ]

let () =
  Alcotest.run "dlink_dynload"
    [
      ( "dlopen_dlclose",
        [
          Alcotest.test_case "stable reopen reuses base, skips resolver" `Quick
            test_reopen_reuses_base;
          Alcotest.test_case "lazy reopen re-resolves" `Quick
            test_lazy_reopen_pays_resolver;
          Alcotest.test_case "refcount" `Quick test_refcount;
          Alcotest.test_case "dlsym visibility" `Quick test_dlsym_tracks_open_set;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "dlclose rebinds other modules" `Quick
            test_dlclose_rebinds_other_modules;
          Alcotest.test_case "deferred invalidation" `Quick
            test_deferred_invalidation_flushes_fifo;
          Alcotest.test_case "deferred invalidations flush in close order"
            `Quick test_deferred_invalidations_flush_in_close_order;
        ] );
      ( "grace_period",
        [
          Alcotest.test_case "ABA reuse discards delayed invalidation" `Quick
            test_aba_reuse_discards_delayed_invalidation;
          Alcotest.test_case "unmap grace period and force" `Quick
            test_unmap_grace_period_and_force;
        ] );
      ( "churn_driver",
        [
          Alcotest.test_case "stable beats lazy on resolver runs" `Quick
            test_stable_beats_lazy_resolver_runs;
          Alcotest.test_case "run_cell deterministic" `Quick
            test_run_cell_deterministic;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "clean plan, every mode" `Quick
            test_churn_oracle_clean_without_faults;
          Alcotest.test_case "unload faults classified" `Quick
            test_churn_oracle_classifies_unload_faults;
          Alcotest.test_case "reference crash classified" `Quick
            test_churn_oracle_reference_crash_classified;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
