(* Tests for the multi-core soak/chaos harness and the multi-core
   differential oracle.  Every report is pinned field by field.

   The invariants:
   - a soak is a pure function of its arguments: equal params and plan
     give bit-identical reports;
   - a [cores = 1] soak retires counters bit-identical to the equivalent
     churn-grid cell, so multi-core soaks stay comparable to the perf
     grid (crosscheck);
   - a clean soak — no fault plan — finishes with zero violations, zero
     crashes, a fully conserved bus, and nothing left in flight;
   - every seeded fault class ends either recovered (retry, epoch-guard
     discard, timeout-degrade) or caught as a classified violation,
     never as a silent wrong-target skip;
   - a failing plan ddmin-shrinks to a minimal sub-plan that still
     fails. *)

module C = Dlink_uarch.Counters
module P = Dlink_fault.Plan
module S = Dlink_fault.Soak
module I = Dlink_fault.Invariant
module CO = Dlink_fault.Churn_oracle
module Policy = Dlink_pipeline.Policy
module Mode = Dlink_linker.Mode

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let scen = Dlink_workloads.Churn.scenario ()

let plan_exn s =
  match P.of_string s with Ok p -> p | Error e -> Alcotest.fail e

let params ?(cores = 4) ?(rate = 100) ?(ops = 1500) ?(seed = 7) () =
  { S.default_params with S.cores; rate; ops; seed }

let checks = Alcotest.(check string)

(* Exact pins of the soaks below (see pin.ml for the field order). *)
let clean_pin =
  "ops=1500 churn=151 migrations=23 crashes=0 checks=506068 \
    violations=0 unmapped=0 stale_skips=0 stale_msgs=0 aba=0 \
    recorded=0:d41d8cd98f00 first=- guard=true \
    bus=2856/8568/2856/0/0/0/0/0/0 dynload=155/151/0/0/0 retiring=0 \
    faults=0 | 502508 1399274 182 5155 3373 21 63 49451 12620 3389 \
    6727 13168 9561 9561 2827 181 59 23 2804 780 0 0 0 0 0 | 128534 \
    312353 2 1101 640 0 0 12741 3247 779 1557 3408 2551 2551 682 43 12 \
    6 656 175 0 0 0 0 0 / 128835 369052 60 1398 914 7 21 12614 3217 \
    897 1793 3362 2413 2413 738 49 16 6 803 211 0 0 0 0 0 / 126878 \
    364198 60 1340 906 7 21 12468 3176 856 1705 3327 2422 2422 705 46 \
    14 6 670 200 0 0 0 0 0 / 118261 353671 60 1316 913 7 21 11628 2980 \
    857 1672 3071 2175 2175 702 43 17 5 675 194 0 0 0 0 0"

let rewrite_pin =
  "ops=2000 churn=98 migrations=31 crashes=0 checks=631762 \
    violations=10 unmapped=0 stale_skips=10 stale_msgs=0 aba=0 \
    recorded=10:95409d60b9d0 first=900 guard=true \
    bus=1904/5712/1904/0/0/0/0/0/0 dynload=102/98/0/0/0 retiring=0 \
    faults=1 | 628434 1512361 182 4670 3212 21 63 62685 14215 3051 \
    5270 17567 14489 14489 2530 142 33 30 1852 548 0 0 0 0 1 | 157235 \
    334808 2 1001 599 0 0 15749 3445 625 1127 4468 3801 3801 552 30 6 \
    8 383 115 0 0 0 0 1 / 162127 407084 60 1340 900 7 21 16143 3753 \
    911 1600 4479 3571 3571 735 44 8 8 598 173 0 0 0 0 0 / 162321 \
    399199 60 1203 874 7 21 16102 3668 775 1306 4508 3742 3742 631 34 \
    10 7 452 135 0 0 0 0 0 / 146751 371270 60 1126 839 7 21 14691 3349 \
    740 1237 4112 3375 3375 612 34 9 7 419 125 0 0 0 0 0"

(* ---------------- determinism and bit-identity ---------------- *)

let test_soak_deterministic () =
  let go () = S.run (params ()) scen in
  let r = go () in
  checkb "bit-identical reports" true (r = go ());
  checks "report pinned" clean_pin (Pin.soak r)

let test_crosscheck_matches_churn_cell () =
  (* Both run on the churn machine; the crosscheck runs both at cores=1
     and compares full counter sets, so the soak's taps and injector
     must leave the machine alone. *)
  match S.crosscheck (params ~seed:11 ()) scen with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* ---------------- clean-run safety ---------------- *)

let test_clean_soak_no_violations () =
  let r = S.run (params ()) scen in
  checkb "the soak exercised churn" true (r.S.churn_events > 0);
  checkb "the thread migrated" true (r.S.migrations > 0);
  checkb "invariants were checked" true (r.S.checks > 0);
  checki "no violations" 0 r.S.violations;
  checki "no crashes" 0 r.S.crashes;
  checkb "bus carried traffic" true (r.S.bus.S.published > 0);
  checki "everything acked" r.S.bus.S.published r.S.bus.S.acked;
  checki "nothing unresolved" 0 r.S.bus.S.unresolved;
  checki "nothing retiring after quiesce" 0 r.S.retiring;
  checki "four per-core counter sets" 4 (Array.length r.S.per_core);
  checkb "every core retired work" true
    (Array.for_all (fun c -> c.C.instructions > 0) r.S.per_core);
  checkb "clean-plan properties all hold" true (S.check r = []);
  checks "report pinned" clean_pin (Pin.soak r)

let test_one_core_has_no_bus () =
  (* One core has no other core to invalidate: a message-drop burst is
     injected and changes nothing else, and nothing is published. *)
  let plan = plan_exn "seed=3;100:drop_msgs*400" in
  let p = params ~cores:1 () in
  let clean = S.run p scen and r = S.run ~plan p scen in
  checki "the burst was injected" 1 r.S.faults_injected;
  checki "nothing published" 0 r.S.bus.S.published;
  checki "nothing timed out" 0 r.S.bus.S.timeouts;
  checks "counters equal the clean run's, fault_injected aside"
    (Pin.counters clean.S.counters)
    (Pin.counters { r.S.counters with C.fault_injected = 0 });
  checkb "properties hold" true (S.check ~plan r = [])

(* ---------------- seeded fault classes ---------------- *)

let test_dropped_invalidations_recovered_by_retry () =
  let plan = plan_exn "seed=3;200:drop_msgs*2" in
  (* quantum 1: the bus drains every op, so the retry reaches the parked
     message before any unmap fence can force it out as a timeout. *)
  let r = S.run ~plan { (params ()) with S.quantum = 1 } scen in
  checkb "drops were injected" true (r.S.bus.S.dropped > 0);
  checkb "the bus retried" true (r.S.bus.S.retries > 0);
  checki "every message got through" 0 r.S.bus.S.timeouts;
  checki "no violations" 0 r.S.violations;
  checkb "recovered, not failed" false (S.failed ~plan r);
  checkb "seeded-plan properties hold" true (S.check ~plan r = []);
  checks "report pinned"
    "ops=1500 churn=151 migrations=1499 crashes=0 checks=507879 \
    violations=0 unmapped=0 stale_skips=0 stale_msgs=0 aba=0 \
    recorded=0:d41d8cd98f00 first=- guard=true \
    bus=2856/8568/2856/2/2/0/0/0/0 dynload=155/151/0/1/0 retiring=0 \
    faults=1 | 504319 1453440 207 5205 3424 25 71 51262 15141 5235 \
    8538 13168 7750 7750 4638 351 70 229 2804 780 0 0 0 0 1 | 128813 \
    331701 8 1294 676 1 2 12932 3838 1258 2241 3291 1946 1946 1121 85 \
    16 55 782 224 0 0 0 0 1 / 123329 369270 67 1243 908 8 23 12711 \
    3727 1341 2021 3294 1925 1925 1206 90 14 60 622 163 0 0 0 0 0 / \
    126437 375229 66 1288 910 8 23 12917 3858 1332 2090 3323 1961 1961 \
    1180 88 19 62 624 182 0 0 0 0 0 / 125740 377240 66 1380 930 8 23 \
    12702 3718 1304 2186 3260 1918 1918 1131 88 21 52 776 211 0 0 0 0 \
    0"
    (Pin.soak r)

let test_drop_burst_times_out_and_degrades () =
  (* A burst larger than the retry budget can absorb: laggard cores are
     timed out and degraded (whole-core flush + skip suppression), which
     keeps them correct — zero violations — at the cost of skips. *)
  let plan = plan_exn "seed=3;100:drop_msgs*400" in
  let r = S.run ~plan (params ()) scen in
  checkb "messages timed out" true (r.S.bus.S.timeouts > 0);
  checkb "timed-out cores degraded" true (r.S.counters.C.timeout_degrades > 0);
  checki "degradation kept execution correct" 0 r.S.violations;
  checki "no crashes" 0 r.S.crashes;
  checkb "conservation holds under the burst" true (S.check ~plan r = []);
  checks "report pinned"
    "ops=1500 churn=151 migrations=23 crashes=0 checks=506315 \
    violations=0 unmapped=0 stale_skips=0 stale_msgs=0 aba=0 \
    recorded=0:d41d8cd98f00 first=- guard=true \
    bus=2856/7806/2602/400/146/0/254/0/0 dynload=155/151/0/17/15 \
    retiring=0 faults=1 | 503009 1446211 233 5281 3561 28 77 49952 \
    13106 3913 7228 13168 9060 9060 3328 178 59 20 2804 780 0 0 0 7 1 \
    | 128593 320920 9 1145 675 1 2 12800 3321 837 1616 3408 2492 2492 \
    741 42 12 5 656 175 0 0 0 1 1 / 128891 376962 75 1420 948 9 25 \
    12670 3263 971 1849 3362 2357 2357 794 48 16 5 803 211 0 0 0 1 0 / \
    127124 382006 74 1365 976 9 25 12714 3394 1098 1951 3327 2176 2176 \
    951 45 14 5 670 200 0 0 0 4 0 / 118401 366323 75 1351 962 9 25 \
    11768 3128 1007 1812 3071 2035 2035 842 43 17 5 675 194 0 0 0 1 0"
    (Pin.soak r)

let test_delay_reorder_recovered_in_order () =
  (* Delayed and reordered messages drain at quantum boundaries (or are
     timed out by a forced unmap fence); either way no stale state is
     trusted and no violation escapes. *)
  let plan = plan_exn "seed=3;150:delay_msgs*30;400:reorder_msgs*30" in
  let r = S.run ~plan (params ()) scen in
  checki "no violations" 0 r.S.violations;
  checkb "properties hold" true (S.check ~plan r = []);
  checks "report pinned"
    "ops=1500 churn=151 migrations=23 crashes=0 checks=506238 \
    violations=0 unmapped=0 stale_skips=0 stale_msgs=0 aba=0 \
    recorded=0:d41d8cd98f00 first=- guard=true \
    bus=2856/8478/2826/0/0/0/30/0/0 dynload=155/151/0/7/4 retiring=0 \
    faults=2 | 502708 1422071 211 5230 3463 25 71 49651 12861 3616 \
    6927 13168 9361 9361 3027 181 59 23 2804 780 0 0 0 3 2 | 128598 \
    313478 2 1098 638 0 0 12805 3336 848 1621 3408 2487 2487 746 43 12 \
    6 656 175 0 0 0 1 2 / 128907 369184 60 1392 908 7 21 12686 3291 \
    972 1865 3362 2341 2341 810 49 16 6 803 211 0 0 0 1 0 / 126880 \
    376217 76 1400 963 9 25 12470 3187 878 1707 3327 2420 2420 707 46 \
    14 6 670 200 0 0 0 0 0 / 118323 363192 73 1340 954 9 25 11690 3047 \
    918 1734 3071 2113 2113 764 43 17 5 675 194 0 0 0 1 0"
    (Pin.soak r)

let test_got_rewrite_caught_as_stale_skip () =
  (* The one fault that bypasses the retire stream (and hence the Bloom
     filter and the bus).  Low churn rate widens the stale window so the
     skip unit actually consumes the poisoned entry — and the checker
     must catch every such skip. *)
  let plan = plan_exn "seed=5;900:got_rewrite" in
  let r = S.run ~plan (params ~rate:50 ~ops:2000 ~seed:42 ()) scen in
  checkb "caught" true (S.failed ~plan r);
  checkb "classified as stale skips" true (r.S.stale_skips > 0);
  checki "every violation is the stale skip" r.S.violations r.S.stale_skips;
  checkb "first violation op recorded" true (r.S.first_violation_op <> None);
  (match r.S.recorded with
  | I.Stale_skip _ :: _ -> ()
  | _ -> Alcotest.fail "expected a recorded stale-skip violation");
  checkb "properties beyond the seeded violation hold" true
    (S.check ~plan r = []);
  checks "report pinned" rewrite_pin (Pin.soak r)

(* ---------------- shrinking ---------------- *)

let test_shrink_isolates_the_culprit () =
  let plan =
    plan_exn "seed=5;400:bloom_flip;500:spurious_clear;700:drop_msgs*2;900:got_rewrite"
  in
  let p = params ~rate:50 ~ops:2000 ~seed:42 () in
  let r = S.run ~plan p scen in
  checkb "full plan fails" true (S.failed ~plan r);
  checks "full-plan report pinned"
    "ops=2000 churn=98 migrations=31 crashes=0 checks=626100 \
    violations=18 unmapped=0 stale_skips=18 stale_msgs=0 aba=0 \
    recorded=18:e319e3faa242 first=903 guard=true \
    bus=1904/5712/1904/2/2/0/0/0/0 dynload=102/98/0/1/0 retiring=0 \
    faults=4 | 622772 1510494 189 4698 3236 22 66 62216 14130 3060 \
    5282 17410 14320 14320 2542 142 33 30 1852 548 0 0 0 0 4 | 156727 \
    334712 2 990 602 0 0 15747 3445 615 1124 4464 3800 3800 549 30 6 8 \
    383 115 0 0 0 0 4 / 162327 407373 60 1340 900 7 21 16174 3760 903 \
    1599 4477 3570 3570 734 44 8 8 598 173 0 0 0 0 0 / 160314 396735 \
    60 1196 875 7 22 15894 3629 772 1300 4446 3686 3686 625 34 10 7 \
    452 135 0 0 0 0 0 / 143404 371674 67 1172 859 8 23 14401 3296 770 \
    1259 4023 3264 3264 634 34 9 7 419 125 0 0 0 0 0"
    (Pin.soak r);
  let shrunk, sr = S.shrink p ~plan scen in
  checkb "shrunk plan still fails" true (S.failed ~plan:shrunk sr);
  checki "minimal plan is a single event" 1 (List.length shrunk.P.events);
  checkb "the culprit is the rewrite" true (P.has_rewrite shrunk);
  checks "shrunk report pinned" rewrite_pin (Pin.soak sr);
  (* The printed form replays to the same report. *)
  let replayed = plan_exn (P.to_string shrunk) in
  checkb "reproducer replays bit-identically" true
    (S.run ~plan:replayed p scen = sr)

(* ---------------- multi-core differential oracle ---------------- *)

let run_multi ?plan ~rate ~ops ~seed () =
  CO.run ?plan ~cores:4 ~quantum:64 ~policy:Policy.Asid_shared_guard
    ~link_mode:Mode.Lazy_binding ~rate ~ops ~seed scen

let test_run_multi_clean () =
  let r = run_multi ~rate:150 ~ops:800 ~seed:9 () in
  checkb "churned" true (r.CO.churn_events > 0);
  checkb "migrated" true (r.CO.migrations > 0);
  checki "no mis-skips" 0 r.CO.mis_skips;
  checki "nothing unclassified" 0 r.CO.unclassified;
  checki "no stale-unload divergences" 0 r.CO.stale_unload;
  checki "four per-core classifications" 4 (Array.length r.CO.per_core);
  checks "report pinned"
    "ops=800 churn=121 mis=0 lost=2395 unclassified=0 \
    div=0:d41d8cd98f00 | 287466 1091129 240 4085 3355 28 84 27621 7523 \
    2409 5075 7019 4520 4520 1855 121 42 12 2285 644 0 2395 0 0 0"
    (Pin.oracle r);
  checks "per-core pinned"
    "migrations=12 stale_unload=0 timeouts=0 \
    cores=0/653/0/0,0/620/0/0,0/545/0/0,0/577/0/0"
    (Pin.per_core r)

let test_run_multi_classifies_rewrite_per_core () =
  let plan = plan_exn "seed=5;900:got_rewrite" in
  let r = run_multi ~plan ~rate:50 ~ops:2000 ~seed:42 () in
  checkb "divergences observed" true (r.CO.mis_skips > 0);
  let per_core_sum =
    Array.fold_left (fun a c -> a + c.CO.c_mis_skips) 0 r.CO.per_core
  in
  checki "per-core mis-skips sum to the system total" r.CO.mis_skips
    per_core_sum;
  checks "report pinned"
    "ops=2000 churn=98 mis=1 lost=3085 unclassified=0 \
    div=1:152c4bf4531f | 632451 1574117 240 4887 3482 28 84 63092 \
    14386 3188 5465 17642 14457 14457 2615 143 34 30 1904 570 1 3085 1 \
    0 1"
    (Pin.oracle r);
  checks "per-core pinned"
    "migrations=31 stale_unload=0 timeouts=0 \
    cores=0/622/0/0,0/905/0/0,1/824/0/0,0/734/0/0"
    (Pin.per_core r)

let () =
  Alcotest.run "dlink_soak"
    [
      ( "identity",
        [
          Alcotest.test_case "deterministic" `Quick test_soak_deterministic;
          Alcotest.test_case "cores=1 bit-identical to churn cell" `Quick
            test_crosscheck_matches_churn_cell;
        ] );
      ( "clean",
        [
          Alcotest.test_case "clean 4-core soak holds every invariant" `Quick
            test_clean_soak_no_violations;
        ] );
      ( "fault classes",
        [
          Alcotest.test_case "drop recovered by retry" `Quick
            test_dropped_invalidations_recovered_by_retry;
          Alcotest.test_case "drop burst times out and degrades" `Quick
            test_drop_burst_times_out_and_degrades;
          Alcotest.test_case "delay and reorder recovered" `Quick
            test_delay_reorder_recovered_in_order;
          Alcotest.test_case "got rewrite caught as stale skip" `Quick
            test_got_rewrite_caught_as_stale_skip;
          Alcotest.test_case "one core has no bus" `Quick
            test_one_core_has_no_bus;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "isolates the culprit event" `Slow
            test_shrink_isolates_the_culprit;
        ] );
      ( "multi-core oracle",
        [
          Alcotest.test_case "clean plan is divergence-free" `Quick
            test_run_multi_clean;
          Alcotest.test_case "rewrite classified per core" `Quick
            test_run_multi_classifies_rewrite_per_core;
        ] );
    ]
