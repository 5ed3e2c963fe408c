(* Tests for Dlink_stats: summaries, histograms, CDFs, rates, and the
   log-bucket latency recorder (pinned against a naive sort-the-samples
   reference: exact below [small_cap], bucket-bounded beyond). *)

module Summary = Dlink_stats.Summary
module Histogram = Dlink_stats.Histogram
module Cdf = Dlink_stats.Cdf
module Rates = Dlink_stats.Rates
module Latency = Dlink_stats.Latency

let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))
let checki = Alcotest.(check int)

(* ---------------- Summary ---------------- *)

let test_summary_mean () =
  let s = Summary.of_array [| 1.0; 2.0; 3.0; 4.0 |] in
  checkf "mean" 2.5 (Summary.mean s)

let test_summary_minmax () =
  let s = Summary.of_array [| 5.0; -1.0; 3.0 |] in
  checkf "min" (-1.0) (Summary.min s);
  checkf "max" 5.0 (Summary.max s)

let test_summary_stddev () =
  let s = Summary.of_array [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  checkf "stddev" 2.0 (Summary.stddev s)

let test_summary_percentile_endpoints () =
  let s = Summary.of_array [| 10.0; 20.0; 30.0 |] in
  checkf "p0" 10.0 (Summary.percentile s 0.0);
  checkf "p100" 30.0 (Summary.percentile s 100.0);
  checkf "p50" 20.0 (Summary.percentile s 50.0)

let test_summary_percentile_interpolates () =
  let s = Summary.of_array [| 0.0; 10.0 |] in
  checkf "p25" 2.5 (Summary.percentile s 25.0)

let test_summary_empty_raises () =
  let s = Summary.create () in
  Alcotest.check_raises "empty mean" (Invalid_argument "Summary.mean: empty accumulator")
    (fun () -> ignore (Summary.mean s))

let test_summary_percentile_range () =
  let s = Summary.of_array [| 1.0 |] in
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Summary.percentile: p out of range") (fun () ->
      ignore (Summary.percentile s 101.0))

let test_summary_incremental () =
  let s = Summary.create () in
  for i = 1 to 1000 do
    Summary.add s (float_of_int i)
  done;
  checki "count" 1000 (Summary.count s);
  checkf "mean" 500.5 (Summary.mean s)

let test_summary_cache_invalidation () =
  let s = Summary.create () in
  Summary.add s 5.0;
  checkf "p50 before" 5.0 (Summary.percentile s 50.0);
  Summary.add s 1.0;
  checkf "min after add" 1.0 (Summary.percentile s 0.0)

(* ---------------- Histogram ---------------- *)

let test_histogram_binning () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  Histogram.add h 0.5;
  Histogram.add h 9.5;
  Histogram.add h 5.0;
  let bins = Histogram.bins h in
  let count_at i = let _, _, c = List.nth bins i in c in
  checki "bin0" 1 (count_at 0);
  checki "bin5" 1 (count_at 5);
  checki "bin9" 1 (count_at 9);
  checki "total" 3 (Histogram.total h)

let test_histogram_under_overflow () =
  let h = Histogram.create ~lo:0.0 ~hi:1.0 ~bins:2 in
  Histogram.add h (-1.0);
  Histogram.add h 2.0;
  checki "under" 1 (Histogram.underflow h);
  checki "over" 1 (Histogram.overflow h);
  checki "total includes both" 2 (Histogram.total h)

let test_histogram_fractions_sum () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:5 in
  List.iter (Histogram.add h) [ 1.0; 2.0; 3.0; 7.0; 8.0 ];
  let sum = List.fold_left (fun acc (_, f) -> acc +. f) 0.0 (Histogram.fractions h) in
  checkf "fractions sum to 1" 1.0 sum

let test_histogram_peak () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  List.iter (Histogram.add h) [ 4.1; 4.2; 4.3; 8.0 ];
  checkf "peak center" 4.5 (Histogram.peak_center h)

let test_histogram_rejects_bad_args () =
  Alcotest.check_raises "hi<=lo" (Invalid_argument "Histogram.create: hi must exceed lo")
    (fun () -> ignore (Histogram.create ~lo:1.0 ~hi:1.0 ~bins:4))

let test_histogram_boundary_value () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  Histogram.add h 10.0;
  checki "hi is overflow" 1 (Histogram.overflow h)

(* ---------------- Cdf ---------------- *)

let test_cdf_eval () =
  let c = Cdf.of_samples [| 1.0; 2.0; 3.0; 4.0 |] in
  checkf "below" 0.0 (Cdf.eval c 0.5);
  checkf "middle" 0.5 (Cdf.eval c 2.0);
  checkf "above" 1.0 (Cdf.eval c 10.0)

let test_cdf_quantile () =
  let c = Cdf.of_samples [| 10.0; 20.0; 30.0; 40.0 |] in
  checkf "q0.5" 20.0 (Cdf.quantile c 0.5);
  checkf "q1" 40.0 (Cdf.quantile c 1.0);
  checkf "q0" 10.0 (Cdf.quantile c 0.0)

let test_cdf_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Cdf.of_samples: empty") (fun () ->
      ignore (Cdf.of_samples [||]))

let test_cdf_points_reach_one () =
  let c = Cdf.of_samples (Array.init 1000 float_of_int) in
  let points = Cdf.points ~max_points:50 c in
  let _, last = List.nth points (List.length points - 1) in
  checkf "last fraction 1" 1.0 last;
  checkb "downsampled" true (List.length points <= 60)

let test_cdf_unsorted_input () =
  let c = Cdf.of_samples [| 3.0; 1.0; 2.0 |] in
  checkf "min" 1.0 (Cdf.min_value c);
  checkf "max" 3.0 (Cdf.max_value c)

(* ---------------- Latency ---------------- *)

(* The naive reference the recorder is pinned against: sort the samples,
   take the ceil-rank element — the same convention {!Cdf} uses, restated
   independently so a convention change in either place trips the pin. *)
let naive_quantile samples q =
  let a = Array.copy samples in
  Array.sort compare a;
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  let rank = if rank < 1 then 1 else rank in
  a.(rank - 1)

let record_all l samples =
  Array.iter (Latency.record l) samples;
  l

let test_latency_empty () =
  let l = Latency.create () in
  checki "count" 0 (Latency.count l);
  checkb "mean nan" true (Float.is_nan (Latency.mean l));
  checkb "p50 nan" true (Float.is_nan (Latency.p50 l))

let test_latency_small_exact () =
  (* Below small_cap the recorder answers from the verbatim samples, so
     every quantile equals the naive reference exactly. *)
  let samples = [| 5.0; 1.0; 9.0; 3.0; 7.0; 2.0; 8.0; 4.0; 6.0; 10.0 |] in
  let l = record_all (Latency.create ()) samples in
  checkf "p50" (naive_quantile samples 0.5) (Latency.p50 l);
  checkf "p99" (naive_quantile samples 0.99) (Latency.p99 l);
  checkf "p999" (naive_quantile samples 0.999) (Latency.p999 l);
  checkf "mean" 5.5 (Latency.mean l);
  checkf "min" 1.0 (Latency.min_value l);
  checkf "max" 10.0 (Latency.max_value l)

let test_latency_large_bucketed () =
  (* Past small_cap the answer comes from the bucket walk: within one
     bucket ratio of the naive reference, extremes exact via the clamp. *)
  let n = 2000 in
  let samples = Array.init n (fun i -> 0.5 +. (0.01 *. float_of_int i)) in
  let l = record_all (Latency.create ()) samples in
  let ratio = Float.pow 10.0 (1.0 /. 32.0) in
  List.iter
    (fun q ->
      let exact = naive_quantile samples q in
      let got = Latency.quantile l q in
      checkb
        (Printf.sprintf "q%.3f within bucket ratio" q)
        true
        (got >= exact /. ratio && got <= exact *. ratio))
    [ 0.5; 0.9; 0.99; 0.999 ];
  checkf "min exact" 0.5 (Latency.min_value l);
  checkf "max exact" (0.5 +. (0.01 *. float_of_int (n - 1)))
    (Latency.max_value l);
  let p100 = Latency.quantile l 1.0 in
  checkb "p100 bounded by max" true
    (p100 <= Latency.max_value l && p100 >= Latency.max_value l /. ratio)

let test_latency_rejects_bad () =
  Alcotest.check_raises "negative sample"
    (Invalid_argument "Latency.record: sample must be finite and non-negative")
    (fun () -> Latency.record (Latency.create ()) (-1.0));
  Alcotest.check_raises "nan sample"
    (Invalid_argument "Latency.record: sample must be finite and non-negative")
    (fun () -> Latency.record (Latency.create ()) Float.nan);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Latency.quantile: q out of range") (fun () ->
      ignore (Latency.quantile (Latency.create ()) 1.5));
  Alcotest.check_raises "bad lo"
    (Invalid_argument "Latency.create: lo must be positive") (fun () ->
      ignore (Latency.create ~lo:0.0 ()))

let test_latency_buckets_sum () =
  let samples = Array.init 700 (fun i -> 1.0 +. float_of_int (i mod 37)) in
  let l = record_all (Latency.create ()) samples in
  let total =
    List.fold_left (fun acc (_, _, c) -> acc + c) 0 (Latency.buckets l)
  in
  checki "bucket counts sum to count" (Latency.count l) total;
  List.iter
    (fun (lo, hi, _) -> checkb "bucket edges ordered" true (lo < hi))
    (Latency.buckets l)

(* Merging two recorders must be indistinguishable from one recorder fed
   the concatenated stream. *)
let test_latency_merge_matches_concat () =
  let xs =
    Array.init 40 (fun i -> 0.001 *. float_of_int (1 + (i * 37 mod 97)))
  in
  let ys =
    Array.init 50 (fun i -> 0.002 *. float_of_int (1 + (i * 53 mod 83)))
  in
  let a = record_all (Latency.create ()) xs in
  let b = record_all (Latency.create ()) ys in
  let one = record_all (record_all (Latency.create ()) xs) ys in
  Latency.merge ~into:a b;
  checki "count" (Latency.count one) (Latency.count a);
  checkf "mean" (Latency.mean one) (Latency.mean a);
  (* 90 combined samples fit small_cap, so quantiles stay exact — the
     merged windows hold the same sample multiset. *)
  List.iter
    (fun q ->
      checkb
        (Printf.sprintf "q%.2f exact" q)
        true
        (Latency.quantile one q = Latency.quantile a q))
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ];
  checkb "extremes" true
    (Latency.min_value one = Latency.min_value a
    && Latency.max_value one = Latency.max_value a);
  checkb "buckets" true (Latency.buckets one = Latency.buckets a);
  checkb "src untouched" true (Latency.count b = 50)

let test_latency_merge_large_bucketed () =
  (* Past small_cap the exact windows are gone; bucket counts must still
     match the single-recorder run exactly, so quantiles (bucket walk)
     are bit-identical too. *)
  let mk () = Latency.create ~small_cap:16 () in
  let xs =
    Array.init 300 (fun i -> 0.0005 *. float_of_int (1 + (i * 311 mod 1009)))
  in
  let ys =
    Array.init 200 (fun i -> 0.0007 *. float_of_int (1 + (i * 173 mod 661)))
  in
  let a = record_all (mk ()) xs in
  let b = record_all (mk ()) ys in
  let one = record_all (record_all (mk ()) xs) ys in
  Latency.merge ~into:a b;
  checki "count" 500 (Latency.count a);
  checkb "buckets identical" true (Latency.buckets one = Latency.buckets a);
  List.iter
    (fun q ->
      checkb
        (Printf.sprintf "q%.3f bucket-identical" q)
        true
        (Latency.quantile one q = Latency.quantile a q))
    [ 0.5; 0.99; 0.999 ];
  checkb "extremes" true
    (Latency.min_value one = Latency.min_value a
    && Latency.max_value one = Latency.max_value a)

let test_latency_merge_empty () =
  let a = Latency.create () and b = Latency.create () in
  Latency.record a 0.5;
  Latency.merge ~into:a b;
  checki "empty src is a no-op" 1 (Latency.count a);
  let c = Latency.create () in
  Latency.merge ~into:c a;
  checki "into empty copies" 1 (Latency.count c);
  checkf "value survives" 0.5 (Latency.quantile c 0.5)

let test_latency_merge_rejects_geometry () =
  List.iter
    (fun src ->
      match Latency.merge ~into:(Latency.create ()) src with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "geometry mismatch should raise")
    [
      Latency.create ~lo:1e-2 ();
      Latency.create ~bins_per_decade:16 ();
      Latency.create ~decades:5 ();
      Latency.create ~small_cap:17 ();
    ]

(* ---------------- Rates ---------------- *)

let test_rates_pki () =
  checkf "pki" 2.0 (Rates.pki ~count:20 ~instructions:10_000);
  checkf "pki zero denom" 0.0 (Rates.pki ~count:5 ~instructions:0)

let test_rates_change () =
  checkf "change" (-0.1) (Rates.change ~base:10.0 ~enhanced:9.0);
  checkf "change zero base" 0.0 (Rates.change ~base:0.0 ~enhanced:5.0)

let test_rates_speedup () =
  checkf "speedup" 2.0 (Rates.speedup ~base:10.0 ~enhanced:5.0)

(* ---------------- property tests ---------------- *)

let nonempty_floats =
  QCheck.(list_of_size (Gen.int_range 1 200) (float_range (-1000.0) 1000.0))

let qcheck_tests =
  [
    QCheck.Test.make ~name:"percentile monotone in p" ~count:200 nonempty_floats
      (fun l ->
        let s = Summary.of_array (Array.of_list l) in
        let p25 = Summary.percentile s 25.0
        and p50 = Summary.percentile s 50.0
        and p75 = Summary.percentile s 75.0 in
        p25 <= p50 && p50 <= p75);
    QCheck.Test.make ~name:"cdf eval within [0,1] and monotone" ~count:200
      QCheck.(pair nonempty_floats (float_range (-2000.0) 2000.0))
      (fun (l, x) ->
        let c = Cdf.of_samples (Array.of_list l) in
        let v = Cdf.eval c x and v' = Cdf.eval c (x +. 10.0) in
        v >= 0.0 && v <= 1.0 && v <= v');
    QCheck.Test.make ~name:"cdf quantile within sample range" ~count:200
      QCheck.(pair nonempty_floats (float_range 0.0 1.0))
      (fun (l, q) ->
        let c = Cdf.of_samples (Array.of_list l) in
        let v = Cdf.quantile c q in
        v >= Cdf.min_value c && v <= Cdf.max_value c);
    QCheck.Test.make ~name:"histogram total equals adds" ~count:200 nonempty_floats
      (fun l ->
        let h = Histogram.create ~lo:(-100.0) ~hi:100.0 ~bins:16 in
        List.iter (Histogram.add h) l;
        Histogram.total h = List.length l);
    QCheck.Test.make ~name:"summary mean within [min,max]" ~count:200 nonempty_floats
      (fun l ->
        let s = Summary.of_array (Array.of_list l) in
        Summary.mean s >= Summary.min s -. 1e-9
        && Summary.mean s <= Summary.max s +. 1e-9);
    (* The latency recorder's small-n path must agree with the naive
       sort-the-samples reference bit for bit: both are ceil-rank, and
       list sizes stay below small_cap (512). *)
    QCheck.Test.make ~name:"latency small-n quantiles exact" ~count:200
      QCheck.(
        pair
          (list_of_size (Gen.int_range 1 400) (float_range 0.001 5000.0))
          (float_range 0.0 1.0))
      (fun (l, q) ->
        let samples = Array.of_list l in
        let lat = record_all (Latency.create ()) samples in
        Latency.quantile lat q = naive_quantile samples q);
    (* Past small_cap the bucket walk answers within one bucket ratio of
       the reference (and exactly at the clamped extremes). *)
    QCheck.Test.make ~name:"latency large-n quantiles bucket-bounded"
      ~count:50
      QCheck.(
        pair
          (list_of_size (Gen.int_range 600 1500) (float_range 0.01 1000.0))
          (float_range 0.0 1.0))
      (fun (l, q) ->
        let samples = Array.of_list l in
        let lat = record_all (Latency.create ()) samples in
        let exact = naive_quantile samples q in
        let got = Latency.quantile lat q in
        let ratio = Float.pow 10.0 (1.0 /. 32.0) in
        got >= exact /. ratio && got <= exact *. ratio);
    QCheck.Test.make ~name:"latency mean/count match reference" ~count:200
      QCheck.(list_of_size (Gen.int_range 1 1000) (float_range 0.0 100.0))
      (fun l ->
        let samples = Array.of_list l in
        let lat = record_all (Latency.create ()) samples in
        let n = Array.length samples in
        let sum = Array.fold_left ( +. ) 0.0 samples in
        Latency.count lat = n
        && Float.abs (Latency.mean lat -. (sum /. float_of_int n)) < 1e-6);
  ]

let () =
  Alcotest.run "dlink_stats"
    [
      ( "summary",
        [
          Alcotest.test_case "mean" `Quick test_summary_mean;
          Alcotest.test_case "min/max" `Quick test_summary_minmax;
          Alcotest.test_case "stddev" `Quick test_summary_stddev;
          Alcotest.test_case "percentile endpoints" `Quick test_summary_percentile_endpoints;
          Alcotest.test_case "percentile interpolation" `Quick test_summary_percentile_interpolates;
          Alcotest.test_case "empty raises" `Quick test_summary_empty_raises;
          Alcotest.test_case "percentile range" `Quick test_summary_percentile_range;
          Alcotest.test_case "incremental" `Quick test_summary_incremental;
          Alcotest.test_case "sorted cache invalidation" `Quick test_summary_cache_invalidation;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "binning" `Quick test_histogram_binning;
          Alcotest.test_case "under/overflow" `Quick test_histogram_under_overflow;
          Alcotest.test_case "fractions sum" `Quick test_histogram_fractions_sum;
          Alcotest.test_case "peak" `Quick test_histogram_peak;
          Alcotest.test_case "rejects bad args" `Quick test_histogram_rejects_bad_args;
          Alcotest.test_case "hi boundary overflows" `Quick test_histogram_boundary_value;
        ] );
      ( "cdf",
        [
          Alcotest.test_case "eval" `Quick test_cdf_eval;
          Alcotest.test_case "quantile" `Quick test_cdf_quantile;
          Alcotest.test_case "empty rejected" `Quick test_cdf_empty_rejected;
          Alcotest.test_case "points reach one" `Quick test_cdf_points_reach_one;
          Alcotest.test_case "unsorted input" `Quick test_cdf_unsorted_input;
        ] );
      ( "latency",
        [
          Alcotest.test_case "empty" `Quick test_latency_empty;
          Alcotest.test_case "small-n exact" `Quick test_latency_small_exact;
          Alcotest.test_case "large-n bucketed" `Quick test_latency_large_bucketed;
          Alcotest.test_case "rejects bad args" `Quick test_latency_rejects_bad;
          Alcotest.test_case "bucket counts sum" `Quick test_latency_buckets_sum;
          Alcotest.test_case "merge = concat (exact)" `Quick
            test_latency_merge_matches_concat;
          Alcotest.test_case "merge = concat (bucketed)" `Quick
            test_latency_merge_large_bucketed;
          Alcotest.test_case "merge empty" `Quick test_latency_merge_empty;
          Alcotest.test_case "merge rejects geometry" `Quick
            test_latency_merge_rejects_geometry;
        ] );
      ( "rates",
        [
          Alcotest.test_case "pki" `Quick test_rates_pki;
          Alcotest.test_case "change" `Quick test_rates_change;
          Alcotest.test_case "speedup" `Quick test_rates_speedup;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
