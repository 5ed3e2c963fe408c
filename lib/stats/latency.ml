(* Fixed-bucket log-scale latency recorder.

   The serving drivers feed every request latency here; [quantile] must
   stay cheap and deterministic at millions of samples, so the recorder
   keeps a fixed array of logarithmic buckets (no allocation per sample
   after the exact window fills) and answers quantiles by a cumulative
   walk.  The first [small_cap] samples are also kept verbatim: while the
   sample count fits, quantiles come from the exact sorted-samples path
   ({!Cdf}'s ceil-rank convention), so small cells — and every unit test —
   see exact percentiles, and only saturating sweeps pay bucket-width
   rounding (bounded by the bucket ratio, 10^(1/bins_per_decade)).

   Buckets span [lo, lo*10^decades) with [bins_per_decade] geometric
   buckets per decade; below-range samples land in bucket 0 and
   above-range ones in the last bucket, with the true min/max tracked
   separately so the extremes stay exact. *)

type t = {
  lo : float;
  log_lo : float;
  bins_per_decade : int;
  n_buckets : int;
  counts : int array;
  small : float array;
  small_cap : int;
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create ?(lo = 1e-3) ?(decades = 9) ?(bins_per_decade = 32)
    ?(small_cap = 512) () =
  if lo <= 0.0 then invalid_arg "Latency.create: lo must be positive";
  if decades <= 0 || bins_per_decade <= 0 then
    invalid_arg "Latency.create: decades and bins_per_decade must be positive";
  if small_cap < 0 then invalid_arg "Latency.create: small_cap must be >= 0";
  {
    lo;
    log_lo = Float.log10 lo;
    bins_per_decade;
    n_buckets = decades * bins_per_decade;
    counts = Array.make (decades * bins_per_decade) 0;
    small = Array.make small_cap 0.0;
    small_cap;
    count = 0;
    sum = 0.0;
    min_v = Float.infinity;
    max_v = Float.neg_infinity;
  }

let bucket_of t x =
  if x <= t.lo then 0
  else
    let b =
      int_of_float
        ((Float.log10 x -. t.log_lo) *. float_of_int t.bins_per_decade)
    in
    if b < 0 then 0 else if b >= t.n_buckets then t.n_buckets - 1 else b

(* Lower edge of bucket [b]; the bucket's representative value for
   quantile answers is its geometric midpoint. *)
let bucket_lo t b =
  t.lo *. Float.pow 10.0 (float_of_int b /. float_of_int t.bins_per_decade)

let bucket_mid t b =
  t.lo
  *. Float.pow 10.0
       ((float_of_int b +. 0.5) /. float_of_int t.bins_per_decade)

let record t x =
  if not (Float.is_finite x) || x < 0.0 then
    invalid_arg "Latency.record: sample must be finite and non-negative";
  if t.count < t.small_cap then t.small.(t.count) <- x;
  t.counts.(bucket_of t x) <- t.counts.(bucket_of t x) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum +. x;
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x

let count t = t.count
let mean t = if t.count = 0 then Float.nan else t.sum /. float_of_int t.count
let min_value t = if t.count = 0 then Float.nan else t.min_v
let max_value t = if t.count = 0 then Float.nan else t.max_v

let quantile t q =
  if q < 0.0 || q > 1.0 then invalid_arg "Latency.quantile: q out of range";
  if t.count = 0 then Float.nan
  else if t.count <= t.small_cap then
    Cdf.quantile (Cdf.of_samples (Array.sub t.small 0 t.count)) q
  else begin
    (* Ceil-rank over the cumulative bucket counts, mirroring Cdf. *)
    let rank = int_of_float (Float.ceil (q *. float_of_int t.count)) in
    let rank = if rank < 1 then 1 else rank in
    let acc = ref 0 and b = ref 0 in
    while !acc < rank && !b < t.n_buckets do
      acc := !acc + t.counts.(!b);
      incr b
    done;
    let hit = !b - 1 in
    (* Clamp the bucket representative by the observed extremes so p0 and
       p100 stay exact and an overflow bucket never invents a value. *)
    Float.min t.max_v (Float.max t.min_v (bucket_mid t hit))
  end

let p50 t = quantile t 0.5
let p99 t = quantile t 0.99
let p999 t = quantile t 0.999

let buckets t =
  let out = ref [] in
  for b = t.n_buckets - 1 downto 0 do
    if t.counts.(b) > 0 then
      out := (bucket_lo t b, bucket_lo t (b + 1), t.counts.(b)) :: !out
  done;
  !out

(* Merge of two recorders fed consecutive parts of one stream, folded in
   stream order.  Bucket counts, count, and sum add; extremes combine;
   the exact windows concatenate in [into]-then-[src] order while the
   combined count fits [into.small_cap], preserving the exact-quantile
   path.  Once the combined count exceeds the window, quantiles come from
   the merged buckets — identical to what one recorder fed the
   concatenated stream would hold, since bucket assignment depends only
   on the sample value and the (required-equal) geometry.  Quantile error
   therefore keeps the single-recorder bound: one geometric bucket,
   10^(1/bins_per_decade). *)
let merge ~into src =
  if
    into.lo <> src.lo
    || into.bins_per_decade <> src.bins_per_decade
    || into.n_buckets <> src.n_buckets
    || into.small_cap <> src.small_cap
  then invalid_arg "Latency.merge: geometry mismatch";
  (* With equal caps, an incomplete exact window can only arise when the
     merged count already exceeds [small_cap] — where quantiles use the
     buckets — so the exact path below [small_cap] combined samples stays
     sound. *)
  (* Samples of [src]'s exact window that still fit [into]'s. *)
  let keep = min src.count src.small_cap in
  let room = into.small_cap - into.count in
  if keep > 0 && room > 0 then
    Array.blit src.small 0 into.small into.count (min keep room);
  for b = 0 to into.n_buckets - 1 do
    into.counts.(b) <- into.counts.(b) + src.counts.(b)
  done;
  into.count <- into.count + src.count;
  into.sum <- into.sum +. src.sum;
  if src.min_v < into.min_v then into.min_v <- src.min_v;
  if src.max_v > into.max_v then into.max_v <- src.max_v
