(** Fixed-bucket log-scale latency recorder for the serving stack.

    Constant memory and no per-sample allocation once the exact window
    fills; quantiles are exact (sorted-samples, {!Cdf} ceil-rank
    convention) while the sample count fits in [small_cap], and
    bucket-quantized (error bounded by the geometric bucket ratio,
    [10^(1/bins_per_decade)]) beyond it. *)

type t

val create :
  ?lo:float -> ?decades:int -> ?bins_per_decade:int -> ?small_cap:int -> unit -> t
(** Buckets span [lo, lo*10^decades) (defaults: 1e-3 over 9 decades, 32
    buckets per decade, 512 exact samples).  Raises [Invalid_argument] on
    non-positive parameters. *)

val record : t -> float -> unit
(** Raises [Invalid_argument] on a negative or non-finite sample. *)

val count : t -> int

val mean : t -> float
(** Exact; [nan] when empty. *)

val quantile : t -> float -> float
(** [quantile t q] with [q] in [0, 1]; [nan] when empty. *)

val p50 : t -> float
val p99 : t -> float
val p999 : t -> float

val min_value : t -> float
val max_value : t -> float

val buckets : t -> (float * float * int) list
(** Non-empty buckets as [(lo, hi, count)], ascending — the latency
    histogram exported by [dlinksim serve --json]. *)
