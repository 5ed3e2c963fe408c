(** Set-associative cache model (tag/LRU state only; no data payload). *)

open Dlink_isa

type t

val create : name:string -> size_bytes:int -> ways:int -> t
(** [line_bytes] is the architectural 64.  [size_bytes / (64 * ways)] must
    be a power of two. *)

val name : t -> string
val size_bytes : t -> int
val ways : t -> int

val access : t -> Addr.t -> bool
(** [true] on hit; on miss the line is filled (LRU victim evicted). *)

val access_slot : t -> Addr.t -> int
(** {!access} naming the line's slot: [i] on a hit, [lnot i] on a fill
    (see {!Assoc_table.touch_slot}). *)

val restamp : t -> int -> unit
(** Refresh a slot returned by {!access_slot} as a hit on it would; valid
    only while no other access or flush of [t] came between. *)

val present : t -> Addr.t -> bool
(** Non-intrusive line probe. *)

val flush : t -> unit
val lines_valid : t -> int

type snap

val snapshot : t -> snap
val restore : t -> snap -> unit
val fingerprint : t -> int
