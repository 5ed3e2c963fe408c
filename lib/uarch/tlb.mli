(** Translation lookaside buffer model (4 KiB pages).

    Entries optionally carry an address-space id ([asid], default 0), so a
    context switch can preserve translations instead of flushing them. *)

open Dlink_isa

type t

val create : name:string -> entries:int -> ways:int -> t
(** [entries / ways] must be a power of two. *)

val name : t -> string
val entries : t -> int

val access : t -> asid:int -> Addr.t -> bool
(** [true] on hit; fills on miss.  [asid] is a mandatory label: the engine
    calls this per retired instruction, and passing a value to an optional
    argument would box it in [Some] on every access.  Pass [~asid:0] when
    untagged. *)

val access_slot : t -> asid:int -> Addr.t -> int
(** {!access} naming the page's slot: [i] on a hit, [lnot i] on a fill
    (see {!Assoc_table.touch_slot}). *)

val restamp : t -> int -> unit
(** Refresh a slot returned by {!access_slot} as a hit on it would; valid
    only while no other access or flush of [t] came between. *)

val present : ?asid:int -> t -> Addr.t -> bool
val flush : ?asid:int -> t -> unit
(** [flush t] drops everything; [flush ~asid t] one address space only. *)

type snap

val snapshot : t -> snap
val restore : t -> snap -> unit
val fingerprint : t -> int
