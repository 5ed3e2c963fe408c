(** Sparse 64-bit word memory.

    The simulator only stores architecturally meaningful data: GOT slots,
    stack words, and store results.  Unwritten locations read as zero.
    All accesses are 8-byte aligned.

    Layout: an open-addressed table keyed by word index (linear probing,
    a power-of-two slot count at most three-quarters full), each slot a
    key and its value side by side in one [int array].  {!read} and
    {!write} allocate nothing; only growth does.  A zero write to a
    present word keeps its slot with value 0, so {!fingerprint} and
    {!cell_count} skip zero-valued slots: they equal those of a table
    that removes a word when zero is written to it. *)

open Dlink_isa

type t

val create : unit -> t
val read : t -> Addr.t -> int
val write : t -> Addr.t -> int -> unit
val copy : t -> t

val blit : src:t -> dst:t -> unit
(** Overwrite [dst] in place with a copy of [src]'s contents.  Used to
    resynchronise a diverged run onto its reference twin without breaking
    aliases to [dst]. *)

val fingerprint : t -> int
(** Order-independent hash of the full memory contents (used to compare
    architectural state between base and enhanced runs). *)

val cell_count : t -> int
(** Number of words holding a non-zero value. *)
