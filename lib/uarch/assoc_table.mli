(** Generic set-associative table with true-LRU replacement.

    The building block for caches, TLBs, the BTB, and the ABTB.  Keys are
    already-index-reduced integers (line numbers, page numbers, PCs); the
    table hashes them across sets and tracks per-way recency.

    Entries optionally carry an address-space id ([tag], default 0): a
    lookup only hits an entry whose tag matches, and [clear ~tag] drops a
    single address space's entries.  Tags do not participate in set
    indexing — co-scheduled address spaces contend for the same sets, as
    in physically shared hardware.

    Bulk clears are O(1) generation bumps, mirroring the single-cycle
    valid-bit flash reset of the modelled hardware: every write stamps its
    slot with a clear-clock value and [clear] raises the corresponding
    validity floor.  Reclamation is lazy and per-set — the first operation
    to touch a set after a clear physically invalidates its stale slots,
    so the steady-state lookup pays only one extra load-and-compare and
    the victim scan sees flash-cleared slots as empty ways in way order,
    exactly as an eagerly-cleared table would.  Observable behaviour —
    hits, misses, LRU victim choice — is identical to an eager per-slot
    clear; test/test_uarch.ml checks this against a naive reference
    model. *)

type 'v t

val create : sets:int -> ways:int -> 'v t
(** Both must be positive; [sets] must be a power of two. *)

val sets : 'v t -> int
val ways : 'v t -> int
val capacity : 'v t -> int

val find : 'v t -> ?tag:int -> int -> 'v option
(** Lookup; refreshes LRU position on hit.  Only matches entries whose tag
    equals [tag] (default 0). *)

val probe : 'v t -> ?tag:int -> int -> 'v option
(** Lookup without touching LRU state. *)

val find_default : 'v t -> tag:int -> int -> default:'v -> 'v
(** Allocation-free {!find}: returns [default] on a miss instead of
    wrapping the hit in an option.  The hot-path lookup used by the packed
    replay loop.  [tag] is a mandatory label — passing a value to an
    optional argument boxes it in [Some], which would put an allocation on
    every lookup. *)

val probe_default : 'v t -> ?tag:int -> int -> default:'v -> 'v
(** Allocation-free {!probe}. *)

val insert : 'v t -> tag:int -> int -> 'v -> unit
(** Insert or overwrite; evicts the set's LRU victim when full.  [tag] is
    mandatory for the same allocation-freedom reason as {!find_default}
    (the BTB updates on every retired indirect branch). *)

val touch : 'v t -> tag:int -> int -> 'v -> bool
(** Combined lookup-or-insert: returns [true] on hit (LRU refreshed), and
    inserts the given value on miss returning [false].  This is the
    cache/TLB access pattern.  [tag] is mandatory for the same
    allocation-freedom reason as {!find_default}. *)

val clear : ?tag:int -> 'v t -> unit
(** [clear t] invalidates everything; [clear ~tag t] only the entries of
    one address space.  Both are O(1) epoch bumps (for non-negative tags;
    a negative tag falls back to an eager walk).  Values held by stale
    slots stay physically reachable until the set's next access reconciles
    it. *)

val set_of_key : 'v t -> int -> int
(** Set index a key maps to (its low bits). *)

val clear_set : 'v t -> int -> unit
(** Invalidate every way of one set, all tags — the quarantine eviction
    primitive.  Raises [Invalid_argument] for an out-of-range set. *)

val valid_count : ?tag:int -> 'v t -> int
val iter : (int -> 'v -> unit) -> 'v t -> unit

type 'v snap
(** Frozen copy of a table's full state: slot vectors (bigarray blits),
    values, LRU tick and the generation clocks. *)

val snapshot : 'v t -> 'v snap

val restore : 'v t -> 'v snap -> unit
(** Overwrite [t] with the snapshot's state.  The target must have the
    same geometry (sets x ways) as the snapshotted table; raises
    [Invalid_argument] otherwise.  A snapshot may be restored into many
    tables without aliasing. *)

val fingerprint : ?hash_value:('v -> int) -> 'v t -> int
(** Deterministic digest of the observable contents (valid keys, tags,
    LRU stamps, values).  Reconciles pending lazy clears first, so equal
    observable state yields equal fingerprints regardless of clear
    debt. *)
