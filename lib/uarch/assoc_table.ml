module Site_hash = Dlink_util.Site_hash

(* All scalar per-slot state — keys, tags, LRU stamps, write epochs, the
   per-set reconciliation stamps and the per-tag clear floors — lives in
   [Bigarray.Array1] int vectors: unboxed, flat, off the OCaml heap (never
   scanned by the GC, safely shareable across domains), and accessed with
   the [.{i}] operators so the release profile's [-unsafe] compiles each
   access to a single unchecked load/store.  Values keep a plain ['v array]:
   the payload is polymorphic (ints for BTB/TLB/cache tags, records for the
   ABTB) and validity is carried by the companion [keys] vector (-1 = never
   written), so [insert]/[find] never allocate a [Some] cell on the hot
   path.  Invalid slots hold [dummy], an unboxed placeholder never returned
   to callers.  This is safe because every access to [values] happens at
   the polymorphic type ['v] inside this module (the compiler emits
   dynamically-checked array primitives), and the array is created from an
   immediate so it is never a flat float array.

   Flash clears are O(1) generation bumps, modelling the single-cycle
   valid-bit reset of the hardware structures this table backs (the ABTB's
   store-triggered clear is the extreme case: one per guarded GOT store).
   [clock] counts clears; every write stamps its slot with the current
   clock, and [clear] bumps the clock and raises the matching validity
   floor ([global_floor], or [tag_floors.{tag}] for a single address
   space).  Reclamation is per-set and lazy: the first operation to touch
   a set after a clear reconciles it — physically invalidating every slot
   whose stamp sits below an applicable floor — and records the clock in
   [seen_clock], so the scan and victim loops afterwards run exactly the
   byte-for-byte logic of an eagerly-cleared table.  The steady-state
   lookup pays one extra load-and-compare ([seen_clock.{set} = clock]);
   the clear itself walks nothing. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let make_ints n init : ints =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  Bigarray.Array1.fill a init;
  a

type 'v t = {
  sets : int;
  ways : int;
  keys : ints; (* sets*ways; -1 = invalid *)
  tags : ints; (* address-space id of each entry; 0 when untagged *)
  values : 'v array;
  dummy : 'v; (* placeholder stored in invalid slots *)
  stamps : ints; (* LRU recency; larger = more recent *)
  mutable tick : int;
  epochs : ints; (* clear-clock value at each slot's last write *)
  seen_clock : ints; (* per-set clock at last reconciliation *)
  mutable clock : int; (* bumped by every flash clear *)
  mutable global_floor : int; (* minimum live epoch, all tags *)
  mutable tag_floors : ints; (* per-tag minimum live epoch; grown on
                                demand, missing tags have floor 0 *)
}

let create ~sets ~ways =
  if sets <= 0 || ways <= 0 then invalid_arg "Assoc_table.create: non-positive size";
  if sets land (sets - 1) <> 0 then
    invalid_arg "Assoc_table.create: sets must be a power of two";
  let n = sets * ways in
  let dummy : 'v = Obj.magic 0 in
  {
    sets;
    ways;
    keys = make_ints n (-1);
    tags = make_ints n 0;
    values = Array.make n dummy;
    dummy;
    stamps = make_ints n 0;
    tick = 0;
    epochs = make_ints n 0;
    seen_clock = make_ints sets 0;
    clock = 0;
    global_floor = 0;
    tag_floors = make_ints 8 0;
  }

let sets t = t.sets
let ways t = t.ways
let capacity t = t.sets * t.ways

(* Real structures index with the key's low bits (sequential lines map to
   sequential sets), which is what conflict behaviour depends on.  The tag
   does not participate in indexing — entries from different address spaces
   compete for the same set, as in a physically shared structure. *)
let set_of t key = key land (t.sets - 1)

let next_tick t =
  t.tick <- t.tick + 1;
  t.tick

let tag_floor t tag =
  if tag >= 0 && tag < Bigarray.Array1.dim t.tag_floors then t.tag_floors.{tag}
  else 0

let invalidate_slot t i =
  t.keys.{i} <- -1;
  t.tags.{i} <- 0;
  t.values.(i) <- t.dummy;
  t.stamps.{i} <- 0

(* Bring one set up to date with every flash clear since it was last
   touched: a written slot is stale — and is physically invalidated here —
   when its stamp sits below the global floor or below its own tag's
   floor.  Runs at most once per set per clear, off the steady-state
   path. *)
let reconcile_set t s =
  let base = s * t.ways in
  for w = 0 to t.ways - 1 do
    let i = base + w in
    if t.keys.{i} >= 0 then begin
      let e = t.epochs.{i} in
      if e < t.global_floor || e < tag_floor t t.tags.{i} then
        invalidate_slot t i
    end
  done;
  t.seen_clock.{s} <- t.clock

let reconcile_all t =
  for s = 0 to t.sets - 1 do
    if t.seen_clock.{s} <> t.clock then reconcile_set t s
  done

(* The scans are top-level functions rather than local closures: a local
   [let rec] capturing its environment is heap-allocated per call, which
   would put ~7 words on every cache/TLB/BTB access of the replay loop.
   The lookup scan is a [while] loop, which compiles to two taken
   branches per mismatched way where the tail-recursive form took three;
   a 256-way ABTB lookup spends most of its time in this loop. *)
let scan_slot (keys : ints) (tags : ints) base ways key tag =
  let last = base + ways in
  let i = ref base in
  while !i < last && not (keys.{!i} = key && tags.{!i} = tag) do
    incr i
  done;
  if !i < last then !i else -1

let find_slot t key tag =
  let s = set_of t key in
  if t.seen_clock.{s} <> t.clock then reconcile_set t s;
  scan_slot t.keys t.tags (s * t.ways) t.ways key tag

let find t ?(tag = 0) key =
  let i = find_slot t key tag in
  if i < 0 then None
  else begin
    t.stamps.{i} <- next_tick t;
    Some t.values.(i)
  end

let find_default t ~tag key ~default =
  let i = find_slot t key tag in
  if i < 0 then default
  else begin
    t.stamps.{i} <- next_tick t;
    t.values.(i)
  end

let probe t ?(tag = 0) key =
  let i = find_slot t key tag in
  if i < 0 then None else Some t.values.(i)

let probe_default t ?(tag = 0) key ~default =
  let i = find_slot t key tag in
  if i < 0 then default else t.values.(i)

let rec first_invalid t base ways w =
  if w >= ways then -1
  else if t.keys.{base + w} = -1 then base + w
  else first_invalid t base ways (w + 1)

let rec lru_slot (stamps : ints) base ways w best =
  if w >= ways then best
  else
    lru_slot stamps base ways (w + 1)
      (if stamps.{base + w} < stamps.{best} then base + w else best)

(* First invalid way, otherwise the least recently used.  Only called
   after [find_slot] has reconciled the set, so flash-cleared slots show
   up as invalid here in way order — exactly where an eagerly-cleared
   table would have presented an empty way, making the victim choice (and
   therefore every later hit/miss) observationally identical. *)
let victim_slot t key =
  let base = set_of t key * t.ways in
  let i = first_invalid t base t.ways 0 in
  if i >= 0 then i else lru_slot t.stamps base t.ways 1 base

let fill_slot t i tag key v =
  t.keys.{i} <- key;
  t.tags.{i} <- tag;
  t.values.(i) <- v;
  t.stamps.{i} <- next_tick t;
  t.epochs.{i} <- t.clock

let insert t ~tag key v =
  let i = find_slot t key tag in
  fill_slot t (if i >= 0 then i else victim_slot t key) tag key v

let restamp t i = t.stamps.{i} <- next_tick t

(* One set scan: a miss leaves the set exactly as [find_slot] found it, so
   the victim is chosen without scanning for the key a second time. *)
let touch_slot t ~tag key v =
  let i = find_slot t key tag in
  if i >= 0 then begin
    restamp t i;
    i
  end
  else begin
    let i = victim_slot t key in
    fill_slot t i tag key v;
    lnot i
  end

let touch t ~tag key v = touch_slot t ~tag key v >= 0

let grow_tag_floors t tag =
  let n = Bigarray.Array1.dim t.tag_floors in
  if tag >= n then begin
    let bigger = make_ints (max (2 * n) (tag + 1)) 0 in
    Bigarray.Array1.blit t.tag_floors (Bigarray.Array1.sub bigger 0 n);
    t.tag_floors <- bigger
  end

let clear ?tag t =
  match tag with
  | None ->
      (* Flash clear: one epoch bump, exactly like the hardware's
         single-cycle valid-bit reset.  Values of stale slots stay
         physically resident until the set's next reconciliation. *)
      t.clock <- t.clock + 1;
      t.global_floor <- t.clock
  | Some tag when tag >= 0 ->
      t.clock <- t.clock + 1;
      grow_tag_floors t tag;
      t.tag_floors.{tag} <- t.clock
  | Some tag ->
      (* Negative tags have no floor slot; fall back to the eager walk
         (never reached by the simulator, which uses ASIDs >= 0). *)
      for i = 0 to Bigarray.Array1.dim t.keys - 1 do
        if t.keys.{i} >= 0 && t.tags.{i} = tag then invalidate_slot t i
      done

let set_of_key t key = set_of t key

let clear_set t s =
  if s < 0 || s >= t.sets then invalid_arg "Assoc_table.clear_set: no such set";
  for w = 0 to t.ways - 1 do
    invalidate_slot t ((s * t.ways) + w)
  done

let valid_count ?tag t =
  reconcile_all t;
  let counted i =
    t.keys.{i} >= 0
    && match tag with None -> true | Some tag -> t.tags.{i} = tag
  in
  let n = ref 0 in
  for i = 0 to Bigarray.Array1.dim t.keys - 1 do
    if counted i then incr n
  done;
  !n

let iter f t =
  reconcile_all t;
  for i = 0 to Bigarray.Array1.dim t.keys - 1 do
    if t.keys.{i} >= 0 then f t.keys.{i} t.values.(i)
  done

(* Snapshot/restore: the per-slot vectors are copied wholesale with
   [Bigarray.Array1.blit] (flat off-heap memcpy, no per-slot work), the
   values array with [Array.blit] (entries are immutable payloads), and the
   scalar clocks by value.  A snapshot is only meaningful for a table of
   the same geometry — [Sim.restore] restores into a table built by the
   same [Uarch.Config], so dims always match; the check is a cheap guard
   against driver bugs.  [tag_floors] is copied on both sides: the live
   table may grow (and therefore replace) its array after the snapshot
   was taken, and a restored table must not alias the snapshot's copy,
   which may be restored into several tables. *)

type 'v snap = {
  s_keys : ints;
  s_tags : ints;
  s_values : 'v array;
  s_stamps : ints;
  s_tick : int;
  s_epochs : ints;
  s_seen_clock : ints;
  s_clock : int;
  s_global_floor : int;
  s_tag_floors : ints;
}

let copy_ints (a : ints) : ints =
  let b =
    Bigarray.Array1.create Bigarray.int Bigarray.c_layout
      (Bigarray.Array1.dim a)
  in
  Bigarray.Array1.blit a b;
  b

let snapshot t =
  {
    s_keys = copy_ints t.keys;
    s_tags = copy_ints t.tags;
    s_values = Array.copy t.values;
    s_stamps = copy_ints t.stamps;
    s_tick = t.tick;
    s_epochs = copy_ints t.epochs;
    s_seen_clock = copy_ints t.seen_clock;
    s_clock = t.clock;
    s_global_floor = t.global_floor;
    s_tag_floors = copy_ints t.tag_floors;
  }

let restore t s =
  if Bigarray.Array1.dim s.s_keys <> Bigarray.Array1.dim t.keys then
    invalid_arg "Assoc_table.restore: geometry mismatch";
  Bigarray.Array1.blit s.s_keys t.keys;
  Bigarray.Array1.blit s.s_tags t.tags;
  Array.blit s.s_values 0 t.values 0 (Array.length t.values);
  Bigarray.Array1.blit s.s_stamps t.stamps;
  Bigarray.Array1.blit s.s_epochs t.epochs;
  Bigarray.Array1.blit s.s_seen_clock t.seen_clock;
  t.tick <- s.s_tick;
  t.clock <- s.s_clock;
  t.global_floor <- s.s_global_floor;
  t.tag_floors <- copy_ints s.s_tag_floors

(* Order-sensitive digest of the table's observable contents (valid slots:
   key, tag, LRU stamp, value) — used by the snapshot round-trip tests to
   compare whole-table dumps without materializing them.  Reconciles first
   so two tables with the same observable state but different lazy-clear
   debts digest identically. *)
let fingerprint ?(hash_value = Hashtbl.hash) t =
  reconcile_all t;
  let acc = ref (Site_hash.mix2 t.sets t.ways) in
  for i = 0 to Bigarray.Array1.dim t.keys - 1 do
    if t.keys.{i} >= 0 then
      acc :=
        Site_hash.mix2 !acc
          (Site_hash.mix2
             (Site_hash.mix2 t.keys.{i} t.tags.{i})
             (Site_hash.mix2 t.stamps.{i} (hash_value t.values.(i))))
  done;
  !acc
