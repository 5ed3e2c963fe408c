open Dlink_isa

(* The bit field is packed 32 bits per element of a [Bigarray.Array1] int
   vector, with a per-word generation stamp in a companion vector: a word's
   bits only count while its stamp equals the filter's current epoch, so
   [clear] — which the mechanism fires on every guarded GOT store — is a
   single epoch bump, like the hardware's one-cycle flash reset, instead of
   an O(bits) fill.  Stale words are lazily re-zeroed by the first
   [set_bit] that lands in them.  Bigarray storage keeps the field unboxed,
   flat and off the OCaml heap, and the [.{i}] accesses compile to
   unchecked loads under the release profile's [-unsafe]. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let make_ints n init : ints =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  Bigarray.Array1.fill a init;
  a

type t = {
  words : ints; (* 32 field bits per element *)
  word_epoch : ints; (* stamp under which each word's bits are live *)
  mutable epoch : int;
  mask : int;
  hashes : int;
  mutable set_bits : int;
}

let create ~bits ~hashes =
  if bits <= 0 || bits land (bits - 1) <> 0 then
    invalid_arg "Bloom.create: bits must be a positive power of two";
  if hashes < 1 || hashes > 8 then invalid_arg "Bloom.create: hashes out of range";
  let n_words = (bits + 31) / 32 in
  {
    words = make_ints n_words 0;
    word_epoch = make_ints n_words 0;
    epoch = 0;
    mask = bits - 1;
    hashes;
    set_bits = 0;
  }

(* Native-int xorshift-multiply mixer.  [Site_hash.mix2] goes through
   boxed [Int64] arithmetic, which would allocate on every membership
   test — and [mem] runs once per retired store.  Only self-consistency
   between [add] and [mem] matters here, not any particular bit pattern. *)
let mix x =
  let x = x lxor (x lsr 30) in
  let x = x * 0x4be98134a5976fd3 in
  let x = x lxor (x lsr 29) in
  let x = x * 0x3bbf2a98b9367f05 in
  (x lxor (x lsr 32)) land max_int

let mix2 a b = mix (a + (b * 0x1e3779b97f4a7c15))

(* The ASID is folded into the hashed value, so tagged entries from
   different address spaces occupy (probabilistically) disjoint bit sets;
   membership queries are then per-address-space.  Clearing remains global —
   a bit field cannot be selectively erased, which matches the hardware. *)
let bit_pos t ~asid (a : Addr.t) k =
  let v = if asid = 0 then a else mix2 a asid in
  mix2 v (k + 1) land t.mask

(* A stale word reads as all-zeroes without being written back. *)
let word_at t w = if t.word_epoch.{w} = t.epoch then t.words.{w} else 0

let get_bit t i = (word_at t (i lsr 5) lsr (i land 31)) land 1 <> 0

let set_bit t i =
  let w = i lsr 5 in
  let cur = word_at t w in
  let m = 1 lsl (i land 31) in
  if cur land m = 0 then begin
    t.words.{w} <- cur lor m;
    t.word_epoch.{w} <- t.epoch;
    t.set_bits <- t.set_bits + 1
  end

let add t ~asid a =
  for k = 0 to t.hashes - 1 do
    set_bit t (bit_pos t ~asid a k)
  done

(* Top-level recursion, not a local closure: [mem] runs per retired store
   and a captured-environment closure would allocate on each call. *)
let rec mem_from t ~asid a k =
  k >= t.hashes || (get_bit t (bit_pos t ~asid a k) && mem_from t ~asid a (k + 1))

let mem t ~asid a = mem_from t ~asid a 0

let clear t =
  t.epoch <- t.epoch + 1;
  t.set_bits <- 0

let clear_bit t i =
  if i < 0 || i > t.mask then invalid_arg "Bloom.clear_bit: index out of range";
  if get_bit t i then begin
    (* [get_bit] implies the word's stamp is current. *)
    let w = i lsr 5 in
    t.words.{w} <- t.words.{w} land lnot (1 lsl (i land 31));
    t.set_bits <- t.set_bits - 1
  end

let bits_set t = t.set_bits
let size_bits t = t.mask + 1

(* Snapshot/restore: two flat blits plus the scalars.  Geometry (mask,
   hashes) is carried for the restore-target check; a snapshot may be
   restored into many filters without aliasing since bigarray blits copy. *)

type snap = {
  s_words : ints;
  s_word_epoch : ints;
  s_epoch : int;
  s_mask : int;
  s_set_bits : int;
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
    s_words = copy_ints t.words;
    s_word_epoch = copy_ints t.word_epoch;
    s_epoch = t.epoch;
    s_mask = t.mask;
    s_set_bits = t.set_bits;
  }

let restore t s =
  if s.s_mask <> t.mask then invalid_arg "Bloom.restore: geometry mismatch";
  Bigarray.Array1.blit s.s_words t.words;
  Bigarray.Array1.blit s.s_word_epoch t.word_epoch;
  t.epoch <- s.s_epoch;
  t.set_bits <- s.s_set_bits

(* Digest of the live bit field (stale words read as zero), for the
   snapshot round-trip tests. *)
let fingerprint t =
  let acc = ref (mix2 t.set_bits t.hashes) in
  for w = 0 to Bigarray.Array1.dim t.words - 1 do
    let v = word_at t w in
    if v <> 0 then acc := mix2 !acc (mix2 w v)
  done;
  !acc

let false_positive_rate t =
  let frac = float_of_int t.set_bits /. float_of_int (size_bits t) in
  Float.pow frac (float_of_int t.hashes)
