module Site_hash = Dlink_util.Site_hash

(* Open-addressed table of 8-byte words, linear probing.  Slot [s] is the
   pair [cells.(2s)] (word index, or [empty]) and [cells.(2s+1)] (its
   value), so a hit reads one cache line.  Writing zero to a present word
   keeps its slot with value 0, and writing zero to an absent word inserts
   nothing: a slot is never freed, so a probe sequence never breaks, and
   every reader skips zero-valued slots to agree with a table that removes
   a word on a zero write; growing drops them.  The slot count is a power
   of two and at most three quarters of the slots are used. *)

type t = { mutable cells : int array; mutable used : int }

(* No word index is negative: [a lsr 3] clears the sign bit. *)
let empty = -1
let initial_slots = 2048

let word_index a =
  assert (a land 7 = 0);
  a lsr 3

let fresh_cells slots =
  let cells = Array.make (2 * slots) 0 in
  for s = 0 to slots - 1 do
    cells.(2 * s) <- empty
  done;
  cells

let create () = { cells = fresh_cells initial_slots; used = 0 }

(* Multiplicative hash onto an even cell index; [find] masks it. *)
let home w = ((w * 0x2545F4914F6CDD1D) lsr 28) lsl 1

(* Cell index of [w]'s slot, or of the empty slot ending its probe
   sequence.  [unsafe_get] indexes with [land (length - 1)] of [cells], so
   it stays in bounds; the table is never full, so the probe ends. *)
let rec find cells w i =
  let i = i land (Array.length cells - 1) in
  let k = Array.unsafe_get cells i in
  if k = w || k = empty then i else find cells w (i + 2)

let read t a =
  let w = word_index a in
  let cells = t.cells in
  let i = find cells w (home w) in
  if cells.(i) = w then cells.(i + 1) else 0

(* Double the slots, dropping zero-valued words on the way. *)
let grow t =
  let old = t.cells in
  let cells = fresh_cells (Array.length old) in
  let used = ref 0 in
  for s = 0 to (Array.length old / 2) - 1 do
    let v = old.((2 * s) + 1) in
    if v <> 0 then begin
      let w = old.(2 * s) in
      let i = find cells w (home w) in
      cells.(i) <- w;
      cells.(i + 1) <- v;
      incr used
    end
  done;
  t.cells <- cells;
  t.used <- !used

let write t a v =
  let w = word_index a in
  let cells = t.cells in
  let i = find cells w (home w) in
  if cells.(i) = w then cells.(i + 1) <- v
  else if v <> 0 then begin
    cells.(i) <- w;
    cells.(i + 1) <- v;
    t.used <- t.used + 1;
    if 8 * t.used > 3 * Array.length cells then grow t
  end

let copy t = { cells = Array.copy t.cells; used = t.used }

let blit ~src ~dst =
  dst.cells <- Array.copy src.cells;
  dst.used <- src.used

let fingerprint t =
  let cells = t.cells in
  let acc = ref 0 in
  for s = 0 to (Array.length cells / 2) - 1 do
    let v = cells.((2 * s) + 1) in
    if v <> 0 then acc := !acc lxor Site_hash.mix2 cells.(2 * s) v
  done;
  !acc

let cell_count t =
  let cells = t.cells in
  let n = ref 0 in
  for s = 0 to (Array.length cells / 2) - 1 do
    if cells.((2 * s) + 1) <> 0 then incr n
  done;
  !n
