(* 64-bit finalizer from MurmurHash3, applied to a combination of the two
   inputs; results are truncated to OCaml's 63-bit non-negative ints.
   Inlined so its [Int64] temporaries stay unboxed in every build: the
   interpreter hashes every data access and branch with it. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xFF51AFD7ED558CCDL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L in
  Int64.logxor z (Int64.shift_right_logical z 33)

let mix2 a b =
  let z =
    mix64 (Int64.add (Int64.of_int a) (Int64.mul (Int64.of_int b) 0x9E3779B97F4A7C15L))
  in
  (* Shift by 2 so the result fits OCaml's 63-bit native int. *)
  Int64.to_int (Int64.shift_right_logical z 2)

let bernoulli ~site ~count ~p =
  let h = mix2 site count in
  let u = float_of_int (h land 0xFFFFFF) /. 16777216.0 in
  u < p

let index ~site ~count n =
  if n <= 0 then invalid_arg "Site_hash.index: bound must be positive";
  mix2 site count mod n
