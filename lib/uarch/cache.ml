open Dlink_isa

type t = { cname : string; size_bytes : int; table : unit Assoc_table.t }

let create ~name ~size_bytes ~ways =
  let lines = size_bytes / Addr.cache_line_bytes in
  if lines <= 0 || lines mod ways <> 0 then
    invalid_arg "Cache.create: size/ways mismatch";
  let sets = lines / ways in
  { cname = name; size_bytes; table = Assoc_table.create ~sets ~ways }

let name t = t.cname
let size_bytes t = t.size_bytes
let ways t = Assoc_table.ways t.table
let access_slot t a = Assoc_table.touch_slot t.table ~tag:0 (Addr.line_of a) ()
let access t a = access_slot t a >= 0
let restamp t i = Assoc_table.restamp t.table i
let present t a = Assoc_table.probe t.table (Addr.line_of a) <> None
let flush t = Assoc_table.clear t.table
let lines_valid t = Assoc_table.valid_count t.table

type snap = unit Assoc_table.snap

let snapshot t = Assoc_table.snapshot t.table
let restore t s = Assoc_table.restore t.table s
let fingerprint t = Assoc_table.fingerprint ~hash_value:(fun () -> 1) t.table
