open Dlink_isa

type t = { tname : string; table : unit Assoc_table.t }

let create ~name ~entries ~ways =
  if entries <= 0 || entries mod ways <> 0 then
    invalid_arg "Tlb.create: entries/ways mismatch";
  { tname = name; table = Assoc_table.create ~sets:(entries / ways) ~ways }

let name t = t.tname
let entries t = Assoc_table.capacity t.table
let access_slot t ~asid a =
  Assoc_table.touch_slot t.table ~tag:asid (Addr.page_of a) ()

let access t ~asid a = access_slot t ~asid a >= 0
let restamp t i = Assoc_table.restamp t.table i
let present ?(asid = 0) t a =
  Assoc_table.probe t.table ~tag:asid (Addr.page_of a) <> None
let flush ?asid t = Assoc_table.clear ?tag:asid t.table

type snap = unit Assoc_table.snap

let snapshot t = Assoc_table.snapshot t.table
let restore t s = Assoc_table.restore t.table s
let fingerprint t = Assoc_table.fingerprint ~hash_value:(fun () -> 1) t.table
