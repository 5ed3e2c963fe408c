open Dlink_isa

type section = { base : Addr.t; size : int }

type t = {
  name : string;
  id : int;
  text : section;
  plt : section;
  got : section;
  data : section;
  code : Insn.t option array;
  funcs : (string, Addr.t) Hashtbl.t;
  plt_entries : (string, Addr.t) Hashtbl.t;
  got_slots : (string, Addr.t) Hashtbl.t;
  reloc_syms : string array;
  vtables : (string, Addr.t) Hashtbl.t;
}

let in_section s a = a >= s.base && a < s.base + s.size

let span_end t = t.data.base + t.data.size
let contains t a = a >= t.text.base && a < span_end t

let fetch t a =
  let off = a - t.text.base in
  if off < 0 || off >= Array.length t.code then None else t.code.(off)

(* Zero-sized at address 0: contains, fetches and classifies nothing. *)
let none =
  let empty = { base = 0; size = 0 } in
  {
    name = "";
    id = -1;
    text = empty;
    plt = empty;
    got = empty;
    data = empty;
    code = [||];
    funcs = Hashtbl.create 1;
    plt_entries = Hashtbl.create 1;
    got_slots = Hashtbl.create 1;
    reloc_syms = [||];
    vtables = Hashtbl.create 1;
  }

let in_code t a = a >= t.text.base && a < t.plt.base + t.plt.size
let in_plt t a = in_section t.plt a
let in_got t a = in_section t.got a

let func_addr t name = Hashtbl.find_opt t.funcs name
let plt_entry t name = Hashtbl.find_opt t.plt_entries name
let got_slot t name = Hashtbl.find_opt t.got_slots name
let vtable_base t name = Hashtbl.find_opt t.vtables name
let code_bytes t = t.text.size + t.plt.size
