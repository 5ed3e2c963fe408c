(** A module mapped into the simulated address space.

    Mirrors an ELF shared object's runtime layout: a code segment holding
    [.text] followed by [.plt] (16-byte entries), then — on a separate page,
    as [.got.plt] lives in the data segment — the GOT and the module's data
    region. *)

open Dlink_isa

type section = { base : Addr.t; size : int }

type t = {
  name : string;
  id : int;  (** load order index; also pushed by PLT0 for the resolver *)
  text : section;
  plt : section;  (** zero-sized under static linking *)
  got : section;
  data : section;
  code : Insn.t option array;  (** indexed by byte offset from [text.base] *)
  funcs : (string, Addr.t) Hashtbl.t;
  plt_entries : (string, Addr.t) Hashtbl.t;  (** import symbol -> PLT entry *)
  got_slots : (string, Addr.t) Hashtbl.t;  (** import symbol -> GOT slot *)
  reloc_syms : string array;  (** relocation index -> import symbol *)
  vtables : (string, Addr.t) Hashtbl.t;
      (** vtable name -> base address of its slots in the data segment *)
}

val none : t
(** The unmapped image: it contains no address, so {!fetch}, {!in_plt}
    and {!in_got} answer [None]/[false] for every address.  The
    allocation-free lookups return it for an address outside every
    module. *)

val span_end : t -> Addr.t
(** One past the last mapped byte of the module. *)

val contains : t -> Addr.t -> bool
(** Whether the address falls anywhere inside the module's mapping. *)

val fetch : t -> Addr.t -> Insn.t option
(** Instruction starting at the given address, if any. *)

val in_code : t -> Addr.t -> bool
val in_plt : t -> Addr.t -> bool
val in_got : t -> Addr.t -> bool

val func_addr : t -> string -> Addr.t option
val plt_entry : t -> string -> Addr.t option
val got_slot : t -> string -> Addr.t option

val vtable_base : t -> string -> Addr.t option
(** Base address of a relocated function-pointer table. *)

val code_bytes : t -> int
(** Size of the executable segment (text + plt). *)
