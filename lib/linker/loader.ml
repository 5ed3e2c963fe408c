open Dlink_isa
module Objfile = Dlink_obj.Objfile
module Rng = Dlink_util.Rng

type options = {
  mode : Mode.t;
  aslr_seed : int option;
  base : Addr.t;
  module_gap : int;
  resolver_work : int * int;
  shared_heap_bytes : int;
  func_align : int;
  hw_level : int;
  ld_preload : string list;
}

let default_options =
  {
    mode = Mode.Lazy_binding;
    aslr_seed = None;
    base = 0x400000;
    module_gap = 0x10000;
    resolver_work = (48, 24);
    shared_heap_bytes = 8 * 1024 * 1024;
    func_align = 16;
    hw_level = 99;
    ld_preload = [];
  }

type t = {
  opts : options;
  space : Space.t;
  linkmap : Linkmap.t;
  resolver_entry : Addr.t;
  shared_heap : Image.section;
  stack_top : Addr.t;
  stack_base : Addr.t;
  mutable n_sites : int;
  init_mem : (Addr.t * int) list;
  patch_sites : Addr.t list;
  plt_entry_addrs : (Addr.t, string * int) Hashtbl.t;
}

exception Load_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Load_error s)) fmt

let ld_so_name = "__ld_so"
let resolver_data_bytes = 32 * 1024
let stack_bytes = 1024 * 1024

(* Per-module layout computed before any code is generated. *)
type layout = {
  obj : Objfile.t option; (* [None] for the synthetic dynamic linker *)
  lname : string;
  id : int;
  text_base : Addr.t;
  text_size : int;
  func_offs : (string * int) list;
  plt_base : Addr.t;
  plt_size : int;
  got_base : Addr.t;
  got_size : int;
  data_base : Addr.t;
  data_size : int;
  vtable_offs : (string * int) list; (* vtable name -> offset from data_base *)
  vtable_bytes : int;
  imports : string array;
}

let has_plt_sections mode =
  match mode with
  | Mode.Lazy_binding | Mode.Eager_binding | Mode.Patched | Mode.Stable_linking
    ->
      true
  | Mode.Static_link -> false

let align16 n = Addr.align_up n 16
let align_page a = Addr.align_up a Addr.page_bytes

let plt_entry_addr l i = l.plt_base + (16 * (i + 1))
let got_slot_addr l i = l.got_base + (8 * (i + 3))

(* PLT entries sit in definition order while programs use a random subset
   (§2), so used entries are sparsely spread through the PLT.  We reproduce
   that by shuffling each module's import order with a deterministic
   per-module seed. *)
let shuffled_imports obj =
  let imports = Array.of_list (Objfile.imports obj) in
  let seed = Hashtbl.hash ("plt-order:" ^ obj.Objfile.name) in
  Rng.shuffle (Rng.create seed) imports;
  imports

let layout_module ~opts ~cursor ~id obj =
  let imports = shuffled_imports obj in
  let n_imports = Array.length imports in
  let text_base = align_page cursor in
  let align_func = max 16 opts.func_align in
  let func_offs, text_end =
    List.fold_left
      (fun (acc, off) (f : Objfile.func) ->
        let off = Addr.align_up off align_func in
        ((f.fname, off) :: acc, off + Codegen.function_size f.body))
      ([], 0) obj.Objfile.funcs
  in
  let text_size = align16 text_end in
  let with_plt = has_plt_sections opts.mode in
  let plt_base = text_base + text_size in
  let plt_size = if with_plt then 16 * (n_imports + 1) else 0 in
  let got_base = align_page (plt_base + plt_size) in
  let got_size = if with_plt then 8 * (n_imports + 3) else 0 in
  (* The data region starts on its own page: GOT pages hold only GOT slots,
     which lets a page-granular store filter watch them precisely.
     Relocated function-pointer tables (vtables) occupy the start of the
     data section; the scratch region used by [Touch] follows them. *)
  let data_base = align_page (got_base + got_size + 1) in
  let vtable_offs, vtable_bytes =
    List.fold_left
      (fun (acc, off) (v : Objfile.vtable) ->
        ((v.Objfile.vname, off) :: acc, off + (8 * List.length v.Objfile.entries)))
      ([], 0) obj.Objfile.vtables
  in
  let data_size = vtable_bytes + obj.Objfile.data_bytes in
  {
    obj = Some obj;
    lname = obj.Objfile.name;
    id;
    text_base;
    text_size;
    func_offs = List.rev func_offs;
    plt_base;
    plt_size;
    got_base;
    got_size;
    data_base;
    data_size;
    vtable_offs = List.rev vtable_offs;
    vtable_bytes;
    imports;
  }

let layout_resolver ~opts ~cursor ~id =
  let alu, loads = opts.resolver_work in
  let text_base = align_page cursor in
  let code_bytes = (4 * alu) + (4 * loads) + Insn.byte_size Insn.Resolve in
  let text_size = align16 code_bytes in
  let data_base = Addr.align_up (text_base + text_size) 64 in
  {
    obj = None;
    lname = ld_so_name;
    id;
    text_base;
    text_size;
    func_offs = [ ("_dl_resolve", 0) ];
    plt_base = text_base + text_size;
    plt_size = 0;
    got_base = text_base + text_size;
    got_size = 0;
    data_base;
    data_size = resolver_data_bytes;
    vtable_offs = [];
    vtable_bytes = 0;
    imports = [||];
  }

let layout_end l = l.data_base + l.data_size

let func_addr_in l fname =
  match List.assoc_opt fname l.func_offs with
  | Some off -> l.text_base + off
  | None -> fail "function %s not laid out in %s" fname l.lname

(* Generate one module's code into its image arrays. *)
let codegen_module ~opts ~linkmap ~resolver_entry ~shared_heap ~fresh_site
    ~plt_entry_addrs ~patch_sites l =
  let code_len = l.text_size + l.plt_size in
  let code = Array.make code_len None in
  let import_index = Hashtbl.create 16 in
  Array.iteri (fun i s -> Hashtbl.replace import_index s i) l.imports;
  let resolve_local fname = func_addr_in l fname in
  let resolve_global sym =
    match Linkmap.lookup_addr linkmap sym with
    | Some a -> a
    | None -> fail "unresolved symbol %s (needed by %s)" sym l.lname
  in
  let resolve_import sym =
    match opts.mode with
    | Mode.Lazy_binding | Mode.Eager_binding | Mode.Stable_linking ->
        let i =
          match Hashtbl.find_opt import_index sym with
          | Some i -> i
          | None -> fail "symbol %s not in import table of %s" sym l.lname
        in
        plt_entry_addr l i
    | Mode.Static_link | Mode.Patched -> resolve_global sym
  in
  let write_insns base insns =
    List.iter
      (fun (off, insn) ->
        let idx = base - l.text_base + off in
        assert (idx >= 0 && idx < code_len);
        assert (code.(idx) = None);
        code.(idx) <- Some insn)
      insns
  in
  let vtable_base_of vname =
    match List.assoc_opt vname l.vtable_offs with
    | Some off -> l.data_base + off
    | None -> fail "unknown vtable %s in %s" vname l.lname
  in
  (match l.obj with
  | Some obj ->
      List.iter
        (fun (f : Objfile.func) ->
          let fbase = func_addr_in l f.fname in
          let asm = Asm.create () in
          let ctx =
            {
              Codegen.resolve_import;
              resolve_local;
              local_data = (l.data_base + l.vtable_bytes, l.data_size - l.vtable_bytes);
              shared_data = shared_heap;
              fresh_site;
              resolve_vtable_slot =
                (fun vname slot -> vtable_base_of vname + (8 * slot));
              note_import_call_site =
                (fun ~offset sym ->
                  ignore sym;
                  if opts.mode = Mode.Patched then
                    patch_sites := (fbase + offset) :: !patch_sites);
            }
          in
          Codegen.lower_body asm ctx f.body;
          write_insns fbase (Asm.assemble asm ~base:fbase))
        obj.Objfile.funcs
  | None ->
      (* The dynamic linker's resolver: symbol-lookup work then [Resolve]. *)
      let alu, loads = opts.resolver_work in
      let asm = Asm.create () in
      for _ = 1 to alu do
        Asm.emit asm Asm.P_alu
      done;
      for _ = 1 to loads do
        Asm.emit asm
          (Asm.P_load
             (Insn.Region
                { site = fresh_site (); base = l.data_base; size = l.data_size }))
      done;
      Asm.emit asm Asm.P_resolve;
      write_insns l.text_base (Asm.assemble asm ~base:l.text_base));
  (* Vtable relocation: entries resolve globally at load time. *)
  let vtable_init =
    match l.obj with
    | None -> []
    | Some obj ->
        List.concat_map
          (fun (v : Objfile.vtable) ->
            let base = vtable_base_of v.Objfile.vname in
            List.mapi
              (fun i sym ->
                match Linkmap.lookup_addr linkmap sym with
                | Some a -> (base + (8 * i), a)
                | None -> fail "vtable %s entry %s undefined" v.Objfile.vname sym)
              v.Objfile.entries)
          obj.Objfile.vtables
  in
  (* PLT synthesis. *)
  let plt_entries = Hashtbl.create 16 in
  let got_slots = Hashtbl.create 16 in
  if l.plt_size > 0 then begin
    let put addr insn =
      let idx = addr - l.text_base in
      assert (code.(idx) = None);
      code.(idx) <- Some insn
    in
    (* PLT0: push the module id, jump through got[1] to the resolver. *)
    put l.plt_base (Insn.Push_info l.id);
    put (l.plt_base + 5) (Insn.Jmp_mem (l.got_base + 8));
    Array.iteri
      (fun i sym ->
        let entry = plt_entry_addr l i and slot = got_slot_addr l i in
        put entry (Insn.Jmp_mem slot);
        put (entry + 6) (Insn.Push_info i);
        put (entry + 11) (Insn.Jmp l.plt_base);
        Hashtbl.replace plt_entries sym entry;
        Hashtbl.replace got_slots sym slot;
        Hashtbl.replace plt_entry_addrs entry (sym, l.id))
      l.imports
  end;
  (* Initial GOT contents. *)
  let init =
    if l.got_size = 0 then []
    else begin
      let slots =
        Array.to_list
          (Array.mapi
             (fun i sym ->
               let slot = got_slot_addr l i in
               match opts.mode with
               | Mode.Lazy_binding | Mode.Patched | Mode.Stable_linking ->
                   (* Stable layouts start on the lazy stub too: the
                      pre-resolved snapshot is installed through visible
                      GOT stores by the dynamic loader (see Dynload). *)
                   (slot, plt_entry_addr l i + 6)
               | Mode.Eager_binding -> (
                   match Linkmap.lookup_addr linkmap sym with
                   | Some a -> (slot, a)
                   | None -> (slot, 0))
               | Mode.Static_link -> assert false)
             l.imports)
      in
      (l.got_base, l.id) :: (l.got_base + 8, resolver_entry) :: slots
    end
  in
  let init = vtable_init @ init in
  let funcs = Hashtbl.create 16 in
  List.iter (fun (n, off) -> Hashtbl.replace funcs n (l.text_base + off)) l.func_offs;
  let vtables = Hashtbl.create 4 in
  List.iter
    (fun (vname, off) -> Hashtbl.replace vtables vname (l.data_base + off))
    l.vtable_offs;
  let image =
    {
      Image.name = l.lname;
      id = l.id;
      text = { Image.base = l.text_base; size = l.text_size };
      plt = { Image.base = l.plt_base; size = l.plt_size };
      got = { Image.base = l.got_base; size = l.got_size };
      data = { Image.base = l.data_base; size = l.data_size };
      code;
      funcs;
      plt_entries;
      got_slots;
      reloc_syms = Array.copy l.imports;
      vtables;
    }
  in
  (image, init)

let load ?(opts = default_options) objs =
  try
    if objs = [] then fail "no object files";
    let names = Hashtbl.create 16 in
    List.iter
      (fun (o : Objfile.t) ->
        if o.name = ld_so_name then fail "module name %s is reserved" ld_so_name;
        if Hashtbl.mem names o.name then fail "duplicate module %s" o.name;
        Hashtbl.replace names o.name ())
      objs;
    let aslr = Option.map Rng.create opts.aslr_seed in
    let gap () =
      match aslr with
      | None -> opts.module_gap
      | Some rng -> opts.module_gap + (Addr.page_bytes * Rng.int rng 256)
    in
    (* Phase 1: layout every module, then the dynamic linker. *)
    let cursor = ref opts.base in
    let layouts =
      List.mapi
        (fun id obj ->
          let l = layout_module ~opts ~cursor:!cursor ~id obj in
          cursor := align_page (layout_end l) + gap ();
          l)
        objs
    in
    let ld_layout = layout_resolver ~opts ~cursor:!cursor ~id:(List.length objs) in
    cursor := align_page (layout_end ld_layout) + gap ();
    let resolver_entry = ld_layout.text_base in
    let shared_heap =
      { Image.base = align_page !cursor; size = opts.shared_heap_bytes }
    in
    let stack_base = align_page (shared_heap.base + shared_heap.size) + opts.module_gap in
    let stack_top = stack_base + stack_bytes in
    (* Global symbol scope from exported functions, in load order. *)
    let linkmap = Linkmap.create () in
    List.iter
      (fun l ->
        match l.obj with
        | None -> ()
        | Some obj ->
            let preload = List.mem obj.Objfile.name opts.ld_preload in
            List.iter
              (fun (f : Objfile.func) ->
                if f.exported then
                  Linkmap.define linkmap ~preload ~symbol:f.fname
                    ~addr:(func_addr_in l f.fname) ~image_id:l.id ())
              obj.Objfile.funcs;
            (* GNU ifuncs (§2.4.1): the capability level known at load time
               selects the implementation; candidates are best-first, so a
               level of [n-1] or more picks the best one. *)
            List.iter
              (fun (i : Objfile.ifunc) ->
                let n = List.length i.Objfile.candidates in
                let idx = max 0 (n - 1 - opts.hw_level) in
                let chosen = List.nth i.Objfile.candidates idx in
                Linkmap.define linkmap ~preload ~symbol:i.Objfile.iname
                  ~addr:(func_addr_in l chosen) ~image_id:l.id ())
              obj.Objfile.ifuncs)
      layouts;
    (* Check that every import actually referenced by code resolves. *)
    List.iter
      (fun (o : Objfile.t) ->
        List.iter
          (fun (f : Objfile.func) ->
            List.iter
              (fun sym ->
                if Linkmap.lookup linkmap sym = None then
                  fail "undefined symbol %s referenced by %s.%s" sym o.name
                    f.Objfile.fname)
              (Dlink_obj.Body.imports f.Objfile.body))
          o.funcs)
      objs;
    (* Phase 2: code generation. *)
    let site_counter = ref 1 in
    let fresh_site () =
      let s = !site_counter in
      incr site_counter;
      s
    in
    let plt_entry_addrs = Hashtbl.create 512 in
    let patch_sites = ref [] in
    let pairs =
      List.map
        (codegen_module ~opts ~linkmap ~resolver_entry
           ~shared_heap:(shared_heap.base, shared_heap.size) ~fresh_site
           ~plt_entry_addrs ~patch_sites)
        (layouts @ [ ld_layout ])
    in
    let images = List.map fst pairs in
    let init_mem = List.concat_map snd pairs in
    let space = Space.create images in
    Ok
      {
        opts;
        space;
        linkmap;
        resolver_entry;
        shared_heap;
        stack_top;
        stack_base;
        n_sites = !site_counter;
        init_mem;
        patch_sites = !patch_sites;
        plt_entry_addrs;
      }
  with Load_error msg -> Error msg

let load_exn ?opts objs =
  match load ?opts objs with
  | Ok t -> t
  | Error e -> invalid_arg ("Loader.load: " ^ e)

let func_addr t ~mname ~fname =
  match Space.image_by_name t.space mname with
  | None -> None
  | Some img -> Image.func_addr img fname

(* Every entry lies in its own module's PLT, so an address outside the
   located image's PLT is answered without hashing. *)
let is_plt_entry t addr =
  Image.in_plt (Space.locate t.space addr) addr
  && Hashtbl.mem t.plt_entry_addrs addr

let plt_symbol_at t addr = Hashtbl.find_opt t.plt_entry_addrs addr

let in_any_plt t addr = Image.in_plt (Space.locate t.space addr) addr
let in_any_got t addr = Image.in_got (Space.locate t.space addr) addr

(* --- Runtime module mapping (dlopen support; see Dynload) --------------- *)

(* Bytes a module would span if laid out at base 0 — used by the dynamic
   loader to carve an address range before committing to a layout. *)
let module_span t obj =
  let l = layout_module ~opts:t.opts ~cursor:0 ~id:(-1) obj in
  layout_end l

(* Lay out, link and generate one module at [base], mapping it into the
   live address space.  Exported symbols are published through [define]
   (not written to the linkmap directly) so the caller controls preload
   rank and can record what it added for later dlclose.  Returns the new
   image and the initial memory contents (GOT, vtables) the caller must
   write through its own store path — the stores, not the loader, are
   what the GOT-watching hardware observes. *)
let map_module t ~id ~base ~define (obj : Objfile.t) =
  let opts = t.opts in
  let l = layout_module ~opts ~cursor:base ~id obj in
  let preload = List.mem obj.Objfile.name opts.ld_preload in
  List.iter
    (fun (f : Objfile.func) ->
      if f.exported then
        define ~preload ~symbol:f.fname ~addr:(func_addr_in l f.fname))
    obj.Objfile.funcs;
  List.iter
    (fun (i : Objfile.ifunc) ->
      let n = List.length i.Objfile.candidates in
      let idx = max 0 (n - 1 - opts.hw_level) in
      let chosen = List.nth i.Objfile.candidates idx in
      define ~preload ~symbol:i.Objfile.iname ~addr:(func_addr_in l chosen))
    obj.Objfile.ifuncs;
  let fresh_site () =
    let s = t.n_sites in
    t.n_sites <- s + 1;
    s
  in
  let patch_sites = ref [] in
  let image, init =
    codegen_module ~opts ~linkmap:t.linkmap ~resolver_entry:t.resolver_entry
      ~shared_heap:(t.shared_heap.base, t.shared_heap.size) ~fresh_site
      ~plt_entry_addrs:t.plt_entry_addrs ~patch_sites l
  in
  Space.add t.space image;
  (image, init)

let unmap_module t id =
  (match Space.image_by_id t.space id with
  | None -> invalid_arg (Printf.sprintf "Loader.unmap_module: unknown id %d" id)
  | Some img ->
      Hashtbl.iter
        (fun _sym entry -> Hashtbl.remove t.plt_entry_addrs entry)
        img.Image.plt_entries);
  Space.remove t.space id

let patched_pages t =
  let pages = Hashtbl.create 64 in
  List.iter (fun a -> Hashtbl.replace pages (Addr.page_of a) ()) t.patch_sites;
  Hashtbl.length pages

let total_code_bytes t =
  Array.fold_left (fun acc img -> acc + Image.code_bytes img) 0 (Space.images t.space)
