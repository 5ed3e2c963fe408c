(* Tests for Dlink_linker: layout, PLT/GOT synthesis, binding modes. *)

module Body = Dlink_obj.Body
module Objfile = Dlink_obj.Objfile
open Dlink_linker

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let func ?(exported = true) fname body = { Objfile.fname; exported; body }

let app_calling imports =
  Objfile.create_exn ~name:"app"
    [ func ~exported:false "main" (List.map (fun s -> Body.Call_import s) imports) ]

let lib name exports =
  Objfile.create_exn ~name
    (List.map (fun e -> func e [ Body.Compute 4 ]) exports)

let two_module () = [ app_calling [ "f"; "g" ]; lib "libx" [ "f"; "g" ] ]

let load_with mode objs =
  Loader.load_exn ~opts:{ Loader.default_options with mode } objs

(* ---------------- layout ---------------- *)

let test_layout_sections_ordered () =
  let t = load_with Mode.Lazy_binding (two_module ()) in
  Array.iter
    (fun (img : Image.t) ->
      checkb "text < plt" true (img.text.base + img.text.size <= img.plt.base);
      checkb "plt < got" true (img.plt.base + img.plt.size <= img.got.base);
      checkb "got < data" true (img.got.base + img.got.size <= img.data.base))
    (Space.images t.Loader.space)

let test_layout_got_page_separated_from_data () =
  let t = load_with Mode.Lazy_binding (two_module ()) in
  Array.iter
    (fun (img : Image.t) ->
      if img.got.size > 0 && img.data.size > 0 then
        checkb "distinct pages" true
          (Dlink_isa.Addr.page_of (img.got.base + img.got.size - 1)
          <> Dlink_isa.Addr.page_of img.data.base))
    (Space.images t.Loader.space)

let test_layout_func_align_respected () =
  let opts = { Loader.default_options with func_align = 256 } in
  let t = Loader.load_exn ~opts (two_module ()) in
  Array.iter
    (fun (img : Image.t) ->
      Hashtbl.iter
        (fun _ addr -> checki "aligned" 0 ((addr - img.text.base) mod 256))
        img.funcs)
    (Space.images t.Loader.space)

let test_layout_includes_ld_so () =
  let t = load_with Mode.Lazy_binding (two_module ()) in
  checkb "ld_so mapped" true (Space.image_by_name t.Loader.space "__ld_so" <> None);
  checkb "resolver entry fetches" true
    (Image.fetch
       (Space.locate t.Loader.space t.Loader.resolver_entry)
       t.Loader.resolver_entry
    <> None)

(* ---------------- PLT/GOT ---------------- *)

let test_plt_entries_are_16_bytes_apart () =
  let t = load_with Mode.Lazy_binding (two_module ()) in
  let app = Option.get (Space.image_by_name t.Loader.space "app") in
  let f = Option.get (Image.plt_entry app "f")
  and g = Option.get (Image.plt_entry app "g") in
  checki "16B apart" 16 (abs (f - g));
  checkb "registered" true (Loader.is_plt_entry t f && Loader.is_plt_entry t g)

let test_plt_entry_shape () =
  let t = load_with Mode.Lazy_binding (two_module ()) in
  let app = Option.get (Space.image_by_name t.Loader.space "app") in
  let entry = Option.get (Image.plt_entry app "f") in
  let slot = Option.get (Image.got_slot app "f") in
  (match Image.fetch app entry with
  | Some (Dlink_isa.Insn.Jmp_mem s) -> checki "jmp through own slot" slot s
  | _ -> Alcotest.fail "expected jmp_mem");
  (match Image.fetch app (entry + 6) with
  | Some (Dlink_isa.Insn.Push_info _) -> ()
  | _ -> Alcotest.fail "expected push");
  match Image.fetch app (entry + 11) with
  | Some (Dlink_isa.Insn.Jmp plt0) -> checki "jmp to plt0" app.Image.plt.base plt0
  | _ -> Alcotest.fail "expected jmp to plt0"

let test_got_lazy_points_into_plt_stub () =
  let t = load_with Mode.Lazy_binding (two_module ()) in
  let app = Option.get (Space.image_by_name t.Loader.space "app") in
  let entry = Option.get (Image.plt_entry app "f") in
  let slot = Option.get (Image.got_slot app "f") in
  let init = List.assoc slot t.Loader.init_mem in
  checki "slot -> push in stub" (entry + 6) init

let test_got_eager_resolved () =
  let t = load_with Mode.Eager_binding (two_module ()) in
  let app = Option.get (Space.image_by_name t.Loader.space "app") in
  let slot = Option.get (Image.got_slot app "f") in
  let init = List.assoc slot t.Loader.init_mem in
  checki "slot -> function" (Option.get (Loader.func_addr t ~mname:"libx" ~fname:"f")) init

let test_got1_holds_resolver () =
  let t = load_with Mode.Lazy_binding (two_module ()) in
  let app = Option.get (Space.image_by_name t.Loader.space "app") in
  let init = List.assoc (app.Image.got.base + 8) t.Loader.init_mem in
  checki "got[1] = resolver" t.Loader.resolver_entry init

let test_static_has_no_plt () =
  let t = load_with Mode.Static_link (two_module ()) in
  Array.iter
    (fun (img : Image.t) -> checki "no plt" 0 img.plt.size)
    (Space.images t.Loader.space);
  (* Calls are lowered to direct calls at the final target. *)
  let app = Option.get (Space.image_by_name t.Loader.space "app") in
  let main = Option.get (Image.func_addr app "main") in
  match Image.fetch app main with
  | Some (Dlink_isa.Insn.Call target) ->
      checki "direct to function"
        (Option.get (Loader.func_addr t ~mname:"libx" ~fname:"f"))
        target
  | _ -> Alcotest.fail "expected direct call"

let test_plt_order_deterministic () =
  let entry_of t name =
    let app = Option.get (Space.image_by_name t.Loader.space "app") in
    Option.get (Image.plt_entry app name) - app.Image.plt.base
  in
  let t1 = load_with Mode.Lazy_binding (two_module ()) in
  let t2 = load_with Mode.Lazy_binding (two_module ()) in
  checki "same shuffled slot" (entry_of t1 "f") (entry_of t2 "f")

(* ---------------- binding modes / errors ---------------- *)

let test_duplicate_module_rejected () =
  checkb "dup" true
    (Result.is_error (Loader.load [ lib "m" [ "a" ]; lib "m" [ "b" ] ]))

let test_reserved_name_rejected () =
  checkb "reserved" true (Result.is_error (Loader.load [ lib "__ld_so" [ "a" ] ]))

let test_undefined_import_rejected () =
  checkb "undefined" true (Result.is_error (Loader.load [ app_calling [ "nope" ] ]))

let test_extra_imports_may_dangle () =
  let app =
    Objfile.create_exn ~name:"app" ~extra_imports:[ "phantom1"; "phantom2" ]
      [ func ~exported:false "main" [ Body.Call_import "f" ] ]
  in
  checkb "loads" true (Result.is_ok (Loader.load [ app; lib "libx" [ "f" ] ]))

let test_empty_input_rejected () =
  checkb "empty" true (Result.is_error (Loader.load []))

let test_interposition_first_wins () =
  let objs = [ app_calling [ "f" ]; lib "liba" [ "f" ]; lib "libb" [ "f" ] ] in
  let t = load_with Mode.Static_link objs in
  let f_a = Option.get (Loader.func_addr t ~mname:"liba" ~fname:"f") in
  checki "liba wins" f_a (Option.get (Linkmap.lookup_addr t.Loader.linkmap "f"))

let test_patched_records_sites () =
  let t = load_with Mode.Patched (two_module ()) in
  checki "two call sites" 2 (List.length t.Loader.patch_sites);
  checkb "pages counted" true (Loader.patched_pages t >= 1);
  (* PLT/GOT sections still exist under patched mode. *)
  let app = Option.get (Space.image_by_name t.Loader.space "app") in
  checkb "plt present" true (app.Image.plt.size > 0)

let test_lazy_has_no_patch_sites () =
  let t = load_with Mode.Lazy_binding (two_module ()) in
  checki "none" 0 (List.length t.Loader.patch_sites)

(* ---------------- ASLR ---------------- *)

let test_aslr_deterministic_by_seed () =
  let load seed =
    Loader.load_exn
      ~opts:{ Loader.default_options with aslr_seed = Some seed }
      (two_module ())
  in
  let base t =
    (Option.get (Space.image_by_name t.Loader.space "libx")).Image.text.base
  in
  checki "same seed same layout" (base (load 1)) (base (load 1));
  checkb "different seed different layout" true (base (load 1) <> base (load 2))

(* A seeded layout is pinned byte-for-byte: ASLR, section placement, PLT
   slot shuffling and GOT packing all feed the address-reuse reasoning in
   Dynload, so an accidental layout change must fail loudly rather than
   silently shifting every downstream trace. *)
let test_golden_layout_aslr_seed7 () =
  let t =
    Loader.load_exn
      ~opts:{ Loader.default_options with aslr_seed = Some 7 }
      (two_module ())
  in
  let b = Buffer.create 256 in
  Array.iter
    (fun (img : Image.t) ->
      Buffer.add_string b
        (Printf.sprintf "%s text=%#x plt=%#x got=%#x\n" img.Image.name
           img.Image.text.base img.Image.plt.base img.Image.got.base))
    (Space.images t.Loader.space);
  let app = Option.get (Space.image_by_name t.Loader.space "app") in
  Buffer.add_string b
    (Printf.sprintf "app:f plt=%#x got=%#x\n"
       (Option.get (Image.plt_entry app "f"))
       (Option.get (Image.got_slot app "f")));
  Alcotest.(check string) "golden layout (aslr_seed=7)"
    "app text=0x400000 plt=0x400010 got=0x401000\n\
     libx text=0x488000 plt=0x488040 got=0x489000\n\
     __ld_so text=0x522000 plt=0x522130 got=0x522130\n\
     app:f plt=0x400030 got=0x401020\n"
    (Buffer.contents b)

(* ---------------- space ---------------- *)

let test_space_lookup_boundaries () =
  let t = load_with Mode.Lazy_binding (two_module ()) in
  let app = Option.get (Space.image_by_name t.Loader.space "app") in
  checkb "first byte" true (Space.image_at t.Loader.space app.Image.text.base <> None);
  checkb "below app" true (Space.image_at t.Loader.space (app.Image.text.base - 1) = None)

let test_space_rejects_overlap () =
  let t = load_with Mode.Lazy_binding (two_module ()) in
  let imgs = Array.to_list (Space.images t.Loader.space) in
  match imgs with
  | a :: _ ->
      let clone = { a with Image.name = "clone" } in
      checkb "overlap raises" true
        (try
           ignore (Space.create [ a; clone ]);
           false
         with Invalid_argument _ -> true)
  | [] -> Alcotest.fail "no images"

let test_in_any_plt_got () =
  let t = load_with Mode.Lazy_binding (two_module ()) in
  let app = Option.get (Space.image_by_name t.Loader.space "app") in
  let entry = Option.get (Image.plt_entry app "f") in
  let slot = Option.get (Image.got_slot app "f") in
  checkb "plt addr" true (Loader.in_any_plt t entry);
  checkb "got addr" true (Loader.in_any_got t slot);
  checkb "text not plt" false (Loader.in_any_plt t app.Image.text.base)

(* ---------------- codegen ---------------- *)

let test_codegen_size_matches_assembly () =
  let body =
    [
      Body.Compute 3;
      Body.Loop { mean_iters = 2.0; body = [ Body.Touch { loads = 1; stores = 1 } ] };
      Body.If { p = 0.5; then_ = [ Body.Compute 1 ]; else_ = [ Body.Compute 2 ] };
      Body.Call_import "x";
    ]
  in
  let asm = Dlink_isa.Asm.create () in
  Codegen.lower_body asm Codegen.sizing_ctx body;
  checki "sizes agree" (Dlink_isa.Asm.size asm) (Codegen.function_size body)

let test_linkmap_basics () =
  let m = Linkmap.create () in
  Linkmap.define m ~symbol:"s" ~addr:100 ~image_id:0 ();
  Linkmap.define m ~symbol:"s" ~addr:200 ~image_id:1 ();
  checki "first wins" 100 (Option.get (Linkmap.lookup_addr m "s"));
  checkb "missing" true (Linkmap.lookup m "t" = None);
  Alcotest.(check (list string)) "symbols" [ "s" ] (Linkmap.symbols m)

(* ---------------- symbol versioning ---------------- *)

let test_linkmap_default_version_beats_nondefault () =
  let m = Linkmap.create () in
  Linkmap.define m ~symbol:"digest@v1" ~addr:100 ~image_id:0 ();
  Linkmap.define m ~symbol:"digest@@v2" ~addr:200 ~image_id:1 ();
  checki "bare binds default" 200 (Option.get (Linkmap.lookup_addr m "digest"));
  checki "exact v1" 100 (Option.get (Linkmap.lookup_addr m "digest@v1"));
  checki "exact v2" 200 (Option.get (Linkmap.lookup_addr m "digest@v2"))

let test_linkmap_preload_beats_default () =
  let m = Linkmap.create () in
  Linkmap.define m ~symbol:"f@@v2" ~addr:100 ~image_id:0 ();
  Linkmap.define m ~preload:true ~symbol:"f" ~addr:300 ~image_id:1 ();
  checki "preload wins bare" 300 (Option.get (Linkmap.lookup_addr m "f"));
  (* The unversioned interposer also satisfies versioned references. *)
  checki "preload wins versioned" 300
    (Option.get (Linkmap.lookup_addr m "f@v2"))

let test_linkmap_unversioned_satisfies_version_request () =
  let m = Linkmap.create () in
  Linkmap.define m ~symbol:"g" ~addr:50 ~image_id:0 ();
  checki "fallback" 50 (Option.get (Linkmap.lookup_addr m "g@v9"));
  checkb "unknown base still missing" true (Linkmap.lookup m "h@v9" = None)

let test_linkmap_undefine_image () =
  let m = Linkmap.create () in
  Linkmap.define m ~symbol:"a" ~addr:1 ~image_id:0 ();
  Linkmap.define m ~symbol:"a" ~addr:2 ~image_id:1 ();
  Linkmap.define m ~symbol:"b" ~addr:3 ~image_id:1 ();
  Alcotest.(check (list string))
    "changed names" [ "a"; "b" ]
    (Linkmap.undefine_image m ~image_id:1);
  checki "a falls back to image 0" 1 (Option.get (Linkmap.lookup_addr m "a"));
  checkb "b gone" true (Linkmap.lookup m "b" = None);
  Alcotest.(check (list string)) "symbols pruned" [ "a" ] (Linkmap.symbols m)

(* ---------------- dump ---------------- *)

let string_contains haystack needle =
  let n = String.length needle and l = String.length haystack in
  let rec go i = i + n <= l && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_dump_layout_mentions_all_modules () =
  let t = load_with Mode.Lazy_binding (two_module ()) in
  let s = Dump.layout t in
  List.iter
    (fun m -> checkb (m ^ " listed") true (string_contains s m))
    [ "app"; "libx"; "__ld_so"; "heap"; "stack" ]

let test_dump_disassembly_shows_plt () =
  let t = load_with Mode.Lazy_binding (two_module ()) in
  let app = Option.get (Space.image_by_name t.Loader.space "app") in
  let s = Dump.disassemble_image app in
  checkb "has plt annotation" true (string_contains s "[plt]");
  checkb "labels functions" true (string_contains s "main:");
  checkb "labels plt entries" true (string_contains s "@plt")

let test_dump_function_listing () =
  let t = load_with Mode.Lazy_binding (two_module ()) in
  match Dump.disassemble_function t ~mname:"app" ~fname:"main" with
  | Some s -> checkb "non-empty" true (String.length s > 0)
  | None -> Alcotest.fail "function not found"

let test_dump_unknown_function () =
  let t = load_with Mode.Lazy_binding (two_module ()) in
  checkb "none" true (Dump.disassemble_function t ~mname:"app" ~fname:"ghost" = None)

let test_dump_got_classifies_lazy_stubs () =
  let t = load_with Mode.Lazy_binding (two_module ()) in
  let app = Option.get (Space.image_by_name t.Loader.space "app") in
  let s = Dump.got_contents t app in
  checkb "resolver slot" true (string_contains s "resolver");
  checkb "lazy stubs" true (string_contains s "plt stub")

(* ---------------- property tests ---------------- *)

let qcheck_tests =
  [
    QCheck.Test.make ~name:"random module sets load without overlap" ~count:60
      QCheck.(pair (int_range 1 6) (int_range 1 8))
      (fun (n_libs, n_syms) ->
        let libs =
          List.init n_libs (fun i ->
              lib
                (Printf.sprintf "lib%d" i)
                (List.init n_syms (fun j -> Printf.sprintf "s%d_%d" i j)))
        in
        let imports =
          List.concat_map
            (fun i -> List.init n_syms (fun j -> Printf.sprintf "s%d_%d" i j))
            (List.init n_libs (fun i -> i))
        in
        match Loader.load (app_calling imports :: libs) with
        | Error _ -> false
        | Ok t ->
            (* Space.create already rejects overlap; check fetchability. *)
            Array.for_all
              (fun (img : Image.t) ->
                Hashtbl.fold
                  (fun _ addr acc -> acc && Image.fetch img addr <> None)
                  img.Image.funcs true)
              (Space.images t.Loader.space));
    QCheck.Test.make ~name:"every import has plt entry and got slot" ~count:60
      (QCheck.int_range 1 10)
      (fun n_syms ->
        let syms = List.init n_syms (fun i -> Printf.sprintf "s%d" i) in
        let t = load_with Mode.Lazy_binding [ app_calling syms; lib "l" syms ] in
        let app = Option.get (Space.image_by_name t.Loader.space "app") in
        List.for_all
          (fun s -> Image.plt_entry app s <> None && Image.got_slot app s <> None)
          syms);
  ]

let () =
  Alcotest.run "dlink_linker"
    [
      ( "layout",
        [
          Alcotest.test_case "sections ordered" `Quick test_layout_sections_ordered;
          Alcotest.test_case "got/data page split" `Quick test_layout_got_page_separated_from_data;
          Alcotest.test_case "func align" `Quick test_layout_func_align_respected;
          Alcotest.test_case "ld_so mapped" `Quick test_layout_includes_ld_so;
        ] );
      ( "plt_got",
        [
          Alcotest.test_case "entries 16B apart" `Quick test_plt_entries_are_16_bytes_apart;
          Alcotest.test_case "entry shape" `Quick test_plt_entry_shape;
          Alcotest.test_case "lazy GOT init" `Quick test_got_lazy_points_into_plt_stub;
          Alcotest.test_case "eager GOT init" `Quick test_got_eager_resolved;
          Alcotest.test_case "got[1] resolver" `Quick test_got1_holds_resolver;
          Alcotest.test_case "static no plt" `Quick test_static_has_no_plt;
          Alcotest.test_case "plt order deterministic" `Quick test_plt_order_deterministic;
        ] );
      ( "modes_errors",
        [
          Alcotest.test_case "duplicate module" `Quick test_duplicate_module_rejected;
          Alcotest.test_case "reserved name" `Quick test_reserved_name_rejected;
          Alcotest.test_case "undefined import" `Quick test_undefined_import_rejected;
          Alcotest.test_case "extra imports dangle" `Quick test_extra_imports_may_dangle;
          Alcotest.test_case "empty rejected" `Quick test_empty_input_rejected;
          Alcotest.test_case "interposition" `Quick test_interposition_first_wins;
          Alcotest.test_case "patched sites" `Quick test_patched_records_sites;
          Alcotest.test_case "lazy no sites" `Quick test_lazy_has_no_patch_sites;
        ] );
      ( "aslr",
        [
          Alcotest.test_case "seeded" `Quick test_aslr_deterministic_by_seed;
          Alcotest.test_case "golden layout" `Quick test_golden_layout_aslr_seed7;
        ] );
      ( "versioning",
        [
          Alcotest.test_case "default beats non-default" `Quick
            test_linkmap_default_version_beats_nondefault;
          Alcotest.test_case "preload beats default" `Quick
            test_linkmap_preload_beats_default;
          Alcotest.test_case "unversioned fallback" `Quick
            test_linkmap_unversioned_satisfies_version_request;
          Alcotest.test_case "undefine image" `Quick test_linkmap_undefine_image;
        ] );
      ( "space",
        [
          Alcotest.test_case "boundaries" `Quick test_space_lookup_boundaries;
          Alcotest.test_case "overlap rejected" `Quick test_space_rejects_overlap;
          Alcotest.test_case "in_any_plt/got" `Quick test_in_any_plt_got;
        ] );
      ( "dump",
        [
          Alcotest.test_case "layout lists modules" `Quick
            test_dump_layout_mentions_all_modules;
          Alcotest.test_case "disassembly" `Quick test_dump_disassembly_shows_plt;
          Alcotest.test_case "function listing" `Quick test_dump_function_listing;
          Alcotest.test_case "unknown function" `Quick test_dump_unknown_function;
          Alcotest.test_case "got classification" `Quick
            test_dump_got_classifies_lazy_stubs;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "size matches" `Quick test_codegen_size_matches_assembly;
          Alcotest.test_case "linkmap" `Quick test_linkmap_basics;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
