(* Tests for Dlink_mach: memory, the interpreter, lazy resolution. *)

module Body = Dlink_obj.Body
module Objfile = Dlink_obj.Objfile
module Loader = Dlink_linker.Loader
module Space = Dlink_linker.Space
module Image = Dlink_linker.Image
module Mode = Dlink_linker.Mode
open Dlink_mach

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let func ?(exported = true) fname body = { Objfile.fname; exported; body }

let lib name exports body =
  Objfile.create_exn ~name (List.map (fun e -> func e body) exports)

let simple_program ?(mode = Mode.Lazy_binding) ?(main_body = [ Body.Call_import "f" ])
    ?(f_body = [ Body.Compute 4 ]) () =
  let app = Objfile.create_exn ~name:"app" [ func ~exported:false "main" main_body ] in
  Loader.load_exn
    ~opts:{ Loader.default_options with mode }
    [ app; lib "libx" [ "f" ] f_body ]

let run_main ?hooks linked =
  let p = Process.create ?hooks linked in
  Process.call p (Option.get (Loader.func_addr linked ~mname:"app" ~fname:"main"));
  p

(* ---------------- Memory ---------------- *)

let test_memory_read_default_zero () =
  let m = Memory.create () in
  checki "unwritten" 0 (Memory.read m 0x1000)

let test_memory_write_read () =
  let m = Memory.create () in
  Memory.write m 0x1000 42;
  checki "written" 42 (Memory.read m 0x1000)

let test_memory_zero_write_erases () =
  let m = Memory.create () in
  Memory.write m 8 7;
  Memory.write m 8 0;
  checki "no cells" 0 (Memory.cell_count m)

let test_memory_fingerprint_order_independent () =
  let m1 = Memory.create () and m2 = Memory.create () in
  Memory.write m1 8 1;
  Memory.write m1 16 2;
  Memory.write m2 16 2;
  Memory.write m2 8 1;
  checki "same fingerprint" (Memory.fingerprint m1) (Memory.fingerprint m2)

let test_memory_copy_isolated () =
  let m = Memory.create () in
  Memory.write m 8 1;
  let c = Memory.copy m in
  Memory.write c 8 9;
  checki "original untouched" 1 (Memory.read m 8)

(* The remove-on-zero hash table [Memory] was before it became an
   open-addressed word table: the reference model the table must agree
   with on every read, fingerprint and cell count. *)
module Ref_memory = struct
  module Site_hash = Dlink_util.Site_hash

  type t = (int, int) Hashtbl.t

  let word_index a =
    assert (a land 7 = 0);
    a lsr 3

  let create () : t = Hashtbl.create 4096
  let read t a = Option.value ~default:0 (Hashtbl.find_opt t (word_index a))

  let write t a v =
    let i = word_index a in
    if v = 0 then Hashtbl.remove t i else Hashtbl.replace t i v

  let copy = Hashtbl.copy

  let blit ~src ~dst =
    Hashtbl.reset dst;
    Hashtbl.iter (fun k v -> Hashtbl.replace dst k v) src

  let fingerprint t =
    Hashtbl.fold (fun k v acc -> acc lxor Site_hash.mix2 k v) t 0

  let cell_count = Hashtbl.length
end

(* Op streams over two word regions far apart (a data segment and a
   stack), so probes from both collide in one table.  Every stream holds
   one sweep of at least 10k distinct words, and the table grows several
   times on the way. *)
type mem_op =
  | Write of int * int  (** word, value (0 erases) *)
  | Read of int
  | Burst of int * int * int * int  (** first word, count, stride, seed *)
  | Copy_diverge of int * int  (** writes to the copy, seed *)
  | Blit_diverged of int * int
      (** writes to a copy, seed; the copy is then blitted back *)
  | Blit_fresh of int * int  (** writes to a fresh table, seed; blitted in *)

let universe = 12_288
let word_addr w = if w land 1 = 0 then 0x40_0000 + (4 * w) else (1 lsl 36) - (4 * (w - 1))

(* Deterministic value stream: about one value in eight is zero. *)
let op_value seed i =
  let v = Dlink_util.Site_hash.mix2 seed i in
  if v land 7 = 0 then 0 else v

let mem_op_gen =
  let open QCheck.Gen in
  let word = int_range 0 (universe - 1) in
  let small =
    frequency
      [
        (4, map2 (fun w v -> Write (w, if v land 3 = 0 then 0 else v)) word nat);
        (3, map (fun w -> Read w) word);
        ( 3,
          map3
            (fun w (n, stride) seed -> Burst (w, n, stride, seed))
            word
            (pair (int_range 1 1024) (oneofl [ 1; 2; 7 ]))
            nat );
        (1, map2 (fun n seed -> Copy_diverge (n, seed)) (int_range 1 512) nat);
        (1, map2 (fun n seed -> Blit_diverged (n, seed)) (int_range 1 512) nat);
        (1, map2 (fun n seed -> Blit_fresh (n, seed)) (int_range 0 256) nat);
      ]
  in
  let sweep =
    map3
      (fun w n seed -> Burst (w, n, 1, seed))
      word (int_range 10_000 universe) nat
  in
  map3 (fun pre sw post -> pre @ [ sw ] @ post)
    (list_size (int_range 0 4) small)
    sweep
    (list_size (int_range 4 12) small)

let show_mem_op = function
  | Write (w, v) -> Printf.sprintf "Write(%d,%d)" w v
  | Read w -> Printf.sprintf "Read %d" w
  | Burst (w, n, s, seed) -> Printf.sprintf "Burst(%d,%d,%d,%d)" w n s seed
  | Copy_diverge (n, seed) -> Printf.sprintf "Copy_diverge(%d,%d)" n seed
  | Blit_diverged (n, seed) -> Printf.sprintf "Blit_diverged(%d,%d)" n seed
  | Blit_fresh (n, seed) -> Printf.sprintf "Blit_fresh(%d,%d)" n seed

(* Apply [n] seeded writes (some zero, some overwrites) to both tables. *)
let diverge ~touched n seed m r =
  for i = 0 to n - 1 do
    let w = Dlink_util.Site_hash.mix2 seed (-i) mod universe in
    let v = op_value seed i in
    Hashtbl.replace touched w ();
    Memory.write m (word_addr w) v;
    Ref_memory.write r (word_addr w) v
  done

let memory_agrees_with_reference ops =
  let m = Memory.create () and r = Ref_memory.create () in
  let touched = Hashtbl.create 16384 in
  let same m r =
    Memory.cell_count m = Ref_memory.cell_count r
    && Memory.fingerprint m = Ref_memory.fingerprint r
    && Hashtbl.fold
         (fun w () ok ->
           ok && Memory.read m (word_addr w) = Ref_memory.read r (word_addr w))
         touched true
    && Memory.read m (word_addr universe) = 0
  in
  List.for_all
    (fun op ->
      let ok =
        match op with
        | Write (w, v) ->
            Hashtbl.replace touched w ();
            Memory.write m (word_addr w) v;
            Ref_memory.write r (word_addr w) v;
            true
        | Read w -> Memory.read m (word_addr w) = Ref_memory.read r (word_addr w)
        | Burst (w, n, stride, seed) ->
            for i = 0 to n - 1 do
              let w = (w + (i * stride)) mod universe in
              Hashtbl.replace touched w ();
              Memory.write m (word_addr w) (op_value seed i);
              Ref_memory.write r (word_addr w) (op_value seed i)
            done;
            true
        | Copy_diverge (n, seed) ->
            let mc = Memory.copy m and rc = Ref_memory.copy r in
            diverge ~touched n seed mc rc;
            same mc rc
        | Blit_diverged (n, seed) ->
            let mc = Memory.copy m and rc = Ref_memory.copy r in
            diverge ~touched n seed mc rc;
            Memory.blit ~src:mc ~dst:m;
            Ref_memory.blit ~src:rc ~dst:r;
            (* the source stays intact and unaliased *)
            Memory.write mc (word_addr 0) 12345;
            Ref_memory.write rc (word_addr 0) 12345;
            same mc rc
        | Blit_fresh (n, seed) ->
            let mf = Memory.create () and rf = Ref_memory.create () in
            diverge ~touched n seed mf rf;
            Memory.blit ~src:mf ~dst:m;
            Ref_memory.blit ~src:rf ~dst:r;
            true
      in
      ok && same m r)
    ops

(* ---------------- interpreter basics ---------------- *)

let test_call_runs_to_completion () =
  let linked = simple_program () in
  let p = run_main linked in
  checkb "retired > 0" true (Process.retired p > 0)

let test_sp_restored_after_call () =
  let linked = simple_program () in
  let p = Process.create linked in
  let sp0 = Process.sp p in
  Process.call p (Option.get (Loader.func_addr linked ~mname:"app" ~fname:"main"));
  checki "stack balanced" sp0 (Process.sp p)

let test_lazy_resolution_writes_got () =
  let linked = simple_program () in
  let p = run_main linked in
  let app = Option.get (Space.image_by_name linked.Loader.space "app") in
  let slot = Option.get (Image.got_slot app "f") in
  let f = Option.get (Loader.func_addr linked ~mname:"libx" ~fname:"f") in
  checki "GOT bound to f" f (Memory.read (Process.memory p) slot)

let test_resolver_runs_once_per_symbol () =
  (* Two calls to the same import: resolver work appears once. *)
  let linked =
    simple_program ~main_body:[ Body.Call_import "f"; Body.Call_import "f" ] ()
  in
  let resolver_jumps = ref 0 in
  let hooks =
    {
      Process.default_hooks with
      on_retire =
        Event.boxed (fun ev ->
          match ev.Event.branch with
          | Some (Event.Jump_resolver _) -> incr resolver_jumps
          | _ -> ());
    }
  in
  ignore (run_main ~hooks linked);
  checki "one resolution" 1 !resolver_jumps

let test_eager_mode_never_resolves () =
  let linked = simple_program ~mode:Mode.Eager_binding () in
  let resolver_jumps = ref 0 in
  let hooks =
    {
      Process.default_hooks with
      on_retire =
        Event.boxed (fun ev ->
          match ev.Event.branch with
          | Some (Event.Jump_resolver _) -> incr resolver_jumps
          | _ -> ());
    }
  in
  ignore (run_main ~hooks linked);
  checki "no resolution" 0 !resolver_jumps

let test_static_mode_no_plt_events () =
  let linked = simple_program ~mode:Mode.Static_link () in
  let plt_events = ref 0 in
  let hooks =
    {
      Process.default_hooks with
      on_retire = Event.boxed (fun ev -> if ev.Event.in_plt then incr plt_events);
    }
  in
  ignore (run_main ~hooks linked);
  checki "no plt instructions" 0 !plt_events

let test_lazy_first_call_executes_five_plt_instructions () =
  (* First call: entry jmp_mem + push + jmp plt0 + plt0 push + plt0 jmp_mem. *)
  let linked = simple_program () in
  let plt_events = ref 0 in
  let hooks =
    {
      Process.default_hooks with
      on_retire = Event.boxed (fun ev -> if ev.Event.in_plt then incr plt_events);
    }
  in
  ignore (run_main ~hooks linked);
  checki "five stub instructions" 5 !plt_events

let test_lazy_second_call_executes_one_plt_instruction () =
  let linked =
    simple_program ~main_body:[ Body.Call_import "f"; Body.Call_import "f" ] ()
  in
  let plt_events = ref 0 in
  let hooks =
    {
      Process.default_hooks with
      on_retire = Event.boxed (fun ev -> if ev.Event.in_plt then incr plt_events);
    }
  in
  ignore (run_main ~hooks linked);
  checki "5 + 1" 6 !plt_events

let test_cond_loop_terminates () =
  let linked =
    simple_program
      ~main_body:[ Body.Loop { mean_iters = 5.0; body = [ Body.Compute 1 ] } ]
      ()
  in
  let p = run_main linked in
  checkb "terminated" true (Process.retired p > 0)

let test_fuel_exhaustion_raises () =
  let linked =
    simple_program ~main_body:[ Body.Loop { mean_iters = 1e9; body = [ Body.Compute 1 ] } ] ()
  in
  let p = Process.create linked in
  let main = Option.get (Loader.func_addr linked ~mname:"app" ~fname:"main") in
  checkb "fault raised" true
    (try
       Process.call p ~fuel:1000 main;
       false
     with Process.Fault _ -> true)

let test_invalid_fetch_raises () =
  let linked = simple_program () in
  let p = Process.create linked in
  checkb "fault" true
    (try
       Process.call p 0x123;
       false
     with Process.Fault _ -> true)

(* ---------------- failure injection ---------------- *)

let test_dangling_extra_import_faults_cleanly () =
  (* An extra import has a PLT entry but no definition.  Under eager
     binding its GOT slot is null; calling it must fault, not wander. *)
  let app =
    Objfile.create_exn ~name:"app" ~extra_imports:[ "phantom" ]
      [ func ~exported:false "main" [ Body.Call_import "f" ] ]
  in
  let linked =
    Loader.load_exn
      ~opts:{ Loader.default_options with mode = Mode.Eager_binding }
      [ app; lib "libx" [ "f" ] [ Body.Compute 2 ] ]
  in
  let appimg = Option.get (Space.image_by_name linked.Loader.space "app") in
  let phantom_plt = Option.get (Image.plt_entry appimg "phantom") in
  let p = Process.create linked in
  checkb "null-slot fault" true
    (try
       Process.call p phantom_plt;
       false
     with Process.Fault msg ->
       String.length msg > 0)

let test_dangling_lazy_import_fails_in_resolver () =
  (* Under lazy binding the first call reaches the resolver, which cannot
     bind the symbol and must report it. *)
  let app =
    Objfile.create_exn ~name:"app" ~extra_imports:[ "phantom" ]
      [ func ~exported:false "main" [ Body.Call_import "f" ] ]
  in
  let linked =
    Loader.load_exn [ app; lib "libx" [ "f" ] [ Body.Compute 2 ] ]
  in
  let appimg = Option.get (Space.image_by_name linked.Loader.space "app") in
  let phantom_plt = Option.get (Image.plt_entry appimg "phantom") in
  let p = Process.create linked in
  checkb "resolver fault names symbol" true
    (try
       Process.call p phantom_plt;
       false
     with Process.Fault msg ->
       let rec contains i =
         i + 7 <= String.length msg
         && (String.sub msg i 7 = "phantom" || contains (i + 1))
       in
       contains 0)

let test_corrupted_got_faults () =
  (* A GOT slot overwritten with zero makes the trampoline fault rather
     than jump into the void. *)
  let linked = simple_program () in
  let p = Process.create linked in
  Process.call p (Option.get (Loader.func_addr linked ~mname:"app" ~fname:"main"));
  let app = Option.get (Space.image_by_name linked.Loader.space "app") in
  let slot = Option.get (Image.got_slot app "f") in
  Memory.write (Process.memory p) slot 0;
  checkb "fault on null GOT" true
    (try
       Process.call p (Option.get (Loader.func_addr linked ~mname:"app" ~fname:"main"));
       false
     with Process.Fault _ -> true)

(* ---------------- determinism ---------------- *)

let test_run_determinism () =
  let run () =
    let linked =
      simple_program
        ~main_body:
          [
            Body.Loop
              {
                mean_iters = 10.0;
                body =
                  [
                    Body.Compute 2;
                    Body.Touch { loads = 2; stores = 1 };
                    Body.Call_import "f";
                  ];
              };
          ]
        ~f_body:
          [ Body.If { p = 0.5; then_ = [ Body.Compute 3 ]; else_ = [ Body.Compute 1 ] } ]
        ()
    in
    let p = run_main linked in
    (Process.retired p, Process.arch_fingerprint p)
  in
  let r1, f1 = run () and r2, f2 = run () in
  checki "same retired" r1 r2;
  checki "same fingerprint" f1 f2

let test_redirect_hook_preserves_arch_state () =
  (* Redirecting a PLT call straight to the function must leave identical
     architectural state once the GOT is warm (the skip mechanism's core
     safety property, checked here at the interpreter level). *)
  let body =
    [
      Body.Call_import "f";
      (* warm the GOT *)
      Body.Call_import "f";
      Body.Call_import "f";
    ]
  in
  let run redirect =
    let linked = simple_program ~main_body:body () in
    let f = Option.get (Loader.func_addr linked ~mname:"libx" ~fname:"f") in
    let app = Option.get (Space.image_by_name linked.Loader.space "app") in
    let entry = Option.get (Image.plt_entry app "f") in
    let calls = ref 0 in
    let hooks =
      {
        Process.default_hooks with
        on_fetch_call =
          (fun ~pc:_ ~arch_target ->
            incr calls;
            (* Skip only after the first two calls (GOT warm). *)
            if redirect && arch_target = entry && !calls > 2 then f else arch_target);
      }
    in
    let p = run_main ~hooks linked in
    Process.arch_fingerprint p
  in
  checki "fingerprints equal" (run false) (run true)

(* ---------------- events ---------------- *)

let test_call_event_shape () =
  let linked = simple_program () in
  let seen = ref None in
  let hooks =
    {
      Process.default_hooks with
      on_retire =
        Event.boxed (fun ev ->
          match ev.Event.branch with
          | Some (Event.Call_direct { target; arch_target }) when !seen = None ->
              seen := Some (target = arch_target, ev.Event.store <> None)
          | _ -> ());
    }
  in
  ignore (run_main ~hooks linked);
  match !seen with
  | Some (same, pushes) ->
      checkb "unredirected" true same;
      checkb "pushes return addr" true pushes
  | None -> Alcotest.fail "no call event"

let test_trampoline_event_has_got_load () =
  let linked = simple_program () in
  let got_loads = ref 0 in
  let hooks =
    {
      Process.default_hooks with
      on_retire =
        Event.boxed (fun ev ->
          match ev.Event.branch with
          | Some (Event.Jump_indirect { slot; _ }) ->
              if ev.Event.load = Some slot then incr got_loads
          | _ -> ());
    }
  in
  ignore (run_main ~hooks linked);
  checkb "trampoline loads its GOT slot" true (!got_loads >= 1)

let test_event_count_matches_retired () =
  let linked = simple_program () in
  let events = ref 0 in
  let hooks =
    { Process.default_hooks with on_retire = Event.boxed (fun _ -> incr events) }
  in
  let p = run_main ~hooks linked in
  checki "one event per retired" (Process.retired p) !events

(* ---------------- retire-stream pins ---------------- *)

(* Exact renderings of the boxed retire stream: every field of every
   event, the branch with all of its addresses.  Each registry workload
   runs requests 0-2 through a bare interpreter; one more stream comes
   through the kernel's tap on an Enhanced simulator, whose redirected
   calls retire with [target <> arch_target]. *)

module Sim = Dlink_core.Sim
module Workload = Dlink_core.Workload
module Kernel = Dlink_pipeline.Kernel

let render_event buf (ev : Event.t) =
  let opt = function None -> "-" | Some a -> Printf.sprintf "%x" a in
  let branch =
    match ev.Event.branch with
    | None -> "-"
    | Some (Event.Call_direct { target; arch_target }) ->
        Printf.sprintf "cd:%x:%x" target arch_target
    | Some (Event.Call_indirect { target; slot }) ->
        Printf.sprintf "ci:%x:%x" target slot
    | Some (Event.Jump_direct { target }) -> Printf.sprintf "jd:%x" target
    | Some (Event.Jump_indirect { target; slot }) ->
        Printf.sprintf "ji:%x:%x" target slot
    | Some (Event.Jump_resolver { target }) -> Printf.sprintf "jr:%x" target
    | Some (Event.Cond_branch { target; taken }) ->
        Printf.sprintf "cb:%x:%b" target taken
    | Some (Event.Return { target }) -> Printf.sprintf "rt:%x" target
  in
  Printf.bprintf buf "%x %d %b %s %s %s %s\n" ev.Event.pc ev.Event.size
    ev.Event.in_plt (opt ev.Event.load) (opt ev.Event.load2)
    (opt ev.Event.store) branch

let stream_pin buf n =
  Printf.sprintf "%d:%s" n (Digest.to_hex (Digest.string (Buffer.contents buf)))

let registry_workload name =
  (Option.get (Dlink_workloads.Registry.find name)) ()

let interpreter_stream name =
  let w = registry_workload name in
  let linked =
    Loader.load_exn
      ~opts:{ Loader.default_options with func_align = w.Workload.func_align }
      w.Workload.objs
  in
  let buf = Buffer.create (1 lsl 20) and n = ref 0 in
  let hooks =
    {
      Process.default_hooks with
      on_retire =
        Event.boxed (fun ev ->
          incr n;
          render_event buf ev);
    }
  in
  let p = Process.create ~hooks linked in
  for i = 0 to 2 do
    let req = w.Workload.gen_request i in
    Process.call p
      (Option.get
         (Loader.func_addr linked ~mname:req.Workload.mname
            ~fname:req.Workload.fname))
  done;
  stream_pin buf !n

let stream_pins =
  [
    ("apache", "48916:f9f3c298d5901491628bf4b720883346");
    ("memcached", "50017:15cb977f3108add2fe10faf090d5c6ce");
    ("mysql", "318642:0314e25cda0501e439cac298cec7b6fd");
    ("firefox", "402046:4c7cc423ced4707634ae959eb2775874");
    ("synth", "2516:a6292cdbb247d6737cf33153e3b44c18");
    ("churn", "2200:6e5c3ccbf4b8133f091c1b12bb37d77b");
  ]

let test_stream_pins () =
  List.iter
    (fun (name, pin) ->
      Alcotest.(check string) name pin (interpreter_stream name))
    stream_pins

let test_tap_stream_pin () =
  let w = registry_workload "memcached" in
  let sim =
    Sim.create ~func_align:w.Workload.func_align ~mode:Sim.Enhanced
      w.Workload.objs
  in
  let buf = Buffer.create (1 lsl 20) and n = ref 0 and redirected = ref 0 in
  Kernel.set_tap (Sim.kernel sim)
    (Some
       (fun ev ->
         incr n;
         (match ev.Event.branch with
         | Some (Event.Call_direct { target; arch_target })
           when target <> arch_target ->
             incr redirected
         | _ -> ());
         render_event buf ev));
  for i = 0 to 2 do
    let req = w.Workload.gen_request i in
    Sim.call sim ~mname:req.Workload.mname ~fname:req.Workload.fname
  done;
  checki "redirected calls" 35 !redirected;
  Alcotest.(check string)
    "tap stream" "49982:7aa554f18906a518628a42f723530dca" (stream_pin buf !n)

(* ---------------- property tests ---------------- *)

let qcheck_tests =
  [
    QCheck.Test.make ~name:"memory agrees with the hash-table reference"
      ~count:200
      (QCheck.make
         ~print:(fun ops -> String.concat "; " (List.map show_mem_op ops))
         mem_op_gen)
      memory_agrees_with_reference;
    QCheck.Test.make ~name:"region accesses stay within the region" ~count:50
      (QCheck.int_range 1 1000)
      (fun seed ->
        ignore seed;
        let data_bytes = 4096 in
        let app =
          Objfile.create_exn ~name:"app" ~data_bytes
            [
              func ~exported:false "main"
                [
                  Body.Loop
                    {
                      mean_iters = 20.0;
                      body = [ Body.Touch { loads = 2; stores = 2 } ];
                    };
                ];
            ]
        in
        let linked = Loader.load_exn [ app ] in
        let img = Option.get (Space.image_by_name linked.Loader.space "app") in
        let ok = ref true in
        let hooks =
          {
            Process.default_hooks with
            on_retire =
              Event.boxed (fun ev ->
                let in_data a =
                  a >= img.Image.data.base
                  && a < img.Image.data.base + img.Image.data.size
                in
                let in_stack a =
                  a >= linked.Loader.stack_base && a <= linked.Loader.stack_top
                in
                let check_side = function
                  | Some a when not (in_data a || in_stack a) -> ok := false
                  | _ -> ()
                in
                check_side ev.Event.load;
                check_side ev.Event.store)
          }
        in
        let p = Process.create ~hooks linked in
        Process.call p (Option.get (Loader.func_addr linked ~mname:"app" ~fname:"main"));
        !ok);
    QCheck.Test.make ~name:"arch fingerprint independent of uarch observers" ~count:30
      QCheck.unit
      (fun () ->
        let linked = simple_program () in
        let p1 = run_main linked in
        let p2 =
          run_main
            ~hooks:{ Process.default_hooks with on_retire = Event.boxed ignore }
            linked
        in
        Process.arch_fingerprint p1 = Process.arch_fingerprint p2);
  ]

let () =
  Alcotest.run "dlink_mach"
    [
      ( "memory",
        [
          Alcotest.test_case "default zero" `Quick test_memory_read_default_zero;
          Alcotest.test_case "write/read" `Quick test_memory_write_read;
          Alcotest.test_case "zero erases" `Quick test_memory_zero_write_erases;
          Alcotest.test_case "fingerprint order-free" `Quick
            test_memory_fingerprint_order_independent;
          Alcotest.test_case "copy isolated" `Quick test_memory_copy_isolated;
        ] );
      ( "interpreter",
        [
          Alcotest.test_case "runs to completion" `Quick test_call_runs_to_completion;
          Alcotest.test_case "stack balanced" `Quick test_sp_restored_after_call;
          Alcotest.test_case "lazy resolution writes GOT" `Quick test_lazy_resolution_writes_got;
          Alcotest.test_case "resolver once per symbol" `Quick test_resolver_runs_once_per_symbol;
          Alcotest.test_case "eager never resolves" `Quick test_eager_mode_never_resolves;
          Alcotest.test_case "static no plt events" `Quick test_static_mode_no_plt_events;
          Alcotest.test_case "first call: 5 stub insns" `Quick
            test_lazy_first_call_executes_five_plt_instructions;
          Alcotest.test_case "second call: 1 stub insn" `Quick
            test_lazy_second_call_executes_one_plt_instruction;
          Alcotest.test_case "loops terminate" `Quick test_cond_loop_terminates;
          Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion_raises;
          Alcotest.test_case "invalid fetch" `Quick test_invalid_fetch_raises;
        ] );
      ( "faults",
        [
          Alcotest.test_case "dangling eager import" `Quick
            test_dangling_extra_import_faults_cleanly;
          Alcotest.test_case "dangling lazy import" `Quick
            test_dangling_lazy_import_fails_in_resolver;
          Alcotest.test_case "corrupted GOT" `Quick test_corrupted_got_faults;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "bit-identical reruns" `Quick test_run_determinism;
          Alcotest.test_case "redirect preserves state" `Quick
            test_redirect_hook_preserves_arch_state;
        ] );
      ( "events",
        [
          Alcotest.test_case "call event shape" `Quick test_call_event_shape;
          Alcotest.test_case "trampoline GOT load" `Quick test_trampoline_event_has_got_load;
          Alcotest.test_case "event per retired" `Quick test_event_count_matches_retired;
        ] );
      ( "stream pins",
        [
          Alcotest.test_case "interpreter streams" `Quick test_stream_pins;
          Alcotest.test_case "enhanced tap stream" `Quick test_tap_stream_pin;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
