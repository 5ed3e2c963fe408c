module Sim = Dlink_core.Sim
module Workload = Dlink_core.Workload
module Loader = Dlink_linker.Loader
module Process = Dlink_mach.Process
module Kernel = Dlink_pipeline.Kernel

(* Base and Enhanced share one architectural stream: Enhanced's redirects
   are applied (and trampoline events dropped) at replay time, so both
   replay the lazy-binding recording. *)
let record_mode = function Sim.Enhanced -> Sim.Base | m -> m

let record ?aslr_seed ?warmup ?requests ~mode (w : Workload.t) =
  let mode = record_mode mode in
  let opts =
    {
      Loader.default_options with
      mode = Sim.link_mode mode;
      aslr_seed;
      func_align = w.Workload.func_align;
    }
  in
  let linked = Loader.load_exn ~opts w.Workload.objs in
  let is_plt_entry = Loader.is_plt_entry linked in
  let writer = Trace.Writer.create () in
  (* Classify with the kernel's own predicates, so the flag bits a replay
     consumes are by construction the bits the unified retire path would
     compute live. *)
  let in_got = Loader.in_any_got linked in
  let on_retire ~pc ~size ~in_plt ~load ~load2 ~store ~kind ~target ~aux
      ~taken =
    Trace.Writer.add_packed writer
      ~plt_call:(Kernel.is_plt_call ~is_plt_entry ~kind ~target ~aux)
      ~got_store:(Kernel.is_got_store ~in_got store)
      ~pc ~size ~in_plt ~load ~load2 ~store ~kind ~target ~aux ~taken
  in
  let hooks =
    { Process.on_fetch_call = (fun ~pc:_ ~arch_target -> arch_target); on_retire }
  in
  let process = Process.create ~hooks linked in
  let run_request i =
    let req = w.Workload.gen_request i in
    Trace.Writer.start_request writer ~rtype:req.Workload.rtype;
    match
      Loader.func_addr linked ~mname:req.Workload.mname ~fname:req.Workload.fname
    with
    | Some a -> Process.call process a
    | None ->
        invalid_arg
          (Printf.sprintf "Record.record: %s.%s not found" req.Workload.mname
             req.Workload.fname)
  in
  let warmup = Option.value warmup ~default:w.Workload.warmup_requests in
  let n = Option.value requests ~default:w.Workload.default_requests in
  for i = 0 to warmup - 1 do
    run_request (-1 - i)
  done;
  for i = 0 to n - 1 do
    run_request i
  done;
  Trace.Writer.finish writer ~warmup
