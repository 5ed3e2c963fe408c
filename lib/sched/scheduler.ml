open Dlink_mach
module Loader = Dlink_linker.Loader
module Sim = Dlink_core.Sim
module Skip = Dlink_pipeline.Skip
module Workload = Dlink_core.Workload
module Kernel = Dlink_pipeline.Kernel
module Multi = Dlink_pipeline.Multi

(* Thin generate-mode driver over the pipeline kernel's multi-core
   topology: this module owns what is specific to live workloads — loaded
   address spaces, interpreter processes, request generation — while
   dispatch, ASID switching, quantum accounting, and coherence live in
   [Dlink_pipeline.Multi]. *)

type proc = {
  pid : int;
  pname : string;
  workload : Workload.t;
  linked : Loader.t;
  process : Process.t;
  m : Multi.t;
}

type core = Multi.core

type t = { m : Multi.t; smode : Sim.mode; procs : proc array }

let policy t = Multi.policy t.m
let quantum t = Multi.quantum t.m
let mode t = t.smode
let bus t = Multi.bus t.m
let n_cores t = Multi.n_cores t.m
let procs t = Array.to_list t.procs

let proc t pid =
  if pid < 0 || pid >= Array.length t.procs then
    invalid_arg (Printf.sprintf "Scheduler.proc: no pid %d" pid);
  t.procs.(pid)

let pid (p : proc) = p.pid
let name (p : proc) = p.pname
let proc_counters (p : proc) = Multi.proc_counters p.m p.pid
let requests_done (p : proc) = Multi.requests_done p.m p.pid
let quanta (p : proc) = Multi.quanta p.m p.pid
let proc_linked (p : proc) = p.linked
let proc_process (p : proc) = p.process
let latencies_us (p : proc) = Multi.latencies_us p.m p.pid

let core t i =
  if i < 0 || i >= Multi.n_cores t.m then
    invalid_arg (Printf.sprintf "Scheduler.core: no core %d" i);
  Multi.core t.m i

let core_counters c = Kernel.counters (Multi.kernel c)
let core_skip c = Kernel.skip (Multi.kernel c)
let core_switches c = Multi.core_switches c
let switches t = Multi.switches t.m
let system_counters t = Multi.system_counters t.m

(* ------------------------------------------------------------------ *)

let func_addr_exn linked ~mname ~fname =
  match Loader.func_addr linked ~mname ~fname with
  | Some a -> a
  | None ->
      invalid_arg (Printf.sprintf "Scheduler: %s.%s not found" mname fname)

let step t = Multi.step t.m

let run t =
  while step t do
    ()
  done

let finished t = Multi.finished t.m

let retire_got_store t ~pid addr =
  ignore (proc t pid);
  Multi.retire_got_store t.m ~pid addr

(* ------------------------------------------------------------------ *)

let create ?ucfg ?skip_cfg ?(mode = Sim.Enhanced) ?requests ~policy ~quantum
    ~cores workloads =
  if quantum <= 0 then invalid_arg "Scheduler.create: quantum must be positive";
  if cores <= 0 then invalid_arg "Scheduler.create: cores must be positive";
  if workloads = [] then invalid_arg "Scheduler.create: no workloads";
  let specs =
    List.mapi
      (fun pid (w : Workload.t) ->
        {
          Multi.asid = pid + 1;
          requests = Option.value requests ~default:w.Workload.default_requests;
          cycles_to_us = Workload.cycles_to_us w;
        })
      workloads
  in
  let m =
    Multi.create ?ucfg ?skip_cfg
      ~with_skip:(mode = Sim.Enhanced)
      ~policy ~quantum ~cores specs
  in
  let procs =
    Array.of_list
      (List.mapi
         (fun pid (w : Workload.t) ->
           let opts =
             {
               Loader.default_options with
               mode = Sim.link_mode mode;
               func_align = w.Workload.func_align;
             }
           in
           let linked = Loader.load_exn ~opts w.Workload.objs in
           let kernel = Multi.kernel (Multi.core_of m pid) in
           let hooks =
             Kernel.process_hooks kernel
               ~is_plt_entry:(Loader.is_plt_entry linked)
               ~in_got:(Loader.in_any_got linked)
           in
           let process = Process.create ~hooks linked in
           { pid; pname = w.Workload.wname; workload = w; linked; process; m })
         workloads)
  in
  (* The skip unit is shared by every process on the core, so its GOT
     reads must go through whichever process is currently running. *)
  for i = 0 to Multi.n_cores m - 1 do
    let c = Multi.core m i in
    Kernel.set_read_got (Multi.kernel c) (fun slot ->
        match Multi.running c with
        | -1 -> 0
        | rpid -> Memory.read (Process.memory procs.(rpid).process) slot)
  done;
  Multi.set_exec m (fun c ~pid ~req ->
      let p = procs.(pid) in
      let rq = p.workload.Workload.gen_request req in
      Kernel.note_boundary (Multi.kernel c) ~rtype:rq.Workload.rtype;
      let addr =
        func_addr_exn p.linked ~mname:rq.Workload.mname ~fname:rq.Workload.fname
      in
      Process.call p.process addr);
  { m; smode = mode; procs }
