open Dlink_isa
open Dlink_mach
open Dlink_uarch

(* Multi-core topology over the kernel: one kernel per core, ASID-tagged
   processes time-sliced in quanta, and a coherence bus snooped by every
   core's skip controller.  The scheduler proper (workload generation,
   linking, process interpretation) and its replay mirror are thin drivers:
   they describe each process with a [spec] and an [exec] callback that
   runs exactly one request on a core's kernel — everything else
   (dispatch, ASID switching, quantum accounting, latency attribution,
   rotation, coherence draining) lives here, once. *)

type spec = {
  asid : int;
  requests : int;
  (* Latency attribution for this process's requests; a closure over the
     workload so this library needs no workload dependency. *)
  cycles_to_us : int -> float;
}

type core = {
  core_id : int;
  kernel : Kernel.t;
  mutable runq : int list; (* pids assigned here, scheduling order *)
  mutable running : int; (* pid, -1 = none *)
  mutable switches : int;
}

type t = {
  policy : Policy.t;
  quantum : int;
  cores : core array;
  bus : Coherence.t;
  asids : int array;
  core_of : int array;
  next_request : int array;
  remaining : int array;
  requests_done : int array;
  quanta : int array;
  pcounters : Counters.t array;
  lat_us_rev : float list array;
  cycles_to_us : (int -> float) array;
  mutable exec : core -> pid:int -> req:int -> unit;
}

let no_exec _ ~pid:_ ~req:_ =
  invalid_arg "Multi: no exec callback installed (call Multi.set_exec)"

let create ?ucfg ?skip_cfg ~with_skip ~policy ~quantum ~cores specs =
  if quantum <= 0 then invalid_arg "Multi.create: quantum must be positive";
  if cores <= 0 then invalid_arg "Multi.create: cores must be positive";
  if specs = [] then invalid_arg "Multi.create: no processes";
  let specs = Array.of_list specs in
  let n = Array.length specs in
  let bus = Coherence.create () in
  (* Cores are cooperatively time-sliced — between a mid-quantum GOT
     store and the quantum-boundary drain no other core retires a single
     event — so deferring cross-core invalidations into one
     generation-ordered batch applied at the drain is bit-identical to
     delivering them inside the retire loop, and keeps the subscriber
     walk out of the hot path. *)
  Coherence.set_batched bus true;
  let n_cores = min cores n in
  let cores_arr =
    Array.init n_cores (fun core_id ->
        let kernel = Kernel.create ?ucfg ?skip_cfg ~with_skip () in
        (match Kernel.skip kernel with
        | Some s ->
            Coherence.subscribe bus ~core:core_id (fun ~src:_ addr ->
                Skip.on_remote_store s addr)
        | None -> ());
        (* Cross-core visibility: a GOT store retired here is snooped by
           every other core's skip unit.  Wired independently of the skip
           controller so bus traffic is identical across modes. *)
        if policy = Policy.Asid_shared_guard then
          Kernel.set_got_sink kernel
            (Some (fun addr -> Coherence.publish bus ~src:core_id addr));
        { core_id; kernel; runq = []; running = -1; switches = 0 })
  in
  let t =
    {
      policy;
      quantum;
      cores = cores_arr;
      bus;
      asids = Array.map (fun s -> s.asid) specs;
      core_of = Array.init n (fun pid -> pid mod n_cores);
      next_request = Array.make n 0;
      remaining = Array.map (fun s -> s.requests) specs;
      requests_done = Array.make n 0;
      quanta = Array.make n 0;
      pcounters = Array.init n (fun _ -> Counters.create ());
      lat_us_rev = Array.make n [];
      cycles_to_us = Array.map (fun (s : spec) -> s.cycles_to_us) specs;
      exec = no_exec;
    }
  in
  for pid = 0 to n - 1 do
    let c = cores_arr.(t.core_of.(pid)) in
    c.runq <- c.runq @ [ pid ]
  done;
  t

let set_exec t f = t.exec <- f
let policy t = t.policy
let quantum t = t.quantum
let bus t = t.bus
let n_cores t = Array.length t.cores
let n_procs t = Array.length t.asids

let core t i =
  if i < 0 || i >= Array.length t.cores then
    invalid_arg (Printf.sprintf "Multi.core: no core %d" i);
  t.cores.(i)

let kernel c = c.kernel
let core_id c = c.core_id
let running c = c.running
let core_switches c = c.switches

let check_pid t fn pid =
  if pid < 0 || pid >= Array.length t.asids then
    invalid_arg (Printf.sprintf "Multi.%s: no pid %d" fn pid)

let core_of t pid =
  check_pid t "core_of" pid;
  t.cores.(t.core_of.(pid))

let proc_counters t pid =
  check_pid t "proc_counters" pid;
  t.pcounters.(pid)

let requests_done t pid =
  check_pid t "requests_done" pid;
  t.requests_done.(pid)

let quanta t pid =
  check_pid t "quanta" pid;
  t.quanta.(pid)

let latencies_us t pid =
  check_pid t "latencies_us" pid;
  Array.of_list (List.rev t.lat_us_rev.(pid))

let switches t = Array.fold_left (fun acc c -> acc + c.switches) 0 t.cores

let system_counters t =
  let sum = Counters.create () in
  Array.iter (fun c -> Counters.add ~into:sum (Kernel.counters c.kernel)) t.cores;
  sum

(* ------------------------------------------------------------------ *)

let dispatch t c pid =
  if c.running <> pid then begin
    if c.running >= 0 then begin
      c.switches <- c.switches + 1;
      match t.policy with
      | Policy.Flush -> Kernel.context_switch c.kernel
      | Policy.Asid | Policy.Asid_shared_guard ->
          Kernel.context_switch ~retain_asid:true c.kernel
    end;
    Kernel.set_asid c.kernel t.asids.(pid);
    c.running <- pid
  end

(* Back-to-back requests; a request's latency is its service time. *)
let run_quantum t c pid =
  dispatch t c pid;
  let counters = Kernel.counters c.kernel in
  let before = Counters.copy counters in
  for _ = 1 to min t.quantum t.remaining.(pid) do
    let cycles_before = counters.Counters.cycles in
    t.exec c ~pid ~req:t.next_request.(pid);
    t.next_request.(pid) <- t.next_request.(pid) + 1;
    let cycles = counters.Counters.cycles - cycles_before in
    t.lat_us_rev.(pid) <- t.cycles_to_us.(pid) cycles :: t.lat_us_rev.(pid);
    t.remaining.(pid) <- t.remaining.(pid) - 1;
    t.requests_done.(pid) <- t.requests_done.(pid) + 1
  done;
  t.quanta.(pid) <- t.quanta.(pid) + 1;
  (* Invalidations an injected fault held back are released at the quantum
     boundary — a delayed message can never outlive the quantum. *)
  ignore (Coherence.drain t.bus);
  Counters.add ~into:t.pcounters.(pid)
    (Counters.diff ~after:counters ~before)

(* Rotate to the next runnable process on the core, if any.  The selected
   process moves to the back of the queue, so siblings run between its
   quanta — exactly the destructive-interference pattern under study. *)
let next_runnable t c =
  let n = List.length c.runq in
  let rec go i =
    if i >= n then -1
    else
      match c.runq with
      | [] -> -1
      | pid :: rest ->
          c.runq <- rest @ [ pid ];
          if t.remaining.(pid) > 0 then pid else go (i + 1)
  in
  go 0

let step t =
  let progressed = ref false in
  Array.iter
    (fun c ->
      match next_runnable t c with
      | -1 -> ()
      | pid ->
          progressed := true;
          run_quantum t c pid)
    t.cores;
  !progressed

let run t =
  while step t do
    ()
  done

let finished t = Array.for_all (fun r -> r = 0) t.remaining

(* ------------------------------------------------------------------ *)

(* Inject a bare GOT-store retirement on [pid]'s core — the rebinding
   probe used by examples and the fault harness.  The synthetic event is
   exactly what the interpreter would retire for an unadorned store. *)
let retire_got_store t ~pid addr =
  check_pid t "retire_got_store" pid;
  let c = t.cores.(t.core_of.(pid)) in
  dispatch t c pid;
  (match Kernel.skip c.kernel with
  | Some s ->
      Skip.on_retire_packed s ~pc:0 ~size:4 ~store:addr ~kind:Event.Kind.none
        ~target:Addr.none ~aux:Addr.none
  | None -> ());
  if t.policy = Policy.Asid_shared_guard then begin
    Coherence.publish t.bus ~src:c.core_id addr;
    (* Probes arrive outside any quantum, so there is no boundary drain
       coming: apply the invalidation now, as the unbatched bus would. *)
    ignore (Coherence.flush_batch t.bus : int)
  end
