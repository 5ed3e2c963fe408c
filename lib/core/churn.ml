open Dlink_mach
open Dlink_uarch
open Dlink_linker
module Rng = Dlink_util.Rng
module Kernel = Dlink_pipeline.Kernel
module Skip = Dlink_pipeline.Skip
module Policy = Dlink_pipeline.Policy
module Objfile = Dlink_obj.Objfile
module Addr = Dlink_isa.Addr

(* A churn scenario: a statically loaded base (app + service libraries,
   optionally with preload-rank interposers) plus a pool of plugin
   modules the driver rotates through dlopen/dlclose.  Lives here rather
   than in [dlink_workloads] for the same reason {!Workload.t} does: the
   drivers (bench, CLI, fault oracle) depend on this library, and the
   concrete scenario builder depends on them both. *)
type scenario = {
  sname : string;
  base_objs : Objfile.t list;  (** first object is the executable *)
  plugins : Objfile.t array;  (** rotated through dlopen/dlclose *)
  n_resident : int;  (** plugins kept open at any moment *)
  preload : string list;  (** module names with LD_PRELOAD rank *)
  entry : int -> string;  (** plugin index -> exported entry function *)
  func_align : int;
}

(* The full machine for a churn run: the static base image, [cores]
   Enhanced pipeline kernels, ONE interpreter process (one address
   space, one architectural thread) migrating round-robin over them, and
   a dynamic loader whose every GOT write retires through the dispatched
   kernel as an ordinary store — so the Bloom filter and ABTB
   flash-clear logic see module churn exactly as they see lazy
   resolution.  Each kernel keeps its own skip unit whose state persists
   while the thread runs elsewhere; with more than one core the acked
   coherence bus is what keeps that state honest. *)
type machine = {
  scen : scenario;
  linked : Loader.t;
  kernel : Kernel.t;
  kernels : Kernel.t array;
  process : Process.t;
  dynload : Dynload.t;
  bus : Coherence.t option;
  quantum : int;
  policy : Policy.t;
  cur : int ref;
  mutable migrations : int;
  degrades : int array;
  mirror : Memory.t option ref;
}

let call_fuel = 1_000_000
let degrade_window = Skip.default_config.Skip.quarantine_window

let generation_stamp dynload addr =
  match Dynload.generation_at dynload addr with Some g -> g | None -> -1

let make_machine ?ucfg ?skip_cfg ?(with_skip = true) ?(cores = 1)
    ?(quantum = 64) ?(policy = Policy.Asid_shared_guard) ~link_mode ?aslr_seed
    (s : scenario) =
  if cores < 1 then invalid_arg "Churn.make_machine: cores must be >= 1";
  if quantum < 1 then invalid_arg "Churn.make_machine: quantum must be >= 1";
  let opts =
    {
      Loader.default_options with
      mode = link_mode;
      aslr_seed;
      func_align = s.func_align;
      ld_preload = s.preload;
    }
  in
  let linked = Loader.load_exn ~opts s.base_objs in
  let kernels =
    Array.init cores (fun _ -> Kernel.create ?ucfg ?skip_cfg ~with_skip ())
  in
  let cur = ref 0 in
  (* Both predicates consult live loader state, so runtime-mapped PLT and
     GOT sections are classified as soon as they appear. *)
  let is_plt_entry = Loader.is_plt_entry linked in
  let in_got = Loader.in_any_got linked in
  let per_hooks =
    Array.map (fun k -> Kernel.process_hooks k ~is_plt_entry ~in_got) kernels
  in
  let hooks =
    if cores = 1 then per_hooks.(0)
    else
      {
        Process.on_fetch_call =
          (fun ~pc ~arch_target ->
            per_hooks.(!cur).Process.on_fetch_call ~pc ~arch_target);
        on_retire =
          (fun ~pc ~size ~in_plt ~load ~load2 ~store ~kind ~target ~aux ~taken ->
            per_hooks.(!cur).Process.on_retire ~pc ~size ~in_plt ~load ~load2
              ~store ~kind ~target ~aux ~taken);
      }
  in
  let process = Process.create ~hooks linked in
  let mem = Process.memory process in
  Array.iter
    (fun k -> Kernel.set_read_got k (fun slot -> Memory.read mem slot))
    kernels;
  let mirror = ref None in
  let store a v =
    Memory.write mem a v;
    (match !mirror with Some r -> Memory.write r a v | None -> ());
    Kernel.retire_packed kernels.(!cur) ~pc:linked.Loader.resolver_entry ~size:4
      ~in_plt:false ~plt_call:false ~got_store:(in_got a) ~load:Addr.none
      ~load2:Addr.none ~store:a ~kind:Event.Kind.none ~target:Addr.none
      ~aux:Addr.none ~taken:false
  in
  let dynload = Dynload.create ~store ~read:(Memory.read mem) linked in
  let degrades = Array.make cores 0 in
  (* One core has no other core to invalidate, so the bus exists only
     when there is one.  Every GOT store retired on the dispatched core
     is published stamped with its owning mapping's generation, delivery
     discards a stamp that no longer matches (the epoch guard), an unmap
     waits for every earlier message to resolve, and a timed-out
     invalidation degrades the laggard core instead of letting it keep
     skipping on trust. *)
  let bus =
    if cores = 1 then None
    else begin
      let bus = Coherence.create () in
      Array.iteri
        (fun i k ->
          Option.iter
            (fun sk ->
              Coherence.subscribe bus ~core:i (fun ~src:_ addr ->
                  Skip.on_remote_store sk addr))
            (Kernel.skip k);
          Kernel.set_got_sink k
            (Some
               (fun addr ->
                 Coherence.publish ~stamp:(generation_stamp dynload addr) bus
                   ~src:i addr)))
        kernels;
      Dynload.set_unmap_barrier dynload
        (Some
           (fun ~span_base:_ ~span_end:_ ~complete ->
             Coherence.fence bus ~complete));
      Coherence.set_validate bus
        (Some
           (fun ~src:_ ~stamp addr -> generation_stamp dynload addr = stamp));
      Coherence.set_on_timeout bus
        (Some
           (fun ~core ~src:_ _addr ->
             Option.iter
               (fun sk ->
                 if Skip.degraded_remaining sk = 0 then
                   degrades.(core) <- degrades.(core) + 1;
                 Skip.degrade sk ~window:degrade_window)
               (Kernel.skip kernels.(core))));
      Some bus
    end
  in
  {
    scen = s;
    linked;
    kernel = kernels.(0);
    kernels;
    process;
    dynload;
    bus;
    quantum;
    policy;
    cur;
    migrations = 0;
    degrades;
    mirror;
  }

let skip_of k =
  match Kernel.skip k with
  | Some s -> s
  | None -> invalid_arg "Churn: machine built without skip hardware"

let skips m = Array.map skip_of m.kernels

(* Round-robin dispatch at quantum boundaries: the arrival core pays the
   policy's context switch, then the bus drains, bounding how long an
   in-flight invalidation stays unresolved. *)
let dispatch m op =
  if op mod m.quantum = 0 then begin
    let core = op / m.quantum mod Array.length m.kernels in
    if core <> !(m.cur) then begin
      m.migrations <- m.migrations + 1;
      (match m.policy with
      | Policy.Flush -> Kernel.context_switch m.kernels.(core)
      | Policy.Asid | Policy.Asid_shared_guard ->
          Kernel.context_switch ~retain_asid:true m.kernels.(core));
      m.cur := core
    end;
    Option.iter (fun bus -> ignore (Coherence.drain bus : int)) m.bus
  end

(* Quiesce: drain until every parked message resolves (retry backoff is
   bounded, so this terminates well inside the budget), then force any
   grace periods still waiting on cores that will never ack. *)
let quiesce m =
  let rec settle bus budget =
    if budget > 0 && Coherence.pending bus > 0 then begin
      ignore (Coherence.drain bus : int);
      settle bus (budget - 1)
    end
  in
  Option.iter (fun bus -> settle bus 256) m.bus;
  ignore (Dynload.force_retiring m.dynload : int);
  Option.iter (fun bus -> settle bus 256) m.bus

(* Got_rewrite: rebind the GOT slot behind a live entry of the dispatched
   core's ABTB directly in memory (and in the mirror), bypassing retire —
   and hence the Bloom filter and the bus.  The unguarded-store hazard. *)
let rewrite_got m rng =
  let live = ref [] in
  Abtb.iter
    (fun _tramp e -> live := e :: !live)
    (Skip.abtb (skip_of m.kernels.(!(m.cur))));
  let live = Array.of_list (List.rev !live) in
  let linkmap = m.linked.Loader.linkmap in
  let pool =
    List.filter_map (Linkmap.lookup_addr linkmap) (Linkmap.symbols linkmap)
  in
  if Array.length live = 0 || List.compare_length_with pool 2 < 0 then false
  else begin
    let e = live.(Rng.int rng (Array.length live)) in
    match List.filter (fun a -> a <> e.Abtb.func) pool with
    | [] -> false
    | cands ->
        let target = List.nth cands (Rng.int rng (List.length cands)) in
        Memory.write (Process.memory m.process) e.Abtb.got_slot target;
        (match !(m.mirror) with
        | Some r -> Memory.write r e.Abtb.got_slot target
        | None -> ());
        true
  end

(* The plugin rotation: [slots] holds the resident plugin indices,
   [parked] the rest, oldest-closed first.  A churn event closes one
   resident plugin and opens one parked plugin in its place, so freed
   ranges get reused by modules with different import orders — the
   layout instability that makes runtime churn interesting to the skip
   hardware. *)
type rotation = {
  m : machine;
  rng : Rng.t;
  rate : int;
  slots : int array;
  parked : int Queue.t;
  handles : Dynload.handle array;
  mutable churn_events : int;
}

let rotation m ~rate ~seed =
  let s = m.scen in
  let n = Array.length s.plugins in
  let resident = max 1 (min s.n_resident n) in
  let slots = Array.init resident (fun i -> i) in
  let parked = Queue.create () in
  for i = resident to n - 1 do
    Queue.add i parked
  done;
  let handles =
    Array.map (fun i -> Dynload.dlopen m.dynload s.plugins.(i)) slots
  in
  { m; rng = Rng.create seed; rate; slots; parked; handles; churn_events = 0 }

let churn_events r = r.churn_events

let entry_addr r k =
  let s = r.m.scen in
  let i = r.slots.(k) in
  match
    Loader.func_addr r.m.linked ~mname:s.plugins.(i).Objfile.name
      ~fname:(s.entry i)
  with
  | Some a -> a
  | None ->
      invalid_arg
        (Printf.sprintf "Churn: %s.%s not found" s.plugins.(i).Objfile.name
           (s.entry i))

(* A short warm-up touches every resident plugin once so cold-start
   resolution doesn't dominate small runs. *)
let warm_up r =
  for k = 0 to Array.length r.slots - 1 do
    Process.call r.m.process (entry_addr r k)
  done

let churn ~close r =
  let d = r.m.dynload and plugins = r.m.scen.plugins in
  if Queue.is_empty r.parked then begin
    (* A pool with nothing parked still churns: close and reopen. *)
    close r.handles.(0);
    r.handles.(0) <- Dynload.dlopen d plugins.(r.slots.(0))
  end
  else begin
    let k = Rng.int r.rng (Array.length r.slots) in
    close r.handles.(k);
    Queue.add r.slots.(k) r.parked;
    let inc = Queue.take r.parked in
    r.slots.(k) <- inc;
    r.handles.(k) <- Dynload.dlopen d plugins.(inc)
  end;
  r.churn_events <- r.churn_events + 1

let next ?close r =
  if r.rate > 0 && Rng.int r.rng 1000 < r.rate then begin
    let close =
      match close with Some f -> f | None -> Dynload.dlclose r.m.dynload
    in
    churn ~close r
  end;
  entry_addr r (Rng.int r.rng (Array.length r.slots))

(* One measured (churn rate x link mode) cell. *)
type cell = {
  link_mode : Mode.t;
  rate : int;  (** churn events per 1000 calls *)
  calls : int;
  churn_events : int;
  counters : Counters.t;  (** measurement window only *)
  opens : int;
  closes : int;
  rebinds : int;
  stable_hits : int;
  stable_misses : int;
  wall_s : float;
  sim_mips : float;
}

let clear_rate c =
  1000.0 *. float_of_int c.counters.Counters.abtb_clears
  /. float_of_int (max 1 c.calls)

let skip_rate c =
  float_of_int c.counters.Counters.tramp_skips
  /. float_of_int (max 1 c.counters.Counters.tramp_calls)

(* Drive [calls] plugin invocations on a one-core machine, rotating the
   resident plugin set at the requested rate. *)
let run_cell ?ucfg ?skip_cfg ?(with_skip = true) ?aslr_seed ~link_mode ~rate
    ~calls ~seed (s : scenario) =
  let m = make_machine ?ucfg ?skip_cfg ~with_skip ~link_mode ?aslr_seed s in
  let rot = rotation m ~rate ~seed in
  warm_up rot;
  let before = Counters.copy (Kernel.counters m.kernel) in
  (* [Dynload.stats] is the live record: take the window's start values. *)
  let d = Dynload.stats m.dynload in
  let opens0 = d.Dynload.opens and closes0 = d.Dynload.closes in
  let rebinds0 = d.Dynload.rebinds in
  let hits0 = d.Dynload.stable_hits and misses0 = d.Dynload.stable_misses in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to calls do
    Process.call m.process (next rot)
  done;
  let wall_s = Unix.gettimeofday () -. t0 in
  let counters = Counters.diff ~after:(Kernel.counters m.kernel) ~before in
  {
    link_mode;
    rate;
    calls;
    churn_events = rot.churn_events;
    counters;
    opens = d.Dynload.opens - opens0;
    closes = d.Dynload.closes - closes0;
    rebinds = d.Dynload.rebinds - rebinds0;
    stable_hits = d.Dynload.stable_hits - hits0;
    stable_misses = d.Dynload.stable_misses - misses0;
    wall_s;
    sim_mips =
      (if wall_s > 0.0 then
         float_of_int counters.Counters.instructions /. wall_s /. 1e6
       else 0.0);
  }
