open Dlink_isa
open Dlink_mach
open Dlink_uarch
open Dlink_linker
module Skip = Dlink_pipeline.Skip
module Kernel = Dlink_pipeline.Kernel
module Policy = Dlink_pipeline.Policy
module Churn = Dlink_core.Churn

type params = {
  cores : int;
  quantum : int;
  policy : Policy.t;
  link_mode : Mode.t;
  rate : int;
  ops : int;
  min_instructions : int;
  seed : int;
  epoch_guard : bool;
}

let default_params =
  {
    cores = 4;
    quantum = 64;
    policy = Policy.Asid_shared_guard;
    link_mode = Mode.Lazy_binding;
    rate = 100;
    ops = 10_000;
    min_instructions = 0;
    seed = 1;
    epoch_guard = true;
  }

type bus_stats = {
  published : int;
  delivered : int;
  acked : int;
  dropped : int;
  retries : int;
  reorders : int;
  timeouts : int;
  stale_discards : int;
  unresolved : int;
}

type report = {
  ops : int;
  churn_events : int;
  migrations : int;
  crashes : int;
  counters : Counters.t;
  per_core : Counters.t array;
  checks : int;
  violations : int;
  fetch_unmapped : int;
  stale_skips : int;
  stale_messages : int;
  aba_discards : int;
  recorded : Invariant.violation list;
  first_violation_op : int option;
  epoch_guard : bool;
  bus : bus_stats;
  opens : int;
  closes : int;
  rebinds : int;
  grace_unmaps : int;
  forced_unmaps : int;
  retiring : int;
  faults_injected : int;
}

(* The soak adds its invariant checker and fault injector to the churn
   machine.  The checker taps every kernel and the bus's validation
   point; nothing it does feeds back into the machine. *)
let run ?ucfg ?skip_cfg ?plan (p : params) (s : Churn.scenario) =
  let plan = Option.value plan ~default:(Plan.empty 0) in
  let m =
    Churn.make_machine ?ucfg ?skip_cfg ~cores:p.cores ~quantum:p.quantum
      ~policy:p.policy ~link_mode:p.link_mode s
  in
  let linked = m.Churn.linked and dynload = m.Churn.dynload in
  let process = m.Churn.process and kernels = m.Churn.kernels in
  let mem = Process.memory process in
  let inv =
    Invariant.create
      {
        Invariant.in_mapped =
          (fun pc -> Space.image_at linked.Loader.space pc <> None);
        skip_target_ok =
          (fun ~tramp ~target ->
            match Loader.plt_symbol_at linked tramp with
            | None -> false
            | Some (sym, img_id) -> (
                match Space.image_by_id linked.Loader.space img_id with
                | None -> false
                | Some img -> (
                    match Hashtbl.find_opt img.Image.got_slots sym with
                    | None -> false
                    | Some slot -> Memory.read mem slot = target)));
        message_fresh =
          (fun ~stamp addr -> Churn.generation_stamp dynload addr = stamp);
        epoch_guard = p.epoch_guard;
      }
  in
  Array.iteri
    (fun i k -> Kernel.set_tap k (Some (fun ev -> Invariant.on_retire inv ~core:i ev)))
    kernels;
  Option.iter
    (fun bus ->
      Coherence.set_validate bus
        (Some
           (fun ~src ~stamp addr -> Invariant.on_message inv ~src ~stamp addr)))
    m.Churn.bus;
  let inject = Inject.on_machine ~plan m in
  let rot = Churn.rotation m ~rate:p.rate ~seed:p.seed in
  let close h = ignore (Inject.close inject dynload h : bool) in
  let crashes = ref 0 in
  let call_one addr =
    (* Under injected faults the interpreter itself can refuse to
       proceed; classify the crash with the checker's vocabulary (the pc
       recorded is the request's entry — the precise faulting pc died
       with the exception) and keep soaking. *)
    let core = !(m.Churn.cur) in
    try Process.call process ~fuel:Churn.call_fuel addr with
    | Process.Fault _ ->
        incr crashes;
        Invariant.record_fetch_fault inv ~core ~pc:addr
    | Skip.Misspeculation _ ->
        incr crashes;
        Invariant.record_stale_skip inv ~core ~pc:addr ~tramp:Addr.none
          ~target:Addr.none
  in
  Churn.warm_up rot;
  let before = Array.map (fun k -> Counters.copy (Kernel.counters k)) kernels in
  let first_vop = ref None in
  let total_instructions () =
    Array.fold_left
      (fun acc k -> acc + (Kernel.counters k).Counters.instructions)
      0 kernels
  in
  let op = ref 0 in
  while !op < p.ops || total_instructions () < p.min_instructions do
    Churn.dispatch m !op;
    Inject.on_request inject !op;
    (* Deferred invalidations from an Unload_inflight close land at the
       next op boundary — after the freed range may have been reused. *)
    Dynload.flush_pending dynload;
    call_one (Churn.next ~close rot);
    if !first_vop = None && Invariant.violations inv > 0 then
      first_vop := Some !op;
    incr op
  done;
  Churn.quiesce m;
  Inject.detach inject;

  let per_core =
    Array.mapi
      (fun i k -> Counters.diff ~after:(Kernel.counters k) ~before:before.(i))
      kernels
  in
  let counters = Counters.create () in
  Array.iter (fun c -> Counters.add ~into:counters c) per_core;
  let d = Dynload.stats dynload in
  (* One core has no bus: it reads as an idle one. *)
  let bus = Option.value m.Churn.bus ~default:(Coherence.create ()) in
  {
    ops = !op;
    churn_events = Churn.churn_events rot;
    migrations = m.Churn.migrations;
    crashes = !crashes;
    counters;
    per_core;
    checks = Invariant.checks inv;
    violations = Invariant.violations inv;
    fetch_unmapped = Invariant.fetch_unmapped inv;
    stale_skips = Invariant.stale_skips inv;
    stale_messages = Invariant.stale_messages inv;
    aba_discards = Invariant.aba_discards inv;
    recorded = Invariant.recorded inv;
    first_violation_op = !first_vop;
    epoch_guard = p.epoch_guard;
    bus =
      {
        published = Coherence.published bus;
        delivered = Coherence.delivered bus;
        acked = Coherence.acked bus;
        dropped = Coherence.dropped bus;
        retries = Coherence.retries bus;
        reorders = Coherence.reorders bus;
        timeouts = Coherence.timeouts bus;
        stale_discards = Coherence.stale_discards bus;
        unresolved = Coherence.pending bus;
      };
    opens = d.Dynload.opens;
    closes = d.Dynload.closes;
    rebinds = d.Dynload.rebinds;
    grace_unmaps = d.Dynload.grace_unmaps;
    forced_unmaps = d.Dynload.forced_unmaps;
    retiring = Dynload.retiring_count dynload;
    faults_injected = counters.Counters.fault_injected;
  }

let check ?(plan = Plan.empty 0) (r : report) =
  let clean = plan.Plan.events = [] in
  let fail cond msg acc = if cond then msg :: acc else acc in
  []
  |> fail (clean && r.violations > 0) "invariant violation in a fault-free run"
  |> fail (clean && r.crashes > 0) "interpreter fault in a fault-free run"
  |> fail (clean && r.bus.timeouts > 0) "coherence timeout in a fault-free run"
  |> fail
       (clean && r.bus.dropped > 0)
       "dropped delivery attempt in a fault-free run"
  |> fail (r.bus.unresolved > 0) "coherence messages unresolved after quiesce"
  |> fail (r.retiring > 0) "unmap grace periods unresolved after quiesce"
  |> fail
       (r.bus.published
       <> r.bus.acked + r.bus.timeouts + r.bus.stale_discards)
       "bus conservation violated (published <> acked + timeouts + stale)"
  |> fail
       (r.epoch_guard && r.stale_messages > 0)
       "stale message applied despite the epoch guard"
  |> List.rev

let failed ~plan r = r.violations > 0 || check ~plan r <> []

(* ddmin over plan events, as {!Fuzz.shrink}: drop contiguous chunks while
   the sub-plan still produces a violation or a property failure. *)
let shrink ?ucfg ?skip_cfg (p : params) ~plan (s : Churn.scenario) =
  let trial events =
    let sub = { plan with Plan.events } in
    (sub, run ?ucfg ?skip_cfg ~plan:sub p s)
  in
  let r0 = run ?ucfg ?skip_cfg ~plan p s in
  if not (failed ~plan r0) then (plan, r0)
  else begin
    let best = ref (plan, r0) in
    let continue = ref true in
    while !continue do
      continue := false;
      let events = Array.of_list (fst !best).Plan.events in
      let n = Array.length events in
      let chunk = ref (max 1 (n / 2)) in
      let improved = ref false in
      while (not !improved) && !chunk >= 1 do
        let i = ref 0 in
        while (not !improved) && !i < n do
          let keep =
            Array.to_list events
            |> List.filteri (fun j _ -> j < !i || j >= !i + !chunk)
          in
          if List.length keep < n then begin
            let sub, r = trial keep in
            if failed ~plan:sub r then begin
              best := (sub, r);
              improved := true;
              continue := true
            end
          end;
          i := !i + !chunk
        done;
        if not !improved then chunk := !chunk / 2
      done
    done;
    !best
  end

let crosscheck ?ucfg ?skip_cfg (p : params) (s : Churn.scenario) =
  let p1 = { p with cores = 1; min_instructions = 0 } in
  let r = run ?ucfg ?skip_cfg p1 s in
  let cell =
    Churn.run_cell ?ucfg ?skip_cfg ~link_mode:p.link_mode ~rate:p.rate
      ~calls:p.ops ~seed:p.seed s
  in
  if r.counters = cell.Churn.counters then Ok ()
  else
    Error
      (Format.asprintf
         "cores=1 soak diverges from run_cell at seed %d:@.soak:@.%a@.cell:@.%a"
         p.seed Counters.pp r.counters Counters.pp cell.Churn.counters)
