open Dlink_uarch
module Rng = Dlink_util.Rng
module Skip = Dlink_pipeline.Skip
module Coherence = Dlink_mach.Coherence
module Churn = Dlink_core.Churn
module Dynload = Dlink_linker.Dynload

type t = {
  plan : Plan.t;
  skip : Skip.t;
  (* Every skip unit carrying this injector's clear-veto; [skip] plus any
     attached by [attach_skip] (multi-core topologies).  The credit pool
     is shared: a suppressed clear consumes one credit on whichever core
     clears next. *)
  mutable skips : Skip.t list;
  (* Which unit skip-targeted actions (Bloom_flip, Spurious_clear,
     Asid_reuse) hit; defaults to [skip], multi-core drivers point it at
     the currently dispatched core. *)
  mutable current : unit -> Skip.t;
  counters : Counters.t;
  bus : Coherence.t option;
  rewrite : (Rng.t -> bool) option;
  rng : Rng.t;
  mutable suppress : int;
  mutable suppress_all : bool; (* veto every clear while set (dlclose window) *)
  mutable drop : int;
  mutable delay : int;
  mutable reorder : int;
  mutable stale_unload : int;
  mutable unload_inflight : int;
}

let veto t () =
  if t.suppress_all then true
  else if t.suppress > 0 then begin
    t.suppress <- t.suppress - 1;
    true
  end
  else false

let create ?bus ?rewrite ~skip ~counters ~plan () =
  let rec t =
    {
      plan;
      skip;
      skips = [ skip ];
      current = (fun () -> t.skip);
      counters;
      bus;
      rewrite;
      rng = Rng.create plan.Plan.seed;
      suppress = 0;
      suppress_all = false;
      drop = 0;
      delay = 0;
      reorder = 0;
      stale_unload = 0;
      unload_inflight = 0;
    }
  in
  Skip.set_clear_veto skip (Some (veto t));
  Option.iter
    (fun bus ->
      Coherence.set_fault bus
        (Some
           (fun ~src:_ _addr ->
             if t.drop > 0 then begin
               t.drop <- t.drop - 1;
               Coherence.Drop
             end
             else if t.delay > 0 then begin
               t.delay <- t.delay - 1;
               Coherence.Delay
             end
             else if t.reorder > 0 then begin
               t.reorder <- t.reorder - 1;
               Coherence.Reorder
             end
             else Coherence.Deliver)))
    bus;
  t

let attach_skip t skip =
  if not (List.memq skip t.skips) then begin
    t.skips <- t.skips @ [ skip ];
    Skip.set_clear_veto skip (Some (veto t))
  end

let set_current t f =
  t.current <- (match f with None -> fun () -> t.skip | Some f -> f)

let detach t =
  List.iter (fun s -> Skip.set_clear_veto s None) t.skips;
  Option.iter (fun bus -> Coherence.set_fault bus None) t.bus

(* Flip a set bit of the Bloom field, starting the search at a random
   position; a no-op on an empty filter. *)
let flip_bloom_bit t =
  let bloom = Skip.bloom (t.current ()) in
  let n = Bloom.size_bits bloom in
  if Bloom.bits_set bloom > 0 then begin
    let start = Rng.int t.rng n in
    let rec seek i steps =
      if steps >= n then ()
      else
        let idx = (start + i) land (n - 1) in
        (* size_bits is a power of two *)
        let before = Bloom.bits_set bloom in
        Bloom.clear_bit bloom idx;
        if Bloom.bits_set bloom < before then () else seek (i + 1) (steps + 1)
    in
    seek 0 0
  end

let apply t action =
  t.counters.Counters.fault_injected <- t.counters.Counters.fault_injected + 1;
  match action with
  | Plan.Bloom_flip -> flip_bloom_bit t
  | Plan.Suppress_clear n -> t.suppress <- t.suppress + n
  | Plan.Spurious_clear -> Skip.flush (t.current ())
  | Plan.Got_rewrite ->
      Option.iter (fun f -> ignore (f t.rng : bool)) t.rewrite
  | Plan.Asid_reuse ->
      let s = t.current () in
      Skip.set_asid s (if Skip.asid s = 0 then 1 else 0)
  | Plan.Drop_msgs n -> t.drop <- t.drop + n
  | Plan.Delay_msgs n -> t.delay <- t.delay + n
  | Plan.Reorder_msgs n -> t.reorder <- t.reorder + n
  | Plan.Stale_unload n -> t.stale_unload <- t.stale_unload + n
  | Plan.Unload_inflight -> t.unload_inflight <- t.unload_inflight + 1

let on_request t at = List.iter (apply t) (Plan.actions_at t.plan at)

let on_machine ~plan (m : Churn.machine) =
  let skips = Churn.skips m in
  let t =
    create ?bus:m.Churn.bus ~rewrite:(Churn.rewrite_got m) ~skip:skips.(0)
      ~counters:(Dlink_pipeline.Kernel.counters m.Churn.kernel)
      ~plan ()
  in
  Array.iteri (fun i sk -> if i > 0 then attach_skip t sk) skips;
  set_current t (Some (fun () -> skips.(!(m.Churn.cur))));
  t

(* The plan's churn hazards are realised at the driver's closes. *)
let close t dynload h =
  if t.stale_unload > 0 then begin
    t.stale_unload <- t.stale_unload - 1;
    t.suppress_all <- true;
    Dynload.dlclose dynload h;
    t.suppress_all <- false;
    true
  end
  else if t.unload_inflight > 0 then begin
    t.unload_inflight <- t.unload_inflight - 1;
    Dynload.dlclose ~defer_invalidate:true dynload h;
    true
  end
  else begin
    Dynload.dlclose dynload h;
    false
  end
