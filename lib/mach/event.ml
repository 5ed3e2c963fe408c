open Dlink_isa

type branch =
  | Call_direct of { target : Addr.t; arch_target : Addr.t }
  | Call_indirect of { target : Addr.t; slot : Addr.t }
  | Jump_direct of { target : Addr.t }
  | Jump_indirect of { target : Addr.t; slot : Addr.t }
  | Jump_resolver of { target : Addr.t }
  | Cond_branch of { target : Addr.t; taken : bool }
  | Return of { target : Addr.t }

type t = {
  pc : Addr.t;
  size : int;
  in_plt : bool;
  load : Addr.t option;
  load2 : Addr.t option;
  store : Addr.t option;
  branch : branch option;
}

(* Packed branch kinds: the allocation-free mirror of [branch] used by the
   trace subsystem and the engine's packed retire path.  Three bits. *)
module Kind = struct
  let none = 0
  let call_direct = 1
  let call_indirect = 2
  let jump_direct = 3
  let jump_indirect = 4
  let jump_resolver = 5
  let cond_branch = 6
  let return = 7
end

(* [kind, target, aux, taken] quadruple of a branch option.  [aux] carries
   the second address when the variant has one (the architectural target of
   a direct call, the GOT slot of an indirect branch) and [Addr.none]
   otherwise. *)
let pack_branch = function
  | None -> (Kind.none, Addr.none, Addr.none, false)
  | Some (Call_direct { target; arch_target }) ->
      (Kind.call_direct, target, arch_target, false)
  | Some (Call_indirect { target; slot }) -> (Kind.call_indirect, target, slot, false)
  | Some (Jump_direct { target }) -> (Kind.jump_direct, target, Addr.none, false)
  | Some (Jump_indirect { target; slot }) -> (Kind.jump_indirect, target, slot, false)
  | Some (Jump_resolver { target }) -> (Kind.jump_resolver, target, Addr.none, false)
  | Some (Cond_branch { target; taken }) -> (Kind.cond_branch, target, Addr.none, taken)
  | Some (Return { target }) -> (Kind.return, target, Addr.none, false)

let unpack_branch ~kind ~target ~aux ~taken =
  if kind = Kind.none then None
  else if kind = Kind.call_direct then
    Some (Call_direct { target; arch_target = (if aux = Addr.none then target else aux) })
  else if kind = Kind.call_indirect then Some (Call_indirect { target; slot = aux })
  else if kind = Kind.jump_direct then Some (Jump_direct { target })
  else if kind = Kind.jump_indirect then Some (Jump_indirect { target; slot = aux })
  else if kind = Kind.jump_resolver then Some (Jump_resolver { target })
  else if kind = Kind.cond_branch then Some (Cond_branch { target; taken })
  else if kind = Kind.return then Some (Return { target })
  else invalid_arg (Printf.sprintf "Event.unpack_branch: bad kind %d" kind)

type retire =
  pc:Addr.t ->
  size:int ->
  in_plt:bool ->
  load:Addr.t ->
  load2:Addr.t ->
  store:Addr.t ->
  kind:int ->
  target:Addr.t ->
  aux:Addr.t ->
  taken:bool ->
  unit

let opt a = if a = Addr.none then None else Some a

let of_packed ~pc ~size ~in_plt ~load ~load2 ~store ~kind ~target ~aux ~taken =
  {
    pc;
    size;
    in_plt;
    load = opt load;
    load2 = opt load2;
    store = opt store;
    branch = unpack_branch ~kind ~target ~aux ~taken;
  }

let boxed f ~pc ~size ~in_plt ~load ~load2 ~store ~kind ~target ~aux ~taken =
  f (of_packed ~pc ~size ~in_plt ~load ~load2 ~store ~kind ~target ~aux ~taken)

let branch_target = function
  | Call_direct { target; _ }
  | Call_indirect { target; _ }
  | Jump_direct { target }
  | Jump_indirect { target; _ }
  | Jump_resolver { target }
  | Cond_branch { target; _ }
  | Return { target } ->
      target

let is_indirect = function
  | Call_indirect _ | Jump_indirect _ | Jump_resolver _ | Return _ -> true
  | Call_direct _ | Jump_direct _ | Cond_branch _ -> false

let pp ppf t =
  Format.fprintf ppf "@[pc=%a size=%d%s%s@]" Addr.pp t.pc t.size
    (if t.in_plt then " [plt]" else "")
    (match t.branch with
    | None -> ""
    | Some b -> Printf.sprintf " -> 0x%x" (branch_target b))
