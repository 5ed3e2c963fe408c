(** Retire-stream events: one per architecturally executed instruction.

    The microarchitecture model, the trampoline-skip controller, and the
    profiler all consume this stream, mirroring the paper's design where the
    proposed hardware observes instructions at the retire stage. *)

open Dlink_isa

type branch =
  | Call_direct of { target : Addr.t; arch_target : Addr.t }
      (** [target] is where control actually went; [arch_target] is the
          call instruction's encoded destination.  They differ exactly when
          the trampoline-skip mechanism redirected the fetch. *)
  | Call_indirect of { target : Addr.t; slot : Addr.t }
  | Jump_direct of { target : Addr.t }
  | Jump_indirect of { target : Addr.t; slot : Addr.t }
      (** a PLT trampoline retires as this, with [slot] = its GOT entry *)
  | Jump_resolver of { target : Addr.t }
      (** the [Resolve] primitive's final indirect jump *)
  | Cond_branch of { target : Addr.t; taken : bool }
  | Return of { target : Addr.t }

type t = {
  pc : Addr.t;
  size : int;
  in_plt : bool;  (** instruction lies in some module's PLT section *)
  load : Addr.t option;
  load2 : Addr.t option;
  store : Addr.t option;
  branch : branch option;
}

val branch_target : branch -> Addr.t
val is_indirect : branch -> bool

(** Packed branch kinds (three bits), the allocation-free mirror of
    {!branch} shared by the engine's packed retire path and the trace
    subsystem. *)
module Kind : sig
  val none : int
  val call_direct : int
  val call_indirect : int
  val jump_direct : int
  val jump_indirect : int
  val jump_resolver : int
  val cond_branch : int
  val return : int
end

val pack_branch : branch option -> int * Addr.t * Addr.t * bool
(** [(kind, target, aux, taken)].  [aux] is the architectural target of a
    direct call or the GOT slot of an indirect branch, {!Addr.none}
    otherwise. *)

val unpack_branch :
  kind:int -> target:Addr.t -> aux:Addr.t -> taken:bool -> branch option
(** Inverse of {!pack_branch}; [aux = Addr.none] on a direct call means
    "unredirected" ([arch_target = target]).  Raises [Invalid_argument] on
    an out-of-range kind. *)

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
(** One retired instruction as immediates: the interpreter's retire hook
    and the operands of the kernel's packed retire.  [load], [load2] and
    [store] are {!Addr.none} when absent; [kind], [target], [aux] and
    [taken] are the {!pack_branch} quadruple. *)

val of_packed :
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
  t
(** The event these operands describe. *)

val boxed : (t -> unit) -> retire
(** Adapter for code that reads events (the [trace] command, reference
    collectors, tests): builds the event with {!of_packed} per
    instruction. *)

val pp : Format.formatter -> t -> unit
