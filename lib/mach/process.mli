(** The architectural interpreter.

    Executes loaded code instruction by instruction, retiring each one as
    immediates through the {!Event.retire} hook: the operands of the
    kernel's packed retire, with no event record, option or closure built
    per instruction.  Two hooks connect the paper's hardware model:

    - [on_fetch_call] lets the front-end model redirect a direct call away
      from its architectural target — this is how a trampoline is skipped.
      Redirection must preserve architectural equivalence, which holds for
      PLT trampolines because they compute no architectural state.
    - [on_retire] receives the retire stream (microarchitecture accounting,
      ABTB population, profiling).  Absent operands are {!Addr.none}; a
      direct call passes its encoded destination as [aux] and where
      control went as [target].  {!Event.boxed} adapts a function of
      {!Event.t} for code that reads events.

    All data-dependent behaviour (conditional branch directions, data access
    addresses and stored values) is a pure function of per-site occurrence
    counters, so the retire stream of non-PLT instructions is bit-identical
    across binding modes and skip configurations. *)

open Dlink_isa

exception Fault of string
(** Raised on invalid fetches, unresolved symbols, or fuel exhaustion. *)

type hooks = {
  on_fetch_call : pc:Addr.t -> arch_target:Addr.t -> Addr.t;
  on_retire : Event.retire;
}

val default_hooks : hooks
(** No redirection, no observers. *)

type t

val create : ?hooks:hooks -> Dlink_linker.Loader.t -> t
(** Fresh process: initial memory from the loader, SP at the stack top. *)

val linked : t -> Dlink_linker.Loader.t
val memory : t -> Memory.t
val pc : t -> Addr.t
val sp : t -> Addr.t
val retired : t -> int
(** Total retired instructions so far. *)

val step : t -> unit
(** Execute one instruction.  Raises {!Fault} on an invalid PC, a null
    indirect slot or a resolver error, before the retire hook runs and
    before {!retired} counts the instruction.  Allocation-free apart from
    the hooks, the resolver and the growth of memory and site tables. *)

val call : t -> ?fuel:int -> Addr.t -> unit
(** [call t addr] runs the function at [addr] to completion (a sentinel
    return address marks the end).  [fuel] bounds the instruction count
    (default 50 million); exceeding it raises {!Fault}. *)

val arch_fingerprint : t -> int
(** Hash of memory contents and SP — equal fingerprints after equal call
    sequences demonstrate architectural equivalence between modes. *)

val resync_arch : t -> from_:t -> unit
(** Overwrite this process's architectural state (memory, SP, PC, per-site
    occurrence counters) with [from_]'s.  Both must run the same loaded
    image.  The differential oracle uses this to re-converge a run after a
    detected mis-skip corrupted its architectural state. *)

type snap
(** Frozen copy of the architectural state: memory image, PC, SP, retired
    count, per-site occurrence counters.  The loader is shared by
    reference (immutable during serving — the resolver rebinds only
    through memory writes). *)

val snapshot : t -> snap

val restore : t -> snap -> unit
(** Overwrite [t]'s architectural state with the snapshot.  The target
    must run the same loaded image.  A snapshot may be restored into many
    processes without aliasing. *)
