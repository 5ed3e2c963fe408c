(** Runtime module churn: the one machine every churn driver runs on.

    A machine is one interpreter process — one address space, one
    architectural thread — over [cores] Enhanced pipeline kernels, with a
    dynamic loader ({!Dlink_linker.Dynload}) whose every GOT write
    retires through the dispatched kernel.  A {!rotation} drives
    close/open churn of the scenario's plugin set under it.  The drivers
    add only their own parts: {!run_cell} measures one (churn rate x link
    mode) cell on one core; the soak ({!Dlink_fault.Soak}) adds invariant
    taps; the differential oracle ({!Dlink_fault.Churn_oracle}) adds a
    reference process and its collectors; both add a fault injector.

    The interesting comparison is {!Dlink_linker.Mode.Lazy_binding}
    (every reopen pays resolver runs) against
    {!Dlink_linker.Mode.Stable_linking} (reopens replay a validated GOT
    snapshot), with ABTB clear rate and trampoline skip rate tracking how
    much churn the skip hardware absorbs. *)

open Dlink_mach
open Dlink_uarch
open Dlink_linker
module Kernel = Dlink_pipeline.Kernel

type scenario = {
  sname : string;
  base_objs : Dlink_obj.Objfile.t list;  (** first object is the executable *)
  plugins : Dlink_obj.Objfile.t array;  (** rotated through dlopen/dlclose *)
  n_resident : int;  (** plugins kept open at any moment *)
  preload : string list;  (** module names with LD_PRELOAD rank *)
  entry : int -> string;  (** plugin index -> exported entry function *)
  func_align : int;
}

type machine = {
  scen : scenario;
  linked : Loader.t;
  kernel : Kernel.t;  (** core 0's kernel *)
  kernels : Kernel.t array;  (** one per core *)
  process : Process.t;
  dynload : Dynload.t;
  bus : Coherence.t option;  (** [Some] exactly when [cores > 1] *)
  quantum : int;  (** ops per scheduling quantum *)
  policy : Dlink_pipeline.Policy.t;  (** applied to the arrival core *)
  cur : int ref;  (** the dispatched core *)
  mutable migrations : int;
  degrades : int array;
      (** per core: degradation windows opened by coherence timeouts *)
  mirror : Memory.t option ref;
      (** a second memory that every loader store and {!rewrite_got} also
          writes: the differential oracle's reference machine *)
}

val call_fuel : int
(** Interpreter fuel for one faulted-run call (1M instructions): a
    mis-directed call may never return to its frame, and fuel exhaustion
    turns that into a classified crash instead of a hang. *)

val make_machine :
  ?ucfg:Config.t ->
  ?skip_cfg:Dlink_pipeline.Skip.config ->
  ?with_skip:bool ->
  ?cores:int ->
  ?quantum:int ->
  ?policy:Dlink_pipeline.Policy.t ->
  link_mode:Mode.t ->
  ?aslr_seed:int ->
  scenario ->
  machine
(** Load the static base and wire the loader's stores to retire on the
    dispatched kernel ([with_skip] defaults to [true] — the Enhanced
    pipeline; [cores] to 1, [quantum] to 64, [policy] to
    [Asid_shared_guard]).  With [cores > 1] the kernels also share an
    acked coherence bus: GOT stores are published stamped with their
    mapping's generation, stale stamps are discarded at delivery, an
    unmap waits on a bus fence, and a timed-out invalidation degrades
    its core.  One core has no other core to invalidate and gets no bus.
    No plugins are open yet.  Raises [Invalid_argument] if [cores] or
    [quantum] is below 1. *)

val generation_stamp : Dynload.t -> Dlink_isa.Addr.t -> int
(** The generation of the mapping owning an address, [-1] if unmapped:
    the stamp a published GOT store carries. *)

val skips : machine -> Dlink_pipeline.Skip.t array
(** Every core's skip unit.  Raises [Invalid_argument] on a machine
    built without skip hardware. *)

val dispatch : machine -> int -> unit
(** [dispatch m op] at a quantum boundary moves the thread to core
    [op / quantum mod cores] (charging the policy's context switch when
    the core changes) and drains the bus; otherwise does nothing. *)

val quiesce : machine -> unit
(** Drain until the bus empties, then {!Dlink_linker.Dynload.force_retiring},
    then drain again, so no in-flight state leaks out of a run. *)

val rewrite_got : machine -> Dlink_util.Rng.t -> bool
(** The [Got_rewrite] fault: rebind the GOT slot behind a live entry of
    the dispatched core's ABTB to another linkmap function, directly in
    memory (and the mirror), bypassing retire.  [false] when there was
    nothing to rebind. *)

type rotation
(** The plugin rotation: resident slots and a queue of parked plugins,
    oldest-closed first, drawn from one RNG. *)

val rotation : machine -> rate:int -> seed:int -> rotation
(** Open the scenario's first resident plugins; [rate] is churn events
    per 1000 ops. *)

val warm_up : rotation -> unit
(** Call every resident plugin's entry once, so cold-start resolution
    doesn't dominate small runs. *)

val next : ?close:(Dynload.handle -> unit) -> rotation -> Dlink_isa.Addr.t
(** One op's draws: at the rotation's rate, a churn event closes a
    resident plugin through [close] (default {!Dlink_linker.Dynload.dlclose})
    and opens the oldest parked one in its slot; then a resident plugin
    is picked and its entry address returned. *)

val churn_events : rotation -> int

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

val clear_rate : cell -> float
(** ABTB flash-clears per 1000 plugin calls. *)

val skip_rate : cell -> float
(** Trampoline skips per eligible trampoline call. *)

val run_cell :
  ?ucfg:Config.t ->
  ?skip_cfg:Dlink_pipeline.Skip.config ->
  ?with_skip:bool ->
  ?aslr_seed:int ->
  link_mode:Mode.t ->
  rate:int ->
  calls:int ->
  seed:int ->
  scenario ->
  cell
(** One cell on a one-core machine: warm-up, then [calls] plugin calls
    under the rotation.  Deterministic for equal arguments (wall-clock
    fields aside): the rotation and call sequence are drawn from
    [seed]. *)
