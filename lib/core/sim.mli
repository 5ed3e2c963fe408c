(** Full-system simulator: loader + interpreter + microarchitecture +
    (optionally) the proposed trampoline-skip hardware.

    The six modes map to the paper's points of comparison:
    - [Base]: conventional lazy dynamic linking, unmodified hardware.
    - [Enhanced]: lazy dynamic linking plus the ABTB/Bloom mechanism.
    - [Eager]: BIND_NOW dynamic linking, unmodified hardware (trampolines
      still execute, resolver never runs).
    - [Static]: static linking — the paper's performance upper bound.
    - [Patched]: the paper's software emulation (§4): call sites rewritten
      at load time to direct calls; PLT/GOT present but bypassed.
    - [Stable]: stable linking — lazy layout whose GOT is pre-seeded from a
      snapshot of a previous run of the same module set ({!Dynload}), so
      the resolver only runs for bindings the snapshot missed. *)

open Dlink_isa
open Dlink_mach
open Dlink_uarch
open Dlink_linker
module Kernel = Dlink_pipeline.Kernel
module Skip = Dlink_pipeline.Skip
module Profile = Dlink_pipeline.Profile

type mode = Base | Enhanced | Eager | Static | Patched | Stable

val mode_to_string : mode -> string

val mode_of_string : string -> mode option
(** Inverse of {!mode_to_string}; [None] for unknown names. *)

val all_modes : mode list

val mode_names : string list
(** Mode names in declaration order, for CLI listings. *)

val link_mode : mode -> Mode.t

type t

val create :
  ?ucfg:Config.t ->
  ?skip_cfg:Skip.config ->
  ?aslr_seed:int ->
  ?record_stream:bool ->
  ?func_align:int ->
  mode:mode ->
  Dlink_obj.Objfile.t list ->
  t
(** Loads the objects (first = executable), builds the machine, and wires
    the retire stream into the engine, the skip controller (Enhanced only),
    and the profiler.  Raises [Invalid_argument] on link errors. *)

val mode : t -> mode
val linked : t -> Loader.t
val process : t -> Process.t

val kernel : t -> Kernel.t
(** The underlying retire-pipeline kernel this simulator drives. *)

val engine : t -> Engine.t
val counters : t -> Counters.t
val profile : t -> Profile.t
val skip : t -> Skip.t option

val call : t -> mname:string -> fname:string -> unit
(** Run one entry-point invocation to completion.  Raises
    [Invalid_argument] for unknown functions and {!Process.Fault} on
    machine faults. *)

val call_addr : t -> Addr.t -> unit

val func_addr : t -> mname:string -> fname:string -> Addr.t
(** Raises [Invalid_argument] if not found. *)

val context_switch : ?retain_asid:bool -> t -> unit
(** Simulate an OS context switch away and back: the RAS flushes, and —
    unless [retain_asid] — the TLBs and ABTB flush with it (§3.3, "Missing
    ABTB entry after context switch").  With [retain_asid] the tagged
    TLB/ABTB entries survive, as on hardware with address-space ids. *)

val mark_measurement_start : t -> unit
(** Reset the profiler and record a counter snapshot; subsequent
    {!measured_counters} are relative to this point. *)

val measured_counters : t -> Counters.t

type snap
(** Frozen copy of everything that determines future execution and cycle
    accounting: kernel (tables, predictors, skip controller, counters),
    process (memory, PC, SP, site counters), and the measurement baseline.
    The profile is reporting-side instrumentation and is not captured. *)

val snapshot : t -> snap

val restore : t -> snap -> unit
(** Overwrite [t] with the snapshot.  The target must be a simulator of
    the same mode, objects, uarch config, and (absent) ASLR seed — i.e.
    built by the same [create] call — so the shared loader state matches.
    Snapshots back the benchmark's [core.snapshot_us] probe and a
    resume-bit-identically test. *)

val state_fingerprint : t -> int
(** Deterministic digest of microarchitectural + architectural state
    (counters and profile excluded). *)
