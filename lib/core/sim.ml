open Dlink_mach
open Dlink_uarch
open Dlink_linker
module Kernel = Dlink_pipeline.Kernel
module Skip = Dlink_pipeline.Skip
module Profile = Dlink_pipeline.Profile

type mode = Base | Enhanced | Eager | Static | Patched | Stable

let mode_to_string = function
  | Base -> "base"
  | Enhanced -> "enhanced"
  | Eager -> "eager"
  | Static -> "static"
  | Patched -> "patched"
  | Stable -> "stable"

let all_modes = [ Base; Enhanced; Eager; Static; Patched; Stable ]
let mode_names = List.map mode_to_string all_modes

let mode_of_string s =
  List.find_opt (fun m -> mode_to_string m = s) all_modes

let link_mode = function
  | Base | Enhanced -> Mode.Lazy_binding
  | Eager -> Mode.Eager_binding
  | Static -> Mode.Static_link
  | Patched -> Mode.Patched
  | Stable -> Mode.Stable_linking

type t = {
  smode : mode;
  linked : Loader.t;
  process : Process.t;
  kernel : Kernel.t;
  profile : Profile.t;
  mutable snapshot : Counters.t;
}

let create ?ucfg ?skip_cfg ?aslr_seed ?(record_stream = false)
    ?(func_align = 16) ~mode objs =
  let opts =
    { Loader.default_options with mode = link_mode mode; aslr_seed; func_align }
  in
  let linked = Loader.load_exn ~opts objs in
  let kernel = Kernel.create ?ucfg ?skip_cfg ~with_skip:(mode = Enhanced) () in
  let profile = Profile.create ~record_stream () in
  Kernel.set_profile kernel (Some profile);
  let hooks =
    Kernel.process_hooks kernel
      ~is_plt_entry:(Loader.is_plt_entry linked)
      ~in_got:(Loader.in_any_got linked)
  in
  let process = Process.create ~hooks linked in
  Kernel.set_read_got kernel (fun slot ->
      Memory.read (Process.memory process) slot);
  { smode = mode; linked; process; kernel; profile; snapshot = Counters.create () }

let mode t = t.smode
let linked t = t.linked
let process t = t.process
let kernel t = t.kernel
let engine t = Kernel.engine t.kernel
let counters t = Kernel.counters t.kernel
let profile t = t.profile
let skip t = Kernel.skip t.kernel

let func_addr t ~mname ~fname =
  match Loader.func_addr t.linked ~mname ~fname with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Sim.func_addr: %s.%s not found" mname fname)

let call_addr t addr = Process.call t.process addr

let call t ~mname ~fname = call_addr t (func_addr t ~mname ~fname)

let context_switch ?(retain_asid = false) t =
  Kernel.context_switch ~retain_asid t.kernel

let mark_measurement_start t =
  Profile.reset t.profile;
  t.snapshot <- Counters.copy (counters t)

let measured_counters t = Counters.diff ~after:(counters t) ~before:t.snapshot

(* Whole-simulator snapshot: kernel (uarch tables, skip controller,
   counters) + process (memory, PC, SP, site counters) + the measurement
   baseline.  Its only users are the benchmark's [core.snapshot_us] probe
   and test_serve's resume-bit-identically qcheck.  The profile is NOT
   captured: it is reporting-side instrumentation, and a resumed run only
   needs the state that determines future execution and cycle accounting.
   The loader/space is immutable during serving (the resolver rebinds
   through memory writes only), so restoring into a fresh [create]-d
   simulator of the same mode/objects/seed reproduces execution exactly. *)

type snap = {
  sn_kernel : Kernel.snap;
  sn_process : Process.snap;
  sn_baseline : Counters.t;
}

let snapshot t =
  {
    sn_kernel = Kernel.snapshot t.kernel;
    sn_process = Process.snapshot t.process;
    sn_baseline = Counters.copy t.snapshot;
  }

let restore t s =
  Kernel.restore t.kernel s.sn_kernel;
  Process.restore t.process s.sn_process;
  t.snapshot <- Counters.copy s.sn_baseline

let state_fingerprint t =
  Dlink_util.Site_hash.mix2
    (Kernel.fingerprint t.kernel)
    (Process.arch_fingerprint t.process)
