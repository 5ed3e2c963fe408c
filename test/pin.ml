(* Exact one-line renderings of churn-cell, churn-oracle and soak
   results, so a test can pin every simulated field of a run.  Wall-clock
   fields are left out; list fields are pinned by length and digest. *)

module C = Dlink_uarch.Counters
module Churn = Dlink_core.Churn
module Oracle = Dlink_fault.Oracle
module CO = Dlink_fault.Churn_oracle
module S = Dlink_fault.Soak
module I = Dlink_fault.Invariant

let counters (c : C.t) =
  String.concat " "
    (List.map string_of_int
       [
         c.C.instructions; c.C.cycles; c.C.icache_misses; c.C.dcache_misses;
         c.C.l2_misses; c.C.itlb_misses; c.C.dtlb_misses; c.C.branches;
         c.C.branch_mispredictions; c.C.btb_misses; c.C.tramp_instructions;
         c.C.tramp_calls; c.C.tramp_skips; c.C.abtb_hits; c.C.abtb_inserts;
         c.C.abtb_clears; c.C.abtb_false_clears; c.C.coherence_invalidations;
         c.C.got_stores; c.C.resolver_runs; c.C.mis_skips; c.C.lost_skips;
         c.C.quarantine_entries; c.C.timeout_degrades; c.C.fault_injected;
       ])

let digest f l =
  let d = Digest.to_hex (Digest.string (String.concat ";" (List.map f l))) in
  Printf.sprintf "%d:%s" (List.length l) (String.sub d 0 12)

let cell (c : Churn.cell) =
  Printf.sprintf
    "%s r%d calls=%d churn=%d opens=%d closes=%d rebinds=%d stable=%d/%d | %s"
    (Dlink_linker.Mode.to_string c.Churn.link_mode)
    c.Churn.rate c.Churn.calls c.Churn.churn_events c.Churn.opens
    c.Churn.closes c.Churn.rebinds c.Churn.stable_hits c.Churn.stable_misses
    (counters c.Churn.counters)

let divergence (d : Oracle.divergence) =
  Printf.sprintf "%d,%d,%d,%d,%d,%b" d.Oracle.request d.Oracle.site
    d.Oracle.arch_target d.Oracle.ref_dest d.Oracle.dut_dest d.Oracle.mis_skip

let oracle (r : CO.report) =
  Printf.sprintf "ops=%d churn=%d mis=%d lost=%d unclassified=%d div=%s | %s"
    r.CO.ops r.CO.churn_events r.CO.mis_skips r.CO.lost_skips
    r.CO.unclassified
    (digest divergence r.CO.divergences)
    (counters r.CO.counters)

let per_core (r : CO.report) =
  Printf.sprintf "migrations=%d stale_unload=%d timeouts=%d cores=%s"
    r.CO.migrations r.CO.stale_unload r.CO.bus_timeouts
    (String.concat ","
       (Array.to_list
          (Array.map
             (fun c ->
               Printf.sprintf "%d/%d/%d/%d" c.CO.c_mis_skips c.CO.c_lost_skips
                 c.CO.c_stale_unload c.CO.c_timeout_degrades)
             r.CO.per_core)))

let soak (r : S.report) =
  let b = r.S.bus in
  Printf.sprintf
    "ops=%d churn=%d migrations=%d crashes=%d checks=%d violations=%d \
     unmapped=%d stale_skips=%d stale_msgs=%d aba=%d recorded=%s first=%s \
     guard=%b bus=%d/%d/%d/%d/%d/%d/%d/%d/%d dynload=%d/%d/%d/%d/%d \
     retiring=%d faults=%d | %s | %s"
    r.S.ops r.S.churn_events r.S.migrations r.S.crashes r.S.checks
    r.S.violations r.S.fetch_unmapped r.S.stale_skips r.S.stale_messages
    r.S.aba_discards
    (digest I.violation_to_string r.S.recorded)
    (match r.S.first_violation_op with
    | None -> "-"
    | Some op -> string_of_int op)
    r.S.epoch_guard b.S.published b.S.delivered b.S.acked b.S.dropped
    b.S.retries b.S.reorders b.S.timeouts b.S.stale_discards b.S.unresolved
    r.S.opens r.S.closes r.S.rebinds r.S.grace_unmaps r.S.forced_unmaps
    r.S.retiring r.S.faults_injected (counters r.S.counters)
    (String.concat " / " (Array.to_list (Array.map counters r.S.per_core)))
