open Dlink_isa
open Dlink_mach

type t = {
  cfg : Config.t;
  ic : Cache.t;
  dc : Cache.t;
  l2c : Cache.t;
  it : Tlb.t;
  dt : Tlb.t;
  btb : Btb.t;
  dir : Direction.t;
  ras : Ras.t;
  c : Counters.t;
  mutable asid : int; (* tag applied to TLB fills/lookups; 0 = untagged *)
  (* Fetch memo: the line and page of the last fetch and the L1I and ITLB
     slots they occupy.  Only [ifetch] touches those two tables, so the
     slots still hold that line and page until a flush, an ASID change or
     a restore, each of which forgets the memo. *)
  mutable last_line : int; (* [no_memo] when forgotten *)
  mutable last_page : int;
  mutable line_slot : int;
  mutable page_slot : int;
}

(* No address maps to it: [Addr.line_of] and [Addr.page_of] divide. *)
let no_memo = min_int

let create (cfg : Config.t) =
  {
    cfg;
    ic = Cache.create ~name:"L1I" ~size_bytes:cfg.l1i.size_bytes ~ways:cfg.l1i.ways;
    dc = Cache.create ~name:"L1D" ~size_bytes:cfg.l1d.size_bytes ~ways:cfg.l1d.ways;
    l2c = Cache.create ~name:"L2" ~size_bytes:cfg.l2.size_bytes ~ways:cfg.l2.ways;
    it = Tlb.create ~name:"ITLB" ~entries:cfg.itlb.entries ~ways:cfg.itlb.ways;
    dt = Tlb.create ~name:"DTLB" ~entries:cfg.dtlb.entries ~ways:cfg.dtlb.ways;
    btb = Btb.create ~sets:cfg.btb_sets ~ways:cfg.btb_ways;
    dir =
      Direction.create ~table_bits:cfg.gshare_table_bits
        ~history_bits:cfg.gshare_history_bits;
    ras = Ras.create ~depth:cfg.ras_depth;
    c = Counters.create ();
    asid = 0;
    last_line = no_memo;
    last_page = no_memo;
    line_slot = 0;
    page_slot = 0;
  }

let forget_fetch t =
  t.last_line <- no_memo;
  t.last_page <- no_memo

let config t = t.cfg
let counters t = t.c
let asid t = t.asid

let set_asid t asid =
  t.asid <- asid;
  forget_fetch t

let btb_update t pc target = Btb.update t.btb pc target
let btb_predict t pc = Btb.predict t.btb pc
let btb_predict_raw t pc = Btb.predict_default t.btb pc

(* An access that misses L1 is charged the L2 hit latency, or the memory
   latency when it misses L2 as well. *)
let miss_cost t addr ~l2_counts =
  if Cache.access t.l2c addr then t.cfg.penalties.l1_miss
  else begin
    if l2_counts then t.c.l2_misses <- t.c.l2_misses + 1;
    t.cfg.penalties.l2_miss
  end

(* A fetch in the memo's line hits both tables, and one in its page hits
   the ITLB: restamping the remembered slot is what that hit does, so
   every stamp, tick, counter and victim stays as the full lookup leaves
   it.  Same line implies same page (a page holds 64 lines). *)
let ifetch t pc =
  let line = Addr.line_of pc in
  if line = t.last_line then begin
    Tlb.restamp t.it t.page_slot;
    Cache.restamp t.ic t.line_slot;
    0
  end
  else begin
    let page = Addr.page_of pc in
    let cycles =
      if page = t.last_page then begin
        Tlb.restamp t.it t.page_slot;
        0
      end
      else begin
        let s = Tlb.access_slot ~asid:t.asid t.it pc in
        t.last_page <- page;
        if s >= 0 then begin
          t.page_slot <- s;
          0
        end
        else begin
          t.page_slot <- lnot s;
          t.c.itlb_misses <- t.c.itlb_misses + 1;
          t.cfg.penalties.tlb_miss
        end
      end
    in
    let s = Cache.access_slot t.ic pc in
    t.last_line <- line;
    if s >= 0 then begin
      t.line_slot <- s;
      cycles
    end
    else begin
      t.line_slot <- lnot s;
      t.c.icache_misses <- t.c.icache_misses + 1;
      cycles + miss_cost t pc ~l2_counts:true
    end
  end

let data_access t addr =
  let cycles =
    if Tlb.access ~asid:t.asid t.dt addr then 0
    else begin
      t.c.dtlb_misses <- t.c.dtlb_misses + 1;
      t.cfg.penalties.tlb_miss
    end
  in
  if Cache.access t.dc addr then cycles
  else begin
    t.c.dcache_misses <- t.c.dcache_misses + 1;
    cycles + miss_cost t addr ~l2_counts:true
  end

let direct_target t ~pc ~target =
  (* Decode recomputes direct targets, so a BTB miss is only a fill bubble. *)
  if Btb.predict_default t.btb pc = target then 0
  else begin
    t.c.btb_misses <- t.c.btb_misses + 1;
    Btb.update t.btb pc target;
    t.cfg.penalties.btb_fill
  end

let indirect_target t ~pc ~target =
  let cost =
    if Btb.predict_default t.btb pc = target then 0
    else begin
      t.c.branch_mispredictions <- t.c.branch_mispredictions + 1;
      t.cfg.penalties.mispredict
    end
  in
  Btb.update t.btb pc target;
  cost

(* Branch accounting on packed operands.  [aux] is the architectural target
   of a direct call (equal to [target] when unredirected) or the GOT slot
   of an indirect branch; it is ignored for the other kinds. *)
let branch_cost_packed t ~pc ~size ~kind ~target ~aux ~taken =
  t.c.branches <- t.c.branches + 1;
  if kind = Event.Kind.cond_branch then begin
    let predicted = Direction.predict t.dir pc in
    Direction.update t.dir pc taken;
    let dir_cost =
      if predicted <> taken then begin
        t.c.branch_mispredictions <- t.c.branch_mispredictions + 1;
        t.cfg.penalties.mispredict
      end
      else 0
    in
    let target_cost = if taken then direct_target t ~pc ~target else 0 in
    dir_cost + target_cost
  end
  else if kind = Event.Kind.call_direct then begin
    Ras.push t.ras (pc + size);
    if target = aux then direct_target t ~pc ~target
    else
      (* Redirected (trampoline-skipped) call: the BTB is the only source
         of the function address, so a stale entry is a real mispredict
         corrected by the ABTB at resolution. *)
      indirect_target t ~pc ~target
  end
  else if kind = Event.Kind.jump_direct then direct_target t ~pc ~target
  else if kind = Event.Kind.call_indirect then begin
    Ras.push t.ras (pc + size);
    indirect_target t ~pc ~target
  end
  else if kind = Event.Kind.jump_indirect || kind = Event.Kind.jump_resolver then
    indirect_target t ~pc ~target
  else begin
    (* Return: predicted by the RAS.  Pushed addresses are non-negative, so
       the empty-stack sentinel can never equal [target]. *)
    if Ras.pop_default t.ras = target then 0
    else begin
      t.c.branch_mispredictions <- t.c.branch_mispredictions + 1;
      t.cfg.penalties.mispredict
    end
  end

let retire_packed t ~pc ~size ~in_plt ~load ~load2 ~store ~kind ~target ~aux
    ~taken =
  t.c.instructions <- t.c.instructions + 1;
  if in_plt then t.c.tramp_instructions <- t.c.tramp_instructions + 1;
  let cycles = 1 + ifetch t pc in
  let cycles = if load >= 0 then cycles + data_access t load else cycles in
  let cycles = if load2 >= 0 then cycles + data_access t load2 else cycles in
  let cycles = if store >= 0 then cycles + data_access t store else cycles in
  let cycles =
    if kind <> Event.Kind.none then
      cycles + branch_cost_packed t ~pc ~size ~kind ~target ~aux ~taken
    else cycles
  in
  t.c.cycles <- t.c.cycles + cycles

let retire t (ev : Event.t) =
  let load = match ev.load with Some a -> a | None -> Addr.none in
  let load2 = match ev.load2 with Some a -> a | None -> Addr.none in
  let store = match ev.store with Some a -> a | None -> Addr.none in
  let kind, target, aux, taken = Event.pack_branch ev.branch in
  retire_packed t ~pc:ev.pc ~size:ev.size ~in_plt:ev.in_plt ~load ~load2 ~store
    ~kind ~target ~aux ~taken

(* Whole-engine snapshot: every modeled structure plus the counters and
   the current ASID.  Dominated by the cache tables' bigarray blits (the
   L2 is the big one); no per-entry work.  The counter record is restored
   in place with [Counters.assign] because callers (the kernel) hold it by
   reference. *)

type snap = {
  s_ic : Cache.snap;
  s_dc : Cache.snap;
  s_l2c : Cache.snap;
  s_it : Tlb.snap;
  s_dt : Tlb.snap;
  s_btb : Btb.snap;
  s_dir : Direction.snap;
  s_ras : Ras.snap;
  s_c : Counters.t;
  s_asid : int;
}

let snapshot t =
  {
    s_ic = Cache.snapshot t.ic;
    s_dc = Cache.snapshot t.dc;
    s_l2c = Cache.snapshot t.l2c;
    s_it = Tlb.snapshot t.it;
    s_dt = Tlb.snapshot t.dt;
    s_btb = Btb.snapshot t.btb;
    s_dir = Direction.snapshot t.dir;
    s_ras = Ras.snapshot t.ras;
    s_c = Counters.copy t.c;
    s_asid = t.asid;
  }

let restore t s =
  Cache.restore t.ic s.s_ic;
  Cache.restore t.dc s.s_dc;
  Cache.restore t.l2c s.s_l2c;
  Tlb.restore t.it s.s_it;
  Tlb.restore t.dt s.s_dt;
  Btb.restore t.btb s.s_btb;
  Direction.restore t.dir s.s_dir;
  Ras.restore t.ras s.s_ras;
  Counters.assign ~into:t.c s.s_c;
  t.asid <- s.s_asid;
  forget_fetch t

let fingerprint t =
  Hashtbl.hash
    [
      Cache.fingerprint t.ic;
      Cache.fingerprint t.dc;
      Cache.fingerprint t.l2c;
      Tlb.fingerprint t.it;
      Tlb.fingerprint t.dt;
      Btb.fingerprint t.btb;
      Direction.fingerprint t.dir;
      Ras.fingerprint t.ras;
      t.asid;
    ]

let context_switch ?(flush_predictors = false) ?(flush_caches = false)
    ?(retain_asid = false) t =
  forget_fetch t;
  (* ASID-tagged TLBs survive the switch: stale entries belong to other
     tags and can never hit, so nothing needs flushing. *)
  if not retain_asid then begin
    Tlb.flush t.it;
    Tlb.flush t.dt
  end;
  Ras.flush t.ras;
  if flush_predictors then begin
    Btb.flush t.btb;
    Direction.flush t.dir
  end;
  if flush_caches then begin
    Cache.flush t.ic;
    Cache.flush t.dc;
    Cache.flush t.l2c
  end
