open Dlink_isa
open Dlink_mach

(* Packed retire-stream format.

   One 16-bit little-endian info word per event:
     bits 0-2   branch kind (Event.Kind; 0 = not a branch)
     bit  3     in_plt
     bit  4     plt_call   (profile-eligible library call, precomputed)
     bit  5     got_store  (the store address lies in a GOT, precomputed)
     bit  6     taken      (conditional branches)
     bit  7     has_load
     bit  8     has_load2
     bit  9     has_store
     bit  10    has_aux    (aux operand present in the stream)
     bit  11    has_pc     (pc operand present in the stream)
     bits 12-15 instruction size in bytes
   Operands live in a separate int stream, per event in this order:
     [pc?] [load?] [load2?] [store?] [target if kind<>0] [aux?]
   The pc is stored only when it differs from the previous event's derived
   next-pc (fallthrough for non-branches and untaken conditionals, target
   otherwise), i.e. almost never — the stream is self-describing and a
   request's first event always carries its pc.  The aux operand (the
   architectural target of a direct call, the GOT slot of an indirect
   branch) is stored for indirect branches always and for direct calls only
   when it differs from the target; a direct call without the bit decodes
   aux := target. *)

type t = {
  info : Bytes.t;
  ops : int array;
  n_events : int;
  n_ops : int;
  req_start : int array; (* event index per request; length n_requests + 1 *)
  req_op_start : int array; (* operand index per request; same length *)
  req_rtype : int array; (* length n_requests *)
  warmup : int; (* the first [warmup] requests precede the window *)
}

let n_events t = t.n_events
let n_requests t = Array.length t.req_rtype
let warmup t = t.warmup
let measured_requests t = n_requests t - t.warmup
let request_rtype t r = t.req_rtype.(r)
let request_events t r = t.req_start.(r + 1) - t.req_start.(r)

let storage_bytes t =
  (2 * t.n_events) + (8 * t.n_ops) + (8 * 2 * (n_requests t + 1))

(* info-word bit masks *)
let m_in_plt = 8
let m_plt_call = 16
let m_got_store = 32
let m_taken = 64
let m_load = 128
let m_load2 = 256
let m_store = 512
let m_aux = 1024
let m_pc = 2048

(* A pc no real event can have, forcing the next added event to carry its
   pc explicitly. *)
let no_pc = min_int

let next_pc_of ~kind ~pc ~size ~target ~taken =
  if kind = Event.Kind.none then pc + size
  else if kind = Event.Kind.cond_branch then if taken then target else pc + size
  else target

module Writer = struct
  type trace = t

  type t = {
    mutable info : Bytes.t;
    mutable ops : int array;
    mutable n_events : int;
    mutable n_ops : int;
    mutable starts_rev : (int * int * int) list; (* (event, op, rtype) *)
    mutable n_requests : int;
    mutable expect_pc : int;
  }

  let create () =
    {
      info = Bytes.create 8192;
      ops = Array.make 4096 0;
      n_events = 0;
      n_ops = 0;
      starts_rev = [];
      n_requests = 0;
      expect_pc = no_pc;
    }

  let ensure_event w =
    if 2 * (w.n_events + 1) > Bytes.length w.info then begin
      let bigger = Bytes.create (2 * Bytes.length w.info) in
      Bytes.blit w.info 0 bigger 0 (2 * w.n_events);
      w.info <- bigger
    end

  let ensure_ops w need =
    if w.n_ops + need > Array.length w.ops then begin
      let bigger =
        Array.make (max (2 * Array.length w.ops) (w.n_ops + need)) 0
      in
      Array.blit w.ops 0 bigger 0 w.n_ops;
      w.ops <- bigger
    end

  let push_op w v =
    w.ops.(w.n_ops) <- v;
    w.n_ops <- w.n_ops + 1

  let start_request w ~rtype =
    w.starts_rev <- (w.n_events, w.n_ops, rtype) :: w.starts_rev;
    w.n_requests <- w.n_requests + 1;
    (* A request entry is always a control-flow discontinuity; pin it. *)
    w.expect_pc <- no_pc

  let add_packed w ~plt_call ~got_store ~pc ~size ~in_plt ~load ~load2 ~store
      ~kind ~target ~aux ~taken =
    if w.n_requests = 0 then
      invalid_arg "Trace.Writer.add: no request started";
    if size < 0 || size > 15 then
      invalid_arg "Trace.Writer.add: size out of range";
    let has_pc = pc <> w.expect_pc in
    let has_aux =
      kind = Event.Kind.call_indirect
      || kind = Event.Kind.jump_indirect
      || (kind = Event.Kind.call_direct && aux <> target)
    in
    let info =
      kind
      lor (if in_plt then m_in_plt else 0)
      lor (if plt_call then m_plt_call else 0)
      lor (if got_store then m_got_store else 0)
      lor (if taken then m_taken else 0)
      lor (if load <> Addr.none then m_load else 0)
      lor (if load2 <> Addr.none then m_load2 else 0)
      lor (if store <> Addr.none then m_store else 0)
      lor (if has_aux then m_aux else 0)
      lor (if has_pc then m_pc else 0)
      lor (size lsl 12)
    in
    ensure_event w;
    Bytes.set_uint16_le w.info (2 * w.n_events) info;
    w.n_events <- w.n_events + 1;
    ensure_ops w 6;
    if has_pc then push_op w pc;
    if load <> Addr.none then push_op w load;
    if load2 <> Addr.none then push_op w load2;
    if store <> Addr.none then push_op w store;
    if kind <> Event.Kind.none then push_op w target;
    if has_aux then push_op w aux;
    w.expect_pc <- next_pc_of ~kind ~pc ~size ~target ~taken

  let add w ?(plt_call = false) ?(got_store = false) (ev : Event.t) =
    let kind, target, aux, taken = Event.pack_branch ev.branch in
    let addr = function Some a -> a | None -> Addr.none in
    add_packed w ~plt_call ~got_store ~pc:ev.pc ~size:ev.size ~in_plt:ev.in_plt
      ~load:(addr ev.load) ~load2:(addr ev.load2) ~store:(addr ev.store) ~kind
      ~target ~aux ~taken

  let finish w ~warmup : trace =
    if warmup < 0 || warmup > w.n_requests then
      invalid_arg "Trace.Writer.finish: warmup out of range";
    let starts = Array.of_list (List.rev w.starts_rev) in
    let n_req = Array.length starts in
    let req_start = Array.make (n_req + 1) w.n_events in
    let req_op_start = Array.make (n_req + 1) w.n_ops in
    let req_rtype = Array.make n_req 0 in
    Array.iteri
      (fun r (e, o, rt) ->
        req_start.(r) <- e;
        req_op_start.(r) <- o;
        req_rtype.(r) <- rt)
      starts;
    {
      info = Bytes.sub w.info 0 (2 * w.n_events);
      ops = Array.sub w.ops 0 w.n_ops;
      n_events = w.n_events;
      n_ops = w.n_ops;
      req_start;
      req_op_start;
      req_rtype;
      warmup;
    }
end

module Cursor = struct
  type trace = t

  type t = {
    trace : trace;
    mutable i : int; (* next event to decode *)
    mutable op : int;
    mutable next_pc : int;
    (* fields of the last decoded event *)
    mutable pc : int;
    mutable size : int;
    mutable kind : int;
    mutable in_plt : bool;
    mutable plt_call : bool;
    mutable got_store : bool;
    mutable taken : bool;
    mutable load : int;
    mutable load2 : int;
    mutable store : int;
    mutable target : int;
    mutable aux : int;
  }

  let create trace =
    {
      trace;
      i = 0;
      op = 0;
      next_pc = no_pc;
      pc = 0;
      size = 0;
      kind = 0;
      in_plt = false;
      plt_call = false;
      got_store = false;
      taken = false;
      load = Addr.none;
      load2 = Addr.none;
      store = Addr.none;
      target = Addr.none;
      aux = Addr.none;
    }

  let seek_request c r =
    c.i <- c.trace.req_start.(r);
    c.op <- c.trace.req_op_start.(r);
    c.next_pc <- no_pc

  let read_op c =
    let v = c.trace.ops.(c.op) in
    c.op <- c.op + 1;
    v

  let advance c =
    let info = Bytes.get_uint16_le c.trace.info (2 * c.i) in
    let kind = info land 7 in
    c.kind <- kind;
    c.in_plt <- info land m_in_plt <> 0;
    c.plt_call <- info land m_plt_call <> 0;
    c.got_store <- info land m_got_store <> 0;
    c.taken <- info land m_taken <> 0;
    c.size <- info lsr 12;
    c.pc <- (if info land m_pc <> 0 then read_op c else c.next_pc);
    c.load <- (if info land m_load <> 0 then read_op c else Addr.none);
    c.load2 <- (if info land m_load2 <> 0 then read_op c else Addr.none);
    c.store <- (if info land m_store <> 0 then read_op c else Addr.none);
    c.target <- (if kind <> Event.Kind.none then read_op c else Addr.none);
    c.aux <-
      (if info land m_aux <> 0 then read_op c
       else if kind = Event.Kind.call_direct then c.target
       else Addr.none);
    c.next_pc <-
      next_pc_of ~kind ~pc:c.pc ~size:c.size ~target:c.target ~taken:c.taken;
    c.i <- c.i + 1

  let peek_in_plt c =
    Bytes.get_uint16_le c.trace.info (2 * c.i) land m_in_plt <> 0

  let event c =
    Event.of_packed ~pc:c.pc ~size:c.size ~in_plt:c.in_plt ~load:c.load
      ~load2:c.load2 ~store:c.store ~kind:c.kind ~target:c.target ~aux:c.aux
      ~taken:c.taken
end

(* Reference decoder for tests and debugging: the whole stream back as
   heap-allocated events, in retire order. *)
let to_events t =
  let c = Cursor.create t in
  let rec go acc =
    if c.Cursor.i >= t.n_events then List.rev acc
    else begin
      Cursor.advance c;
      go (Cursor.event c :: acc)
    end
  in
  go []
