(** Packed retire-stream traces.

    A trace is the complete retire stream of one workload run — every
    request's events, warmup included — packed into a 2-byte info word per
    event plus a shared operand stream, with request boundaries on the
    side.  Decoding is allocation-free: a {!Cursor} is a single mutable
    record whose fields are overwritten by {!Cursor.advance}, so the replay
    engines walk millions of events without touching the heap.

    Event pcs are derived (fallthrough or branch target of the previous
    event) and stored explicitly only at control-flow discontinuities;
    every request's first event carries its pc, so requests can be replayed
    from any {!Cursor.seek_request} position. *)

open Dlink_mach

type t = private {
  info : Bytes.t;  (** 16-bit LE info word per event *)
  ops : int array;  (** operand stream, indexed via the info-word flags *)
  n_events : int;
  n_ops : int;
  req_start : int array;  (** event index per request, length requests+1 *)
  req_op_start : int array;  (** operand index per request, same length *)
  req_rtype : int array;  (** request type per request *)
  warmup : int;  (** the first [warmup] requests precede the window *)
}

val n_events : t -> int
val n_requests : t -> int
val warmup : t -> int

val measured_requests : t -> int
(** [n_requests t - warmup t]: how many in-window requests this trace can
    replay. *)

val request_rtype : t -> int -> int
val request_events : t -> int -> int
val storage_bytes : t -> int
(** Approximate heap footprint (info bytes + boxed operand words). *)

module Writer : sig
  type trace = t
  type t

  val create : unit -> t

  val start_request : t -> rtype:int -> unit
  (** Open the next request; must precede the first {!add}. *)

  val add_packed :
    t ->
    plt_call:bool ->
    got_store:bool ->
    pc:int ->
    size:int ->
    in_plt:bool ->
    load:int ->
    load2:int ->
    store:int ->
    kind:int ->
    target:int ->
    aux:int ->
    taken:bool ->
    unit
  (** Append one retired instruction given as the interpreter's packed
      retire operands ({!Dlink_mach.Event.retire}; {!Dlink_isa.Addr.none}
      marks an absent address).  [plt_call] marks a profile-eligible
      library call (direct call whose architectural target, or indirect
      call whose target, is a PLT entry); [got_store] marks a store into a
      GOT.  Both are precomputed at record time, by the predicates the
      live retire uses, so replay needs no loader.  Raises
      [Invalid_argument] outside a request or for sizes above 15. *)

  val add : t -> ?plt_call:bool -> ?got_store:bool -> Event.t -> unit
  (** {!add_packed} for a boxed event (tests and examples). *)

  val finish : t -> warmup:int -> trace
  (** Freeze into a compact trace whose first [warmup] requests are
      warmup.  The writer must not be reused afterwards. *)
end

module Cursor : sig
  type trace = t

  type t = {
    trace : trace;
    mutable i : int;  (** index of the next event to decode *)
    mutable op : int;
    mutable next_pc : int;
    mutable pc : int;
    mutable size : int;
    mutable kind : int;  (** an {!Dlink_mach.Event.Kind} code *)
    mutable in_plt : bool;
    mutable plt_call : bool;
    mutable got_store : bool;
    mutable taken : bool;
    mutable load : int;  (** {!Dlink_isa.Addr.none} when absent *)
    mutable load2 : int;
    mutable store : int;
    mutable target : int;
    mutable aux : int;
        (** architectural target of a direct call (= [target] when
            unredirected), GOT slot of an indirect branch *)
  }

  val create : trace -> t
  val seek_request : t -> int -> unit

  val advance : t -> unit
  (** Decode the event at [i] into the mutable fields and step past it.
      Allocation-free.  The caller bounds [i] against [req_start]. *)

  val peek_in_plt : t -> bool
  (** The [in_plt] flag of the next (undecoded) event — used by the
      enhanced replay to drop a skipped trampoline without retiring it. *)

  val event : t -> Event.t
  (** The last decoded event, re-materialised (tests/debugging only). *)
end

val to_events : t -> Event.t list
(** Reference decoder: the full stream as events, in retire order. *)
