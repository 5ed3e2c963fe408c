(* Benchmark-side tracing.  A span wraps one call from the benchmark into a
   library layer; its name is "layer:function", and spans nest through a
   stack, so a span's parent is the span open when it started.  Spans stay
   in memory and are written out once, as Chrome trace-event JSON, when the
   run ends.  With tracing off, [run] is a plain call: end-to-end numbers
   always come from untraced runs. *)

module Json = Dlink_util.Json

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

let time f =
  let t0 = now_ns () in
  let r = f () in
  (seconds_since t0, r)

type t = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  start_ns : int;
  mutable stop_ns : int;
}

let enabled = ref false
let finished : t list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let layer name =
  match String.index_opt name ':' with
  | Some i -> String.sub name 0 i
  | None -> name

let run name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s = { id = !next_id; name; parent; start_ns = now_ns (); stop_ns = 0 } in
    incr next_id;
    stack := s.id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop_ns <- now_ns ();
        stack := List.tl !stack;
        finished := s :: !finished)
      f
  end

let duration s = s.stop_ns - s.start_ns

(* Share of the window [t0, t1] covered by root spans inside it. *)
let covered ~t0 ~t1 =
  let inside =
    List.filter
      (fun s -> s.parent < 0 && s.start_ns >= t0 && s.stop_ns <= t1)
      !finished
  in
  float_of_int (List.fold_left (fun a s -> a + duration s) 0 inside)
  /. float_of_int (max 1 (t1 - t0))

(* Self time per layer, in seconds: each span's duration minus the part
   its child spans cover, summed by layer, largest first. *)
let self_times () =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (duration s + Option.value ~default:0 (Hashtbl.find_opt children s.parent)))
    !finished;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        duration s - Option.value ~default:0 (Hashtbl.find_opt children s.id)
      in
      let l = layer s.name in
      Hashtbl.replace by_layer l
        (self + Option.value ~default:0 (Hashtbl.find_opt by_layer l)))
    !finished;
  Hashtbl.fold (fun l ns acc -> (l, float_of_int ns *. 1e-9) :: acc) by_layer []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let chrome_json ~workload =
  let spans = List.rev !finished in
  let origin = List.fold_left (fun a s -> min a s.start_ns) max_int spans in
  let us ns = Json.Float (float_of_int ns /. 1e3) in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.String s.name);
                   ("cat", Json.String (layer s.name));
                   ("ph", Json.String "X");
                   ("ts", us (s.start_ns - origin));
                   ("dur", us (duration s));
                   ("pid", Json.Int 1);
                   ("tid", Json.Int 1);
                   ( "args",
                     Json.Obj
                       [
                         ("id", Json.Int s.id);
                         ("parent", Json.Int s.parent);
                         ("workload", Json.String workload);
                       ] );
                 ])
             spans) );
      ("displayTimeUnit", Json.String "ms");
    ]
