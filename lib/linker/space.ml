type t = {
  mutable sorted : Image.t array; (* ascending by text.base *)
  by_id : (int, Image.t) Hashtbl.t;
  by_name : (string, Image.t) Hashtbl.t;
  mutable memo : Image.t; (* last successful lookup, or [Image.none] *)
}

let check_overlaps sorted =
  for i = 0 to Array.length sorted - 2 do
    if Image.span_end sorted.(i) > sorted.(i + 1).Image.text.base then
      invalid_arg
        (Printf.sprintf "Space: images %s and %s overlap" sorted.(i).Image.name
           sorted.(i + 1).Image.name)
  done

let create images =
  let sorted = Array.of_list images in
  Array.sort (fun (a : Image.t) b -> compare a.text.base b.text.base) sorted;
  check_overlaps sorted;
  let by_id = Hashtbl.create 16 and by_name = Hashtbl.create 16 in
  Array.iter
    (fun (img : Image.t) ->
      Hashtbl.replace by_id img.id img;
      Hashtbl.replace by_name img.name img)
    sorted;
  { sorted; by_id; by_name; memo = Image.none }

let add t (img : Image.t) =
  if Hashtbl.mem t.by_id img.id then
    invalid_arg (Printf.sprintf "Space.add: duplicate image id %d" img.id);
  if Hashtbl.mem t.by_name img.name then
    invalid_arg (Printf.sprintf "Space.add: duplicate module %s" img.name);
  let sorted = Array.append t.sorted [| img |] in
  Array.sort (fun (a : Image.t) b -> compare a.text.base b.text.base) sorted;
  check_overlaps sorted;
  t.sorted <- sorted;
  Hashtbl.replace t.by_id img.id img;
  Hashtbl.replace t.by_name img.name img;
  t.memo <- Image.none

let remove t id =
  match Hashtbl.find_opt t.by_id id with
  | None -> invalid_arg (Printf.sprintf "Space.remove: unknown image id %d" id)
  | Some img ->
      t.sorted <-
        Array.of_list
          (List.filter
             (fun (i : Image.t) -> i.id <> id)
             (Array.to_list t.sorted));
      Hashtbl.remove t.by_id id;
      Hashtbl.remove t.by_name img.Image.name;
      t.memo <- Image.none

let images t = t.sorted

(* Index of the rightmost image in [sorted.(lo..hi-1)] whose base is at
   most [a], or [lo - 1].  Top-level so a memo miss allocates nothing. *)
let rec search (sorted : Image.t array) a lo hi =
  if lo >= hi then lo - 1
  else
    let mid = (lo + hi) / 2 in
    if sorted.(mid).Image.text.base <= a then search sorted a (mid + 1) hi
    else search sorted a lo mid

let locate t a =
  if Image.contains t.memo a then t.memo
  else
    let i = search t.sorted a 0 (Array.length t.sorted) in
    if i < 0 then Image.none
    else
      let img = t.sorted.(i) in
      if Image.contains img a then begin
        t.memo <- img;
        img
      end
      else Image.none

let image_at t a =
  let img = locate t a in
  if img == Image.none then None else Some img

let image_by_id t id = Hashtbl.find_opt t.by_id id
let image_by_name t name = Hashtbl.find_opt t.by_name name
