(* Host facts and the JSON dump every run leaves behind, and the reading
   side [compare] uses. *)

module Json = Dlink_util.Json

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The commit of the checkout, read from .git without running git;
   "unknown" outside a git work tree. *)
let commit () =
  try
    let head = String.trim (read_file ".git/HEAD") in
    match String.split_on_char ' ' head with
    | [ "ref:"; r ] -> (
        try String.trim (read_file (".git/" ^ r))
        with Sys_error _ ->
          read_file ".git/packed-refs"
          |> String.split_on_char '\n'
          |> List.find_map (fun l ->
                 match String.split_on_char ' ' l with
                 | [ hash; r' ] when r' = r -> Some hash
                 | _ -> None)
          |> Option.value ~default:"unknown")
    | _ -> head
  with Sys_error _ -> "unknown"

(* Facts two dumps must share before their numbers can be compared. *)
let comparable_facts = [ "nproc"; "ocaml"; "profile"; "jobs"; "smoke"; "seconds" ]

let facts ~jobs ~seed ~smoke ~seconds =
  [
    ("nproc", Json.Int (Domain.recommended_domain_count ()));
    ("ocaml", Json.String Sys.ocaml_version);
    ("profile", Json.String Build_info.profile);
    ("jobs", Json.Int jobs);
    ("smoke", Json.Bool smoke);
    ("seconds", Json.Float seconds);
    ("seed", Json.Int seed);
    ("commit", Json.String (commit ()));
  ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* [dir/stem-K.suffix] for the first K not taken, so repeated runs into
   one directory accumulate as a set of runs. *)
let fresh_path ~dir ~stem ~suffix =
  mkdir_p dir;
  let rec go k =
    let p = Filename.concat dir (Printf.sprintf "%s-%d%s" stem k suffix) in
    if Sys.file_exists p then go (k + 1) else p
  in
  go 0

(* Reading *)

let member k = function Json.Obj l -> List.assoc_opt k l | _ -> None

let number = function
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let load path =
  match Json.of_string (read_file path) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)
