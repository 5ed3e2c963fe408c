(* The benchmark at smoke sizes: each workload's run must pass its own
   output checks, including the committed goldens for seed 1, and print
   exactly the metrics BENCHMARK.json names, with their units; compare.exe
   must find no change between a set of dumps and itself. *)

module Json = Dlink_util.Json

let member k = function Json.Obj l -> List.assoc_opt k l | _ -> None
let read path = In_channel.with_open_bin path In_channel.input_all

let bench =
  match Json.of_string (read "../../BENCHMARK.json") with
  | Ok j -> j
  | Error e -> failwith e

let names_units key =
  match member key bench with
  | Some (Json.List l) ->
      List.map
        (fun m ->
          match (member "name" m, member "unit" m) with
          | Some (Json.String n), Some (Json.String u) -> (n, u)
          | _ -> failwith ("malformed " ^ key))
        l
  | _ -> failwith ("no " ^ key)

let workloads =
  match member "workloads" bench with
  | Some (Json.List l) ->
      List.map
        (fun w ->
          match member "name" w with
          | Some (Json.String n) -> n
          | _ -> failwith "malformed workloads")
        l
  | _ -> failwith "no workloads"

let out = "dumps"

(* Runs [prog args]; returns the exit code and standard output. *)
let run prog args =
  let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
  let output = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED code -> (code, output)
  | _ -> (-1, output)

let last_line s =
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> ""

let has_goldens w =
  List.exists
    (fun l -> String.starts_with ~prefix:"1 smoke " l)
    (String.split_on_char '\n' (read ("../expected/" ^ w ^ ".txt")))

let run_workload w trace () =
  Alcotest.(check bool) "goldens for seed 1 at smoke size" true (has_goldens w);
  let code, output =
    run "../main.exe"
      [
        "--workload"; w; "--seed"; "1"; "--smoke"; "--seconds"; "0"; "--trace";
        string_of_int trace; "--out"; out; "--expected"; "../expected";
      ]
  in
  Alcotest.(check int) ("exit status\n" ^ output) 0 code;
  let result =
    match Json.of_string (last_line output) with
    | Ok j -> j
    | Error e -> Alcotest.fail ("last line is not JSON: " ^ e)
  in
  Alcotest.(check bool) "correct" true (member "correct" result = Some (Json.Bool true));
  Alcotest.(check bool) "nothing failed" true (member "failed" result = Some (Json.Int 0));
  let metrics =
    match member "metrics" result with
    | Some (Json.Obj ms) ->
        List.map
          (fun (n, m) ->
            (match member "value" m with
            | Some (Json.Float _ | Json.Int _) -> ()
            | _ -> Alcotest.fail (n ^ " has no numeric value"));
            match member "unit" m with
            | Some (Json.String u) -> (n, u)
            | _ -> Alcotest.fail (n ^ " has no unit"))
          ms
    | _ -> Alcotest.fail "no metrics"
  in
  let expected = names_units (if trace = 1 then "per_layer" else "end_to_end") in
  Alcotest.(check (list (pair string string))) "metric names and units" expected metrics

let compare_identical () =
  let code, output =
    run "../compare.exe" [ "--bench"; "../../BENCHMARK.json"; out; out ]
  in
  Alcotest.(check int) ("exit status\n" ^ output) 0 code;
  let rows = List.tl (List.filter (( <> ) "") (String.split_on_char '\n' output)) in
  Alcotest.(check int) "one row per workload and metric"
    (List.length workloads * List.length (names_units "end_to_end"))
    (List.length rows);
  List.iter
    (fun row ->
      Alcotest.(check bool) row true (String.ends_with ~suffix:"no change" row))
    rows

let () =
  (* Dumps accumulate across runs of a directory; start from none. *)
  if Sys.file_exists out then
    Array.iter (fun f -> Sys.remove (Filename.concat out f)) (Sys.readdir out);
  Alcotest.run "benchmark"
    [
      ( "smoke",
        List.concat_map
          (fun w ->
            [
              Alcotest.test_case (w ^ " untraced") `Quick (run_workload w 0);
              Alcotest.test_case (w ^ " traced") `Quick (run_workload w 1);
            ])
          workloads );
      ("compare", [ Alcotest.test_case "identical dumps" `Quick compare_identical ]);
    ]
