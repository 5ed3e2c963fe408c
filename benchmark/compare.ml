(* compare.exe [--bench FILE] PARENT_DIR CHANGE_DIR

   Compares two sets of untraced runs (the dumps main.exe writes), per
   workload and end-to-end metric: each side's median and quartiles, the
   share of run pairs the change wins, and a verdict against the bound
   BENCHMARK.json fixes for the metric:
   - improved: the change wins at least 9 pairs in 10 and the medians
     differ, in its favour, by more than the parent's interquartile range;
   - unresolved: the parent's own spread is wider than the bound, and not
     every change run reads better than every parent run;
   - regressed: the change's median is worse than the parent's by more
     than the bound;
   - no worse: otherwise; no change: every pair reads exactly the same.
   Pairs are the i-th runs of a workload on each side, in file-name
   order, and must share their seed.  Dumps whose host facts differ are
   not compared.  Exits 1 when a metric regressed, 2 on bad input. *)

module Json = Dlink_util.Json

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("compare: " ^ m);
      exit 2)
    fmt

type run = {
  file : string;
  workload : string;
  facts : (string * Json.t) list;
  values : (string * float) list;
}

let string_field k j =
  match Dump.member k j with Some (Json.String s) -> s | _ -> ""

let load_dir dir =
  let files =
    try Sys.readdir dir |> Array.to_list |> List.sort compare
    with Sys_error e -> die "%s" e
  in
  List.filter_map
    (fun f ->
      let path = Filename.concat dir f in
      if Filename.check_suffix f ".chrome.json" || not (Filename.check_suffix f ".json")
      then None
      else
        let j = try Dump.load path with Failure e -> die "%s" e in
        match (Dump.member "trace" j, Dump.member "facts" j, Dump.member "metrics" j) with
        | Some (Json.Bool false), Some (Json.Obj facts), Some (Json.Obj ms) ->
            Some
              {
                file = path;
                workload = string_field "workload" j;
                facts;
                values =
                  List.filter_map
                    (fun (n, m) ->
                      Option.map (fun v -> (n, v)) (Dump.number (Dump.member "value" m)))
                    ms;
              }
        | _ -> None)
    files

type metric = { name : string; higher : bool; bound : float }

let load_metrics path =
  let j = try Dump.load path with Failure e | Sys_error e -> die "%s" e in
  match Dump.member "end_to_end" j with
  | Some (Json.List l) ->
      List.map
        (fun m ->
          match
            (Dump.member "name" m, Dump.member "better" m, Dump.number (Dump.member "bound" m))
          with
          | Some (Json.String name), Some (Json.String better), Some bound ->
              { name; higher = better = "higher"; bound }
          | _ -> die "%s: malformed end_to_end entry" path)
        l
  | _ -> die "%s: no end_to_end list" path

let verdict m ~parent ~change =
  (* > 0 when [b] reads better than [a] *)
  let gain a b = if m.higher then b -. a else a -. b in
  let pairs = List.combine parent change in
  let wins = List.length (List.filter (fun (p, c) -> gain p c > 0.0) pairs) in
  let win_frac = float_of_int wins /. float_of_int (List.length pairs) in
  let pm = Stat.median parent and cm = Stat.median change in
  let q1, q3 = Stat.quartiles parent in
  let all_better =
    List.for_all (fun c -> List.for_all (fun p -> gain p c > 0.0) parent) change
  in
  let v =
    if List.for_all (fun (p, c) -> p = c) pairs then "no change"
    else if win_frac >= 0.9 && gain pm cm > q3 -. q1 then "improved"
    else if Stat.spread parent > m.bound && not all_better then "unresolved"
    else if -.gain pm cm /. Float.abs pm > m.bound then "regressed"
    else "no worse"
  in
  (win_frac, v)

let () =
  let bench = ref "BENCHMARK.json" and dirs = ref [] in
  Arg.parse
    [ ("--bench", Arg.Set_string bench, "FILE benchmark definition (default BENCHMARK.json)") ]
    (fun d -> dirs := !dirs @ [ d ])
    "compare.exe [--bench FILE] PARENT_DIR CHANGE_DIR";
  let parent_dir, change_dir =
    match !dirs with [ p; c ] -> (p, c) | _ -> die "need PARENT_DIR and CHANGE_DIR"
  in
  let metrics = load_metrics !bench in
  let parent = load_dir parent_dir and change = load_dir change_dir in
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) (parent @ change)) in
  if workloads = [] then die "no untraced dumps in %s or %s" parent_dir change_dir;
  let regressed = ref false in
  Printf.printf "%-13s %-12s %-30s %-30s %5s  %s\n" "workload" "metric" "parent median [q1, q3]"
    "change median [q1, q3]" "wins" "verdict";
  List.iter
    (fun w ->
      let side runs = List.filter (fun r -> r.workload = w) runs in
      let p = side parent and c = side change in
      let n = min (List.length p) (List.length c) in
      if n = 0 then die "%s: runs on one side only" w;
      let p = List.filteri (fun i _ -> i < n) p and c = List.filteri (fun i _ -> i < n) c in
      let first = List.hd p in
      List.iter
        (fun r ->
          List.iter
            (fun k ->
              if List.assoc_opt k r.facts <> List.assoc_opt k first.facts then
                die "%s and %s differ in host fact %s" first.file r.file k)
            Dump.comparable_facts)
        (p @ c);
      List.iter2
        (fun a b ->
          if List.assoc_opt "seed" a.facts <> List.assoc_opt "seed" b.facts then
            die "%s and %s were run with different seeds" a.file b.file)
        p c;
      List.iter
        (fun m ->
          let values runs =
            List.map
              (fun r ->
                match List.assoc_opt m.name r.values with
                | Some v -> v
                | None -> die "%s: no metric %s" r.file m.name)
              runs
          in
          let pv = values p and cv = values c in
          let win_frac, v = verdict m ~parent:pv ~change:cv in
          if v = "regressed" then regressed := true;
          let show xs =
            let q1, q3 = Stat.quartiles xs in
            Printf.sprintf "%.6g [%.6g, %.6g]" (Stat.median xs) q1 q3
          in
          Printf.printf "%-13s %-12s %-30s %-30s %5.2f  %s\n" w m.name (show pv) (show cv)
            win_frac v)
        metrics)
    workloads;
  exit (if !regressed then 1 else 0)
