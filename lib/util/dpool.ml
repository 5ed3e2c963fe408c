(* Shared-memory domain pool.  OCaml 5 domains run OCaml code truly in
   parallel within one process, so workers share the parent's heap
   directly: no [Marshal], no pipes, and results may contain closures or
   custom blocks.  Work distribution is stealing over a single atomic
   cursor: each domain repeatedly claims the next unclaimed item index,
   so a slow cell never stalls the others.  Every item writes its result
   (or error) into its own slot of a shared array — one writer per slot,
   no locks — and the calling domain merges by index after
   [Domain.join], so the output order is deterministic and identical to
   the sequential map. *)

let default_jobs () =
  match Sys.getenv_opt "DLINK_JOBS" with
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> n
      | _ ->
          Printf.eprintf
            "warning: DLINK_JOBS=%s is not a positive integer; running with 1 \
             job\n\
             %!"
            s;
          1)
  | None -> ( try Domain.recommended_domain_count () with _ -> 1)

let map ?(jobs = 1) f items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let jobs = min jobs n in
  if jobs <= 1 || n <= 1 then List.map f items
  else begin
    let next = Atomic.make 0 in
    let results = Array.make n None in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let r =
          try Ok (f arr.(i)) with e -> Error (Printexc.to_string e)
        in
        results.(i) <- Some r;
        worker ()
      end
    in
    (* The calling domain is worker zero; [jobs - 1] more are spawned.  A
       failed spawn (domain limit) degrades gracefully: the cursor hands
       the unclaimed items to whoever is still running. *)
    let spawned =
      Array.init (jobs - 1) (fun _ ->
          try Some (Domain.spawn worker) with _ -> None)
    in
    worker ();
    Array.iter (function Some d -> Domain.join d | None -> ()) spawned;
    Array.to_list
      (Array.mapi
         (fun i r ->
           match r with
           | Some (Ok v) -> v
           | Some (Error msg) ->
               failwith (Printf.sprintf "Dpool.map: item %d raised: %s" i msg)
           | None -> failwith (Printf.sprintf "Dpool.map: item %d missing" i))
         results)
  end
