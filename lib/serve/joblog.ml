(* The service journal: a record schema over Engine.Journal; see the .mli. *)

type shard = {
  s_tool : Core.Campaign.tool;
  s_category : Core.Category.t;
  s_first : int;
  s_count : int;
  s_population : int;
  s_tally : Core.Verdict.tally;
}

type record =
  | Job of { id : int; chunk : int; job : Wire.job }
  | Shard of { id : int; shard : shard }
  | Done of { id : int; digest : string }
  | Fail of { id : int }

type entry = {
  e_id : int;
  e_chunk : int;
  e_job : Wire.job;
  mutable e_shards : shard list;
  mutable e_done : bool;
  mutable e_failed : bool;
}

let comma f xs = String.concat "," (List.map f xs)
let names of_name s = Engine.Journal.all of_name (String.split_on_char ',' s)

(* The output path is the only free-form field, so it goes last, as
   "-" for none or an OCaml string literal: escaped, a path can hold
   no newline that would forge a journal line. *)
let encode = function
  | Job { id; chunk; job = j } ->
    Printf.sprintf "job %d %d %d %d %s %s %s %s %s" id j.j_trials j.j_seed chunk
      (Core.Fault_model.name j.j_model)
      (comma Core.Campaign.tool_name j.j_tools)
      (comma Core.Category.name j.j_categories)
      j.j_workload
      (match j.j_out with None -> "-" | Some p -> Printf.sprintf "%S" p)
  | Shard { id; shard = s } ->
    String.concat " "
      ("shard" :: string_of_int id
      :: Engine.Journal.cell_fields s.s_tool s.s_category
           [ s.s_first; s.s_count; s.s_population ]
           s.s_tally)
  | Done { id; digest } -> Printf.sprintf "done %d %s" id digest
  | Fail { id } -> Printf.sprintf "fail %d" id

(* No trimming: the split is lossless, so a job's quoted output path is
   rejoined exactly. *)
let decode line =
  match String.split_on_char ' ' line with
  | "job" :: id :: trials :: seed :: chunk :: model :: tools :: cats
    :: j_workload :: out -> (
    let j_out =
      match String.concat " " out with
      | "-" -> Some None
      | s -> Option.map Option.some (Scanf.sscanf_opt s "%S%!" Fun.id)
    in
    match
      ( Engine.Journal.all int_of_string_opt [ id; trials; seed; chunk ],
        Core.Fault_model.of_name model,
        names Core.Campaign.tool_of_name tools,
        names Core.Category.of_string cats,
        j_out )
    with
    | ( Some [ id; j_trials; j_seed; chunk ],
        Some j_model,
        Some j_tools,
        Some j_categories,
        Some j_out ) ->
      Some
        (Job
           {
             id;
             chunk;
             job =
               {
                 Wire.j_workload;
                 j_tools;
                 j_categories;
                 j_model;
                 j_trials;
                 j_seed;
                 j_out;
               };
           })
    | _ -> None)
  | "shard" :: id :: fields -> (
    match (int_of_string_opt id, Engine.Journal.of_cell_fields fields) with
    | ( Some id,
        Some (s_tool, s_category, [ s_first; s_count; s_population ], s_tally)
      ) ->
      Some
        (Shard
           {
             id;
             shard =
               { s_tool; s_category; s_first; s_count; s_population; s_tally };
           })
    | _ -> None)
  | [ "done"; id; digest ] ->
    Option.map (fun id -> Done { id; digest }) (int_of_string_opt id)
  | [ "fail"; id ] -> Option.map (fun id -> Fail { id }) (int_of_string_opt id)
  | _ -> None

(* v2 added the fault-model token to job lines; v3 escapes the output
   path and drops the snapshot token.  Older journals are rejected by
   the header check instead of being misread. *)
let schema =
  {
    Engine.Journal.header = "# fi-serve-journal v3";
    encode;
    decode;
    flushes = Obs.Metrics.counter "serve.journal.flushes";
  }

let fold records =
  let entries = Hashtbl.create 16 in
  let update id f = Option.iter f (Hashtbl.find_opt entries id) in
  List.iter
    (function
      | Job { id; chunk; job } ->
        if not (Hashtbl.mem entries id) then
          Hashtbl.replace entries id
            {
              e_id = id;
              e_chunk = chunk;
              e_job = job;
              e_shards = [];
              e_done = false;
              e_failed = false;
            }
      | Shard { id; shard } ->
        update id (fun e -> e.e_shards <- shard :: e.e_shards)
      | Done { id; _ } -> update id (fun e -> e.e_done <- true)
      | Fail { id } -> update id (fun e -> e.e_failed <- true))
    records;
  List.of_seq (Hashtbl.to_seq_values entries)
  |> List.sort (fun a b -> Int.compare a.e_id b.e_id)
  |> List.map (fun e ->
         (* Shards were consed newest first: flip each list once. *)
         e.e_shards <- List.rev e.e_shards;
         e)

let load ~path = fold (Engine.Journal.load schema ~path)

let start ~path =
  let t, records = Engine.Journal.start schema ~path ~resume:true in
  (t, fold records)
