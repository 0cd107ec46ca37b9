(* Line-delimited service journal; see the .mli. *)

type shard = {
  s_tool : Core.Campaign.tool;
  s_category : Core.Category.t;
  s_first : int;
  s_count : int;
  s_population : int;
  s_tally : Core.Verdict.tally;
}

type entry = {
  e_id : int;
  e_chunk : int;
  e_job : Wire.job;
  mutable e_shards : shard list;
  mutable e_done : bool;
  mutable e_failed : bool;
}

type t = { oc : out_channel; mutex : Mutex.t; mutable closed : bool }

(* v2 added the fault-model token to job lines; v3 escapes the output
   path and drops the snapshot token.  Older journals are rejected by
   the header check instead of being misread. *)
let header = "# fi-serve-journal v3"

let comma f xs = String.concat "," (List.map f xs)

(* The output path is the only free-form field, so it goes last, as
   "-" for none or an OCaml string literal: escaped, a path can hold
   no newline that would forge a journal line. *)
let job_line ~id ~chunk (j : Wire.job) =
  Printf.sprintf "job %d %d %d %d %s %s %s %s %s" id j.Wire.j_trials
    j.Wire.j_seed chunk
    (Core.Fault_model.name j.Wire.j_model)
    (comma Core.Campaign.tool_name j.Wire.j_tools)
    (comma Core.Category.name j.Wire.j_categories)
    j.Wire.j_workload
    (match j.Wire.j_out with None -> "-" | Some p -> Printf.sprintf "%S" p)

let shard_line ~id (s : shard) =
  let t = s.s_tally in
  Printf.sprintf "shard %d %s %s %d %d %d %d %d %d %d %d %d %d" id
    (Core.Campaign.tool_name s.s_tool)
    (Core.Category.name s.s_category)
    s.s_first s.s_count s.s_population t.Core.Verdict.trials t.benign t.sdc
    t.crash t.hang t.not_activated t.not_injected

let opt_all xs = if List.exists Option.is_none xs then None else Some (List.map Option.get xs)

let parse_names of_name s =
  opt_all (List.map of_name (String.split_on_char ',' s))

let parse_job tokens =
  match tokens with
  | id :: trials :: seed :: chunk :: model :: tools :: cats :: workload :: rest
    -> (
    match
      ( int_of_string_opt id,
        int_of_string_opt trials,
        int_of_string_opt seed,
        int_of_string_opt chunk,
        Core.Fault_model.of_name model,
        parse_names Core.Campaign.tool_of_name tools,
        parse_names Core.Category.of_string cats )
    with
    | ( Some id,
        Some trials,
        Some seed,
        Some chunk,
        Some model,
        Some tools,
        Some cats ) ->
      let out =
        match String.concat " " rest with
        | "-" -> Some None
        | s -> (
          match Scanf.sscanf s "%S%!" Fun.id with
          | p -> Some (Some p)
          | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None)
      in
      Option.map
        (fun out ->
          ( id,
            chunk,
            {
              Wire.j_workload = workload;
              j_tools = tools;
              j_categories = cats;
              j_model = model;
              j_trials = trials;
              j_seed = seed;
              j_out = out;
            } ))
        out
    | _ -> None)
  | _ -> None

let parse_shard tokens =
  match tokens with
  | [ id; tool; cat; first; count; population; trials; benign; sdc; crash;
      hang; not_activated; not_injected ] -> (
    match
      ( int_of_string_opt id,
        Core.Campaign.tool_of_name tool,
        Core.Category.of_string cat,
        opt_all
          (List.map int_of_string_opt
             [ first; count; population; trials; benign; sdc; crash; hang;
               not_activated; not_injected ]) )
    with
    | ( Some id,
        Some s_tool,
        Some s_category,
        Some
          [ s_first; s_count; s_population; trials; benign; sdc; crash; hang;
            not_activated; not_injected ] ) ->
      Some
        ( id,
          {
            s_tool;
            s_category;
            s_first;
            s_count;
            s_population;
            s_tally =
              {
                Core.Verdict.trials;
                benign;
                sdc;
                crash;
                hang;
                not_activated;
                not_injected;
              };
          } )
    | _ -> None)
  | _ -> None

let load ~path =
  In_channel.with_open_text path (fun ic ->
      (match In_channel.input_line ic with
      | Some first when String.equal (String.trim first) header -> ()
      | Some first ->
        invalid_arg
          (Printf.sprintf
             "Joblog.load: %s is not a journal this server can read.\n\
             \  journal:  %s\n\
             \  expected: %s\n\
              Use a fresh journal path."
             path (String.trim first) header)
      | None -> ());
      let entries : (int, entry) Hashtbl.t = Hashtbl.create 16 in
      let order = ref [] in
      let rec go () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
          (* Skip anything unparseable: a line truncated by a SIGKILL
             mid-append must not poison the rest of the journal.  No
             trimming: the split is lossless, so a job's quoted output
             path is rejoined exactly. *)
          (match String.split_on_char ' ' line with
          | "job" :: rest -> (
            match parse_job rest with
            | Some (id, chunk, job) when not (Hashtbl.mem entries id) ->
              Hashtbl.replace entries id
                {
                  e_id = id;
                  e_chunk = chunk;
                  e_job = job;
                  e_shards = [];
                  e_done = false;
                  e_failed = false;
                };
              order := id :: !order
            | _ -> ())
          | "shard" :: rest -> (
            match parse_shard rest with
            | Some (id, shard) -> (
              match Hashtbl.find_opt entries id with
              | Some e -> e.e_shards <- e.e_shards @ [ shard ]
              | None -> ())
            | None -> ())
          | [ "done"; id; _digest ] -> (
            match Option.bind (int_of_string_opt id) (Hashtbl.find_opt entries) with
            | Some e -> e.e_done <- true
            | None -> ())
          | [ "fail"; id ] -> (
            match Option.bind (int_of_string_opt id) (Hashtbl.find_opt entries) with
            | Some e -> e.e_failed <- true
            | None -> ())
          | _ -> ());
          go ()
      in
      go ();
      List.rev_map (Hashtbl.find entries) !order)

let start ~path =
  let existing = if Sys.file_exists path then load ~path else [] in
  let oc =
    if existing <> [] then open_out_gen [ Open_append; Open_creat ] 0o644 path
    else begin
      let oc = open_out path in
      output_string oc header;
      output_char oc '\n';
      flush oc;
      oc
    end
  in
  ({ oc; mutex = Mutex.create (); closed = false }, existing)

let m_flushes = Obs.Metrics.counter "serve.journal.flushes"

let record_line t line =
  Mutex.lock t.mutex;
  if not t.closed then begin
    output_string t.oc line;
    output_char t.oc '\n';
    flush t.oc;
    Obs.Metrics.incr m_flushes
  end;
  Mutex.unlock t.mutex

let record_job t ~id ~chunk job = record_line t (job_line ~id ~chunk job)
let record_shard t ~id shard = record_line t (shard_line ~id shard)
let record_done t ~id ~digest = record_line t (Printf.sprintf "done %d %s" id digest)
let record_fail t ~id = record_line t (Printf.sprintf "fail %d" id)

let close t =
  Mutex.lock t.mutex;
  if not t.closed then begin
    t.closed <- true;
    close_out t.oc
  end;
  Mutex.unlock t.mutex
