(** Append-only record logs; see the .mli for the format. *)

type 'a schema = {
  header : string;
  encode : 'a -> string;
  decode : string -> 'a option;
  flushes : Obs.Metrics.counter;
}

type 'a t = {
  schema : 'a schema;
  oc : out_channel;
  mutex : Mutex.t;
  mutable closed : bool;
}

(* The decoded records of [path] and the byte length of its complete
   lines.  Only a line whose '\n' reached the file counts: a record torn
   by a crash mid-append is never decoded, however much of it survived. *)
let scan schema ~path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let refuse first =
    invalid_arg
      (Printf.sprintf
         "Journal.load: %s was written for a different campaign.\n\
         \  journal:    %s\n\
         \  invocation: %s\n\
          Resume with the original configuration, or start a fresh journal \
          path."
         path (String.trim first) schema.header)
  in
  match String.rindex_opt text '\n' with
  | None ->
    (* Empty, or a header torn mid-write: nothing was recorded yet. *)
    if String.starts_with ~prefix:text schema.header then ([], 0)
    else refuse text
  | Some last ->
    (* split_on_char never returns [] *)
    let lines = String.split_on_char '\n' (String.sub text 0 last) in
    if not (String.equal (String.trim (List.hd lines)) schema.header) then
      refuse (List.hd lines);
    (List.filter_map schema.decode (List.tl lines), last + 1)

let load schema ~path = fst (scan schema ~path)

let append oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let start schema ~path ~resume =
  let existing, complete =
    if resume && Sys.file_exists path then scan schema ~path else ([], 0)
  in
  let oc =
    if complete > 0 then (
      (* Drop a torn tail, so the next record starts on a line of its own. *)
      Unix.truncate path complete;
      open_out_gen [ Open_wronly; Open_append ] 0o644 path)
    else open_out path
  in
  if complete = 0 then append oc schema.header;
  ({ schema; oc; mutex = Mutex.create (); closed = false }, existing)

let record t x =
  let line = t.schema.encode x in
  Mutex.protect t.mutex (fun () ->
      if not t.closed then begin
        append t.oc line;
        Obs.Metrics.incr t.schema.flushes
      end)

let close t =
  Mutex.protect t.mutex (fun () ->
      if not t.closed then begin
        t.closed <- true;
        close_out t.oc
      end)

(* --- field codecs --- *)

let all f xs =
  List.fold_right
    (fun x acc ->
      match (f x, acc) with Some y, Some ys -> Some (y :: ys) | _ -> None)
    xs (Some [])

let cell_fields tool category ints (t : Core.Verdict.tally) =
  Core.Campaign.tool_name tool :: Core.Category.name category
  :: List.map string_of_int
       (ints
       @ [ t.trials; t.benign; t.sdc; t.crash; t.hang; t.not_activated;
           t.not_injected ])

let of_cell_fields = function
  | tool :: category :: fields -> (
    match
      ( Core.Campaign.tool_of_name tool,
        Core.Category.of_string category,
        Option.map List.rev (all int_of_string_opt fields) )
    with
    | Some tool, Some category,
      Some
        (not_injected :: not_activated :: hang :: crash :: sdc :: benign
        :: trials :: ints) ->
      Some
        ( tool,
          category,
          List.rev ints,
          { Core.Verdict.trials; benign; sdc; crash; hang; not_activated;
            not_injected } )
    | _ -> None)
  | _ -> None

(* --- campaign and exhaust journals --- *)

let grid ~workloads ~tools ~categories =
  String.concat "|"
    [
      String.concat "," workloads;
      String.concat "," (List.map Core.Campaign.tool_name tools);
      String.concat "," (List.map Core.Category.name categories);
    ]

(* The model token only appears for non-default campaigns, so default
   journals keep the exact header bytes older runs wrote. *)
let model_token (model : Core.Fault_model.t) =
  match model with
  | Core.Fault_model.Bitflip -> ""
  | m -> " model=" ^ Core.Fault_model.name m

let tokens line = String.split_on_char ' ' (String.trim line)
let m_flushes = Obs.Metrics.counter "engine.journal.flushes"

(* Cell lines don't repeat the model: the header fixes it for the whole
   journal, so the decoder fills it in. *)
let cells ~grid:g (config : Core.Campaign.config) =
  {
    header =
      Printf.sprintf "# fi-journal v2 seed=%d trials=%d%s grid=%s" config.seed
        config.trials (model_token config.model) g;
    encode =
      (fun (c : Core.Campaign.cell) ->
        String.concat " "
          ("cell" :: c.c_workload
          :: cell_fields c.c_tool c.c_category [ c.c_population ] c.c_tally));
    decode =
      (fun line ->
        match tokens line with
        | "cell" :: c_workload :: fields -> (
          match of_cell_fields fields with
          | Some (c_tool, c_category, [ c_population ], c_tally) ->
            Some
              {
                Core.Campaign.c_workload;
                c_tool;
                c_category;
                c_model = config.model;
                c_population;
                c_tally;
              }
          | _ -> None)
        | _ -> None);
    flushes = m_flushes;
  }

(* The error bound goes last, as a hex float, so it reloads
   bit-identically. *)
let exact_cells ~grid:g ~seed ~prune ~sample_bound model =
  {
    header =
      Printf.sprintf
        "# fi-exhaust-journal v1 seed=%d prune=%b bound=%d%s grid=%s" seed prune
        sample_bound (model_token model) g;
    encode =
      (fun (e : Core.Campaign.exact_cell) ->
        String.concat " "
          (("xcell" :: e.e_workload
           :: cell_fields e.e_tool e.e_category
                [ e.e_population; e.e_enumerated; e.e_pruned_dead;
                  e.e_pruned_masked; e.e_pruned_equiv; e.e_executed; e.e_unit ]
                e.e_tally)
          @ [ Printf.sprintf "%h" e.e_bound ]));
    decode =
      (fun line ->
        match List.rev (tokens line) with
        | bound :: rev_fields -> (
          match (List.rev rev_fields, float_of_string_opt bound) with
          | "xcell" :: e_workload :: fields, Some e_bound -> (
            match of_cell_fields fields with
            | Some
                ( e_tool,
                  e_category,
                  [ e_population; e_enumerated; e_pruned_dead; e_pruned_masked;
                    e_pruned_equiv; e_executed; e_unit ],
                  e_tally ) ->
              Some
                {
                  Core.Campaign.e_workload;
                  e_tool;
                  e_category;
                  e_model = model;
                  e_population;
                  e_enumerated;
                  e_pruned_dead;
                  e_pruned_masked;
                  e_pruned_equiv;
                  e_executed;
                  e_unit;
                  e_tally;
                  e_bound;
                }
            | _ -> None)
          | _ -> None)
        | [] -> None);
    flushes = m_flushes;
  }
