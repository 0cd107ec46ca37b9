(* Pure admission planning; see the .mli. *)

type cell_id = {
  p_workload : string;
  p_tool : Core.Campaign.tool;
  p_category : Core.Category.t;
  p_model : Core.Fault_model.t;
  p_trials : int;
  p_seed : int;
  p_chunk : int;
}

let cells (j : Wire.job) =
  List.concat_map
    (fun tool -> List.map (fun category -> (tool, category)) j.Wire.j_categories)
    j.Wire.j_tools

(* One shard per domain for a typical cell, but never more than 50
   trials per shard (streaming granularity and checkpoint granularity
   are the same thing: a killed server loses at most one shard per
   in-flight cell). *)
let default_chunk ~pool ~trials =
  if trials <= 1 then 1
  else max 1 (min 50 ((trials + pool - 1) / max 1 pool))

let cell_id ~workload ~tool ~category ~model ~trials ~seed ~chunk =
  {
    p_workload = workload;
    p_tool = tool;
    p_category = category;
    p_model = model;
    p_trials = trials;
    p_seed = seed;
    p_chunk = chunk;
  }

let config_for ~(base : Core.Campaign.config) ~model ~trials ~seed =
  { base with Core.Campaign.model; trials; seed }

let max_trials = 10_000_000

let validate (j : Wire.job) =
  match Workloads.find j.Wire.j_workload with
  | None -> Error (Printf.sprintf "unknown workload %S" j.Wire.j_workload)
  | Some w ->
    if j.Wire.j_trials < 0 then Error "negative trial count"
    else if j.Wire.j_trials > max_trials then
      Error (Printf.sprintf "trial count %d exceeds %d" j.Wire.j_trials max_trials)
    else if j.Wire.j_tools = [] then Error "empty tool list"
    else if j.Wire.j_categories = [] then Error "empty category list"
    else Ok w
