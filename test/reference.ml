(* The from-entry reference for campaign cells: every trial a direct
   [Llfi.inject] / [Pinfi.inject] on its split of the cell's master
   stream.  [Campaign.run_cell_range] plans targets and runs them sorted
   on a fast-forward machine; its tallies, callbacks and stats must
   equal this loop byte for byte. *)

(* Trials [0, config.trials) of a cell, in trial order. *)
let stats ?(track_use = false) (config : Core.Campaign.config)
    (p : Core.Campaign.prepared) tool category =
  if Core.Campaign.population p tool category = 0 then []
  else begin
    let master =
      Core.Campaign.cell_rng config
        ~workload:p.Core.Campaign.workload.Core.Workload.name ~tool ~category
    in
    let model = config.Core.Campaign.model in
    let acc = ref [] in
    for _ = 1 to config.Core.Campaign.trials do
      let rng = Support.Rng.split master in
      let st =
        match tool with
        | Core.Campaign.Llfi_tool ->
          Core.Llfi.inject ~track_use ~model p.Core.Campaign.llfi category rng
        | Core.Campaign.Pinfi_tool ->
          Core.Pinfi.inject ~track_use ~model p.Core.Campaign.pinfi category
            rng
      in
      acc := st :: !acc
    done;
    List.rev !acc
  end

let cell config p tool category =
  let golden_output = Core.Campaign.golden_output p tool in
  let tally = Core.Verdict.fresh_tally () in
  List.iter
    (fun st -> Core.Verdict.add tally (Core.Verdict.of_run ~golden_output st))
    (stats config p tool category);
  {
    Core.Campaign.c_workload = p.Core.Campaign.workload.Core.Workload.name;
    c_tool = tool;
    c_category = category;
    c_model = config.Core.Campaign.model;
    c_population = Core.Campaign.population p tool category;
    c_tally = tally;
  }
