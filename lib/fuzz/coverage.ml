module Campaign = Core.Campaign
module Category = Core.Category

type cell = {
  cov_workload : string;
  cov_tool : Campaign.tool;
  cov_category : Category.t;
  cov_static : int;
  cov_reachable : int;
  cov_selected : int;
  cov_bit_space : int;
  cov_bits_hit : int;
  cov_population : int;
  cov_trials : int;
  cov_top_share : float;
  cov_top_expected : float;
}

type report = {
  cells : cell list;
  dead : (string * string * string) list;
  models : string list;
}

(* --- static fault-space enumeration --- *)

(* Static sites of one cell: (site id, flippable bits, dynamic count). *)
let llfi_sites (p : Campaign.prepared) category dyn =
  let cmask = Category.mask category in
  Array.to_list (Vm.Ir_exec.sites p.Campaign.llfi.Core.Llfi.compiled)
  |> List.filter_map (fun (s : Vm.Ir_exec.site) ->
         if s.Vm.Ir_exec.site_mask land cmask <> 0 then
           Some
             ( s.Vm.Ir_exec.site_gid,
               s.Vm.Ir_exec.site_width,
               dyn s.Vm.Ir_exec.site_gid )
         else None)

let pinfi_sites (p : Campaign.prepared) category dyn =
  let cmask = Category.mask category in
  let loaded = p.Campaign.pinfi.Core.Pinfi.loaded in
  let policy = p.Campaign.pinfi.Core.Pinfi.config.Core.Pinfi.policy in
  let width = Vm.X86_exec.site_width policy loaded.Vm.X86_exec.program in
  let out = ref [] in
  Array.iteri
    (fun idx mask ->
      if mask land cmask <> 0 then out := (idx, width idx, dyn idx) :: !out)
    loaded.Vm.X86_exec.masks;
  List.rev !out

(* Per-site dynamic execution counts from one profiling run. *)
let llfi_dyn (p : Campaign.prepared) =
  let compiled = p.Campaign.llfi.Core.Llfi.compiled in
  let counts = Array.make (Vm.Ir_exec.gid_limit compiled) 0 in
  ignore
    (Vm.Ir_exec.run ~inputs:p.Campaign.llfi.Core.Llfi.inputs
       (Profile_sites counts) compiled);
  fun gid -> counts.(gid)

let pinfi_dyn (p : Campaign.prepared) =
  let loaded = p.Campaign.pinfi.Core.Pinfi.loaded in
  let counts = Array.make (Array.length loaded.Vm.X86_exec.masks) 0 in
  ignore
    (Vm.X86_exec.run ~inputs:p.Campaign.pinfi.Core.Pinfi.inputs
       (Profile_index counts) loaded);
  fun idx -> counts.(idx)

(* --- trial sampling --- *)

(* Bits are tracked as (site, bit, model-name) triples: the model axis
   multiplies the fault space exactly as it multiplies a campaign
   grid. *)
type tally = {
  site_hits : (int, int) Hashtbl.t;
  bits : (int * int * string, unit) Hashtbl.t;
  mutable observed : int;
}

(* Per-model per-site fault-space size: bit-drawing models span the
   site's flippable width; Skip and Load_value have one fault per
   site. *)
let model_site_space (model : Core.Fault_model.t) bits =
  if bits = 0 then 0
  else
    match model with
    | Core.Fault_model.Skip | Core.Fault_model.Load_value -> 1
    | Core.Fault_model.Bitflip | Core.Fault_model.Multi_bit _
    | Core.Fault_model.Stuck_at_0 | Core.Fault_model.Stuck_at_1 -> bits

let measure ?(jobs = 1) ?(workloads = Workloads.all)
    ?(models = [ Core.Fault_model.Bitflip ]) ~trials ~seed () =
  let models =
    match models with [] -> [ Core.Fault_model.Bitflip ] | l -> l
  in
  let mutex = Mutex.create () in
  let tallies : (string * string * string, tally) Hashtbl.t =
    Hashtbl.create 64
  in
  let run_one model =
    let config = { Campaign.default_config with trials; seed; model } in
    let mname = Core.Fault_model.name model in
    (* Skip and Load_value draw no bit: the whole site is their one
       fault, recorded as bit 0. *)
    let bitless =
      match model with
      | Core.Fault_model.Skip | Core.Fault_model.Load_value -> true
      | _ -> false
    in
    let observe ~workload ~tool ~category ~trial:_ _verdict
        (stats : Vm.Outcome.stats) =
      Mutex.lock mutex;
      let key = (workload, Campaign.tool_name tool, Category.name category) in
      let t =
        match Hashtbl.find_opt tallies key with
        | Some t -> t
        | None ->
          let t =
            {
              site_hits = Hashtbl.create 64;
              bits = Hashtbl.create 256;
              observed = 0;
            }
          in
          Hashtbl.add tallies key t;
          t
      in
      t.observed <- t.observed + 1;
      let site = stats.Vm.Outcome.fault_site in
      if site >= 0 then begin
        Hashtbl.replace t.site_hits site
          (1 + Option.value ~default:0 (Hashtbl.find_opt t.site_hits site));
        let bit = stats.Vm.Outcome.fault_bit in
        if bit >= 0 then Hashtbl.replace t.bits (site, bit, mname) ()
        else if bitless then Hashtbl.replace t.bits (site, 0, mname) ()
      end;
      Mutex.unlock mutex
    in
    Engine.Scheduler.run ~jobs ~observe config workloads
  in
  let result =
    match List.map run_one models with
    | first :: _ -> first
    | [] -> assert false
  in
  let cells = ref [] in
  let dead = ref [] in
  List.iter
    (fun (p : Campaign.prepared) ->
      let llfi_dyn = llfi_dyn p in
      let pinfi_dyn = pinfi_dyn p in
      List.iter
        (fun tool ->
          List.iter
            (fun category ->
              let wname = p.Campaign.workload.Core.Workload.name in
              let population =
                match tool with
                | Campaign.Llfi_tool ->
                  Core.Llfi.dynamic_count p.Campaign.llfi category
                | Campaign.Pinfi_tool ->
                  Core.Pinfi.dynamic_count p.Campaign.pinfi category
              in
              let sites =
                match tool with
                | Campaign.Llfi_tool -> llfi_sites p category llfi_dyn
                | Campaign.Pinfi_tool -> pinfi_sites p category pinfi_dyn
              in
              if population = 0 then
                dead :=
                  (wname, Campaign.tool_name tool, Category.name category)
                  :: !dead
              else begin
                let key =
                  (wname, Campaign.tool_name tool, Category.name category)
                in
                let t =
                  match Hashtbl.find_opt tallies key with
                  | Some t -> t
                  | None ->
                    {
                      site_hits = Hashtbl.create 1;
                      bits = Hashtbl.create 1;
                      observed = 0;
                    }
                in
                let reachable =
                  List.filter (fun (_, _, d) -> d > 0) sites
                in
                let top_site, top_hits =
                  Hashtbl.fold
                    (fun site n (bs, bn) ->
                      if n > bn || (n = bn && site < bs) then (site, n)
                      else (bs, bn))
                    t.site_hits (-1, 0)
                in
                let top_expected =
                  if top_site < 0 then 0.0
                  else
                    match
                      List.find_opt (fun (s, _, _) -> s = top_site) sites
                    with
                    | Some (_, _, d) -> float_of_int d /. float_of_int population
                    | None -> 0.0
                in
                cells :=
                  {
                    cov_workload = wname;
                    cov_tool = tool;
                    cov_category = category;
                    cov_static = List.length sites;
                    cov_reachable = List.length reachable;
                    cov_selected = Hashtbl.length t.site_hits;
                    cov_bit_space =
                      List.fold_left
                        (fun a (_, b, _) ->
                          a
                          + List.fold_left
                              (fun acc m -> acc + model_site_space m b)
                              0 models)
                        0 reachable;
                    cov_bits_hit = Hashtbl.length t.bits;
                    cov_population = population;
                    cov_trials = t.observed;
                    cov_top_share =
                      (if t.observed = 0 then 0.0
                       else float_of_int top_hits /. float_of_int t.observed);
                    cov_top_expected = top_expected;
                  }
                  :: !cells
              end)
            Category.all)
        [ Campaign.Llfi_tool; Campaign.Pinfi_tool ])
    result.Engine.Scheduler.prepared;
  {
    cells = List.rev !cells;
    dead = List.rev !dead;
    models = List.map Core.Fault_model.name models;
  }

let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b

let render report =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "Injection-space coverage (static sites the samplers can reach vs what \
     the trials visited)\n\n";
  if report.models <> [ "bitflip" ] then
    Buffer.add_string buf
      (Printf.sprintf
         "fault models: %s (bit-space and bits-hit count (site, bit, model) \
          triples)\n\n"
         (String.concat ", " report.models));
  Buffer.add_string buf
    (Printf.sprintf "%-12s %-6s %-11s %7s %6s %5s %9s %10s %9s %8s %15s\n"
       "workload" "tool" "category" "static" "reach" "sel" "site-cov" "bit-space"
       "bits-hit" "bit-cov" "top obs/exp");
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf
           "%-12s %-6s %-11s %7d %6d %5d %8.1f%% %10d %9d %7.1f%% %7.3f/%.3f\n"
           c.cov_workload
           (Campaign.tool_name c.cov_tool)
           (Category.name c.cov_category)
           c.cov_static c.cov_reachable c.cov_selected
           (pct c.cov_selected c.cov_reachable)
           c.cov_bit_space c.cov_bits_hit
           (pct c.cov_bits_hit c.cov_bit_space)
           c.cov_top_share c.cov_top_expected))
    report.cells;
  if report.dead <> [] then begin
    Buffer.add_string buf "\ndead cells (no dynamic instances, never injectable):\n";
    List.iter
      (fun (w, t, c) ->
        Buffer.add_string buf (Printf.sprintf "  %s/%s/%s\n" w t c))
      report.dead
  end;
  Buffer.contents buf
