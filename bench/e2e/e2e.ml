(* The end-to-end benchmark.  One process runs one workload for a
   measuring window, checks every output it produced, and prints one JSON
   result line; see README.md.

     e2e.exe run --workload W [--seed S] [--seconds T] [--trace 0|1]
                 [--smoke] [--dir D] [--out FILE]
     e2e.exe all [--seed S] [--seconds T] [--traced] [--smoke] [--dir D]
     e2e.exe compare PARENT_DIR CHANGE_DIR

   Every number comes from timing calls into the libraries' public
   functions from outside them; nothing under lib/ is instrumented for
   the benchmark.  End-to-end metrics come from untraced runs.  A traced
   run alternates untraced and traced ops (U T T U ...), so it measures
   its own tracing overhead and checks that tracing changes no output. *)

let now = Load.now

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let md5 s = Digest.to_hex (Digest.string s)
let sum = List.fold_left ( +. ) 0.
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let cpu () = let t = Unix.times () in t.tms_utime +. t.tms_stime
let both_tools = [ Core.Campaign.Llfi_tool; Core.Campaign.Pinfi_tool ]
let tool_name = Core.Campaign.tool_name

(* ------------------------------------------------------------------ *)
(* Options and sizes                                                   *)

type size = {
  smoke : bool;  (** fixed, tiny op counts instead of a measuring window *)
  grid_trials : int;
  sweep_trials : int;
  arith_bound : int;
  cmp_bound : int;
  pin_jobs : int;  (** served jobs covered by the output digest *)
}

(* Sized so each op is a few seconds at most on a 2-core host, giving a
   20 s window several ops to take medians over. *)
let full =
  {
    smoke = false;
    grid_trials = 200;
    sweep_trials = 50;
    arith_bound = 4000;
    cmp_bound = 0;
    pin_jobs = 100;
  }

let smoke =
  {
    smoke = true;
    grid_trials = 5;
    sweep_trials = 5;
    arith_bound = 50;
    cmp_bound = 50;
    pin_jobs = 20;
  }

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  size : size;
  dir : string;  (** scratch output: traces, service directories *)
  out : string option;  (** result file with provenance, for [all] and [compare] *)
}

let reps o n = if o.size.smoke then 1 else n

(* U T T U U T T U ...: traced and untraced ops interleave evenly. *)
let abba k = k mod 4 = 1 || k mod 4 = 2

(* ------------------------------------------------------------------ *)
(* Results                                                             *)

type report = {
  mutable attempted : int;
  mutable failed : int;
  mutable digest : string;  (** digest of the run's outputs, compared with Pinned *)
  values : (string, float) Hashtbl.t;
}

let set r name v = Hashtbl.replace r.values name v

(* Every op and every check counts as one attempted operation. *)
let verify r ok fmt =
  Printf.ksprintf
    (fun msg ->
      r.attempted <- r.attempted + 1;
      if not ok then begin
        r.failed <- r.failed + 1;
        prerr_endline ("e2e: FAILED: " ^ msg)
      end)
    fmt

let op_latency r secs =
  let ms = List.map (fun s -> s *. 1000.) secs in
  set r "op_p50_ms" (Gate.percentile 50. ms);
  set r "op_p99_ms" (Gate.percentile 99. ms)

(* traced ÷ untraced − 1 over the medians of the same work *)
let overhead ~traced ~plain = (Gate.median traced /. Gate.median plain) -. 1.

(* ------------------------------------------------------------------ *)
(* Spans: recorded around the benchmark's own calls, kept in memory and *)
(* written as Chrome trace JSON when a traced run ends.                 *)

module Spans = struct
  type t = {
    id : int;
    name : string;
    req : string;  (** the cell, job or op the span worked for *)
    parent : int;  (** 0: a root *)
    tid : int;  (** 0: the harness; i + 1: pool worker i *)
    t0 : float;
    t1 : float;
  }

  let on = ref false
  let finished : t list ref = ref []
  let last_id = ref 0
  let stack = ref []

  let fresh () =
    incr last_id;
    !last_id

  let current () = match !stack with p :: _ -> p | [] -> 0

  let add ~tid ~req name t0 t1 =
    if !on then
      finished := { id = fresh (); name; req; parent = current (); tid; t0; t1 } :: !finished

  let span ?(req = "") name f =
    if not !on then f ()
    else begin
      let id = fresh () and parent = current () in
      stack := id :: !stack;
      let t0 = now () in
      Fun.protect
        ~finally:(fun () ->
          stack := List.tl !stack;
          finished := { id; name; req; parent; tid = 0; t0; t1 = now () } :: !finished)
        f
    end

  let write path =
    let spans = List.rev !finished in
    let base = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
    let event s =
      Obs.Json.(
        to_string
          (Obj
             [
               ("name", Str s.name);
               ("cat", Str "e2e");
               ("ph", Str "X");
               ("ts", Float ((s.t0 -. base) *. 1e6));
               ("dur", Float ((s.t1 -. s.t0) *. 1e6));
               ("pid", Int 1);
               ("tid", Int s.tid);
               ("args", Obj [ ("id", Int s.id); ("parent", Int s.parent); ("req", Str s.req) ]);
             ]))
    in
    Load.write_file path
      ("{\"traceEvents\":[\n" ^ String.concat ",\n" (List.map event spans) ^ "\n]}\n")
end

(* ------------------------------------------------------------------ *)
(* Per-layer accounting of traced ops                                  *)

type layers = {
  counters : (string, int) Hashtbl.t;  (** Obs.Metrics, summed over traced ops *)
  mutable cells : (string * Core.Campaign.tool * float) list;
      (** program, tool, seconds spent producing the cell *)
  mutable tallies : Core.Verdict.tally list;
  mutable prefix_steps : int;
  mutable post_steps : int;
  mutable busy : float list;  (** per op: share of domain time until each domain drained *)
  mutable tail : float list;  (** per op: share of the op after the first domain drained *)
  mutable domain_s : float;  (** domain-seconds of traced ops *)
}

let bump tbl k n = Hashtbl.replace tbl k (n + Option.value (Hashtbl.find_opt tbl k) ~default:0)
let counter lay k = Option.value (Hashtbl.find_opt lay.counters k) ~default:0

let add_snapshot lay =
  List.iter
    (function
      | name, Obs.Metrics.Count n -> bump lay.counters name n
      | name, Obs.Metrics.Histo { count; sum; _ } ->
        bump lay.counters (name ^ ".count") count;
        bump lay.counters (name ^ ".sum") sum)
    (Obs.Metrics.snapshot ())

(* The same counters, as a service child dumps them (Metrics.to_json). *)
let add_json lay = function
  | Obs.Json.Obj fields ->
    List.iter
      (fun (name, v) ->
        match v with
        | Obs.Json.Int n -> bump lay.counters name n
        | Obs.Json.Obj _ -> (
          match (Obs.Json.member "count" v, Obs.Json.member "sum" v) with
          | Some (Int c), Some (Int s) ->
            bump lay.counters (name ^ ".count") c;
            bump lay.counters (name ^ ".sum") s
          | _ -> ())
        | _ -> ())
      fields
  | _ -> failwith "service metrics are not a JSON object"

(* Per-cell timing and trial stats from Scheduler.run's ~observe hook.
   Results of a trial range arrive together when the range ends, so a
   cell's time is the gap between its arrival and the previous arrival
   on the same domain (or the op's start).  Slot 0 is the calling domain
   (jobs = 1); pool worker i writes only slot i + 1, and the slots are
   read after run has joined its workers. *)
module Watch = struct
  type slot = {
    mutable key : (string * Core.Campaign.tool * Core.Category.t) option;
    mutable arrivals : (string * Core.Campaign.tool * float) list;  (** newest first *)
    mutable prefix : int;
    mutable post : int;
  }

  let create () = Array.init 3 (fun _ -> { key = None; arrivals = []; prefix = 0; post = 0 })

  let hook slots ~workload ~tool ~category ~trial:_ _verdict (st : Vm.Outcome.stats) =
    let s = slots.(match Engine.Pool.self_index () with Some i -> i + 1 | None -> 0) in
    (match s.key with
    | Some (w, t, c) when String.equal w workload && t = tool && c = category -> ()
    | _ ->
      s.key <- Some (workload, tool, category);
      s.arrivals <- (workload, tool, now ()) :: s.arrivals);
    if st.injected_step >= 0 then begin
      s.prefix <- s.prefix + st.injected_step;
      s.post <- s.post + st.steps - st.injected_step
    end

  let fold lay slots ~t0 ~t1 =
    let lasts =
      Array.to_list slots
      |> List.mapi (fun i s ->
             lay.prefix_steps <- lay.prefix_steps + s.prefix;
             lay.post_steps <- lay.post_steps + s.post;
             List.fold_left
               (fun prev (w, tool, t) ->
                 lay.cells <- (w, tool, t -. prev) :: lay.cells;
                 Spans.add ~tid:i ~req:(w ^ "/" ^ tool_name tool) "core.cell" prev t;
                 t)
               t0 (List.rev s.arrivals))
      |> List.filter (fun last -> last > t0)
    in
    if lasts <> [] then begin
      let wall = t1 -. t0 in
      let n = float_of_int (List.length lasts) in
      lay.busy <- (sum (List.map (fun l -> l -. t0) lasts) /. (wall *. n)) :: lay.busy;
      lay.tail <-
        ((List.fold_left Float.max t0 lasts -. List.fold_left Float.min t1 lasts) /. wall)
        :: lay.tail
    end
end

(* One timed op.  A traced op runs with the observe hook and the
   Obs.Metrics counters on; the counters are collected outside its time. *)
let run_op lay ~traced ~req name f =
  Spans.span ~req name (fun () ->
      let watch = Watch.create () in
      if traced then Obs.Metrics.enable ();
      let t0 = now () in
      let res = f (if traced then Some (Watch.hook watch) else None) in
      let t1 = now () in
      if traced then begin
        add_snapshot lay;
        Obs.Metrics.reset ();
        Watch.fold lay watch ~t0 ~t1
      end;
      (res, t1 -. t0))

let layer_metrics r lay =
  let secs = List.map (fun (_, _, s) -> s) lay.cells in
  let total = sum secs in
  let share pred =
    if total > 0. then
      sum (List.filter_map (fun (w, t, s) -> if pred w t then Some s else None) lay.cells) /. total
    else 0.
  in
  if secs <> [] then begin
    set r "core.cell_s.p50" (Gate.median secs);
    set r "core.cell_s.max" (List.fold_left Float.max 0. secs)
  end;
  List.iter (fun p -> set r ("core.busy_share." ^ p) (share (fun w _ -> w = p))) Spec.programs;
  set r "core.busy_share.llfi" (share (fun _ t -> t = Core.Campaign.Llfi_tool));
  let tally f = List.fold_left (fun a (t : Core.Verdict.tally) -> a + f t) 0 lay.tallies in
  let trials = tally (fun t -> t.trials) in
  set r "core.activated_frac"
    (ratio (trials - tally (fun t -> t.not_activated + t.not_injected)) trials);
  set r "vm.hang_frac" (ratio (tally (fun t -> t.hang)) trials);
  let both k = counter lay ("vm.ir." ^ k) + counter lay ("vm.x86." ^ k) in
  let steps = both "run_steps.sum" in
  set r "vm.steps" (float_of_int steps);
  set r "vm.ff_trials" (float_of_int (both "ff_trials"));
  set r "vm.ff_rebuilds" (float_of_int (both "ff_rebuilds"));
  set r "vm.prefix_steps" (float_of_int lay.prefix_steps);
  set r "vm.post_fault_steps" (float_of_int lay.post_steps);
  if steps > 0 then set r "vm.ns_per_step" (lay.domain_s *. 1e9 /. float_of_int steps);
  if lay.busy <> [] then begin
    set r "engine.busy_frac" (Gate.median lay.busy);
    set r "engine.tail_frac" (Gate.median lay.tail)
  end;
  let hits = counter lay "engine.runner_cache.hits" in
  set r "engine.runner_cache_hit_frac"
    (ratio hits (hits + counter lay "engine.runner_cache.misses"))

(* ------------------------------------------------------------------ *)
(* Shared steps                                                        *)

(* The median of [n] whole set-ups, each timed on its own; returns every
   set-up's result, oldest first. *)
let setup r ~n f =
  let runs =
    List.init n (fun k -> Spans.span ~req:(string_of_int k) "setup" (fun () -> timed f))
  in
  set r "setup_s" (Gate.median (List.map snd runs));
  List.map fst runs

(* Campaign.prepare and record_rejoin with each layer timed on its own:
   the calls prepare makes, in its order, on its default config. *)
let layer_names =
  [
    "minic.compile_s";
    "opt.optimize_s";
    "backend.compile_s";
    "core.llfi_prepare_s";
    "core.pinfi_prepare_s";
    "core.record_rejoin_s";
  ]

let layer_breakdown o r programs =
  let config = Core.Campaign.default_config in
  let once k =
    let acc = Hashtbl.create 8 in
    Spans.span ~req:(string_of_int k) "setup" (fun () ->
        List.iter
          (fun (w : Core.Workload.t) ->
            let step name f =
              Spans.span ~req:w.name name (fun () ->
                  let v, dt = timed f in
                  Hashtbl.replace acc name (dt +. Option.value (Hashtbl.find_opt acc name) ~default:0.);
                  v)
            in
            let ir = step "minic.compile_s" (fun () -> Minic.compile w.source) in
            let prog = step "opt.optimize_s" (fun () -> Opt.optimize ir) in
            let asm = step "backend.compile_s" (fun () -> Backend.compile ~config:config.backend prog) in
            let llfi =
              step "core.llfi_prepare_s" (fun () ->
                  Core.Llfi.prepare ~config:config.llfi ~compile:config.compile ~inputs:w.inputs prog)
            in
            let pinfi =
              step "core.pinfi_prepare_s" (fun () ->
                  Core.Pinfi.prepare ~config:config.pinfi ~compile:config.compile ~inputs:w.inputs
                    asm)
            in
            verify r (llfi.golden_output = pinfi.golden_output) "%s: golden outputs differ" w.name;
            let p = { Core.Campaign.workload = w; prog; asm; llfi; pinfi } in
            ignore (step "core.record_rejoin_s" (fun () -> Core.Campaign.record_rejoin p)))
          programs);
    acc
  in
  let runs = List.init (reps o 3) once in
  List.iter
    (fun name -> set r name (Gate.median (List.map (fun acc -> Hashtbl.find acc name) runs)))
    layer_names

(* Runs op 0, 1, ... for the measuring window: a new op starts only
   while the previous one would still end inside it, and at least
   [min_ops] run (exactly that many in a smoke run).  Returns the
   process's CPU share over the window. *)
let window o ~min_ops op =
  let t0 = now () and c0 = cpu () in
  let rec go k last =
    let fits = now () -. t0 +. last <= o.seconds in
    if k < min_ops || ((not o.size.smoke) && fits) then begin
      (* each op starts from a compacted heap, as a fresh process would *)
      Gc.compact ();
      let (), dt = timed (fun () -> op k) in
      go (k + 1) dt
    end
  in
  go 0 0.;
  (cpu () -. c0) /. (now () -. t0)

let cell_name (c : Core.Campaign.cell) =
  Printf.sprintf "%s/%s/%s" c.c_workload (tool_name c.c_tool) (Core.Category.name c.c_category)

(* Recompute cells on the sequential reference path (a fresh prepare,
   a fresh runner, no rejoin journal, no pool); they must be identical. *)
let reference_check r config cells =
  List.iter
    (fun (c : Core.Campaign.cell) ->
      let p = Core.Campaign.prepare config (Workloads.find_exn c.c_workload) in
      verify r
        (Core.Campaign.run_cell config p c.c_tool c.c_category = c)
        "%s differs from the sequential reference path" (cell_name c))
    cells

let check_pin r o =
  match
    Pinned.find ~workload:o.workload ~size:(if o.size.smoke then "smoke" else "full") ~seed:o.seed
  with
  | Some d -> verify r (d = r.digest) "output digest %s, pinned %s" r.digest d
  | None -> ()

let tallies cells = List.map (fun (c : Core.Campaign.cell) -> c.c_tally) cells

(* Trials actually run: a cell with an empty population runs none. *)
let trials_of cells = List.fold_left (fun a (c : Core.Campaign.cell) -> a + c.c_tally.trials) 0 cells

(* The seed of op k.  Untraced ops each get their own, so one run
   averages over several campaigns.  A traced run's ops come in pairs
   (2p, 2p + 1) that share a seed, one of them traced (U T T U ...). *)
let op_seed o k = o.seed + (1000 * if o.traced then k / 2 else k)

(* Op 0 runs on the run's own seed: its output is the one pinned, and the
   memory high-water mark after it is what a process running one op
   (after set-up) needs; later ops only inherit that heap. *)
let first_op r out =
  r.digest <- md5 out;
  set r "peak_rss_mb" (Load.peak_rss_mb None)

(* The two ops of a traced pair must produce identical outputs. *)
let check_pair r o k prev out =
  if o.traced && k mod 2 = 1 then verify r (out = !prev) "traced and untraced op %d differ" k;
  prev := out

(* ------------------------------------------------------------------ *)
(* paper-grid: one grid campaign per op, as [fi campaign --jobs 2]      *)

let paper_grid o r lay =
  let trials = o.size.grid_trials in
  let config k = { Core.Campaign.default_config with trials; seed = op_seed o k } in
  if o.traced then layer_breakdown o r Workloads.all
  else
    ignore
      (setup r ~n:(reps o 3) (fun () ->
           List.iter
             (fun w -> ignore (Core.Campaign.record_rejoin (Core.Campaign.prepare (config 0) w)))
             Workloads.all));
  let plain = ref [] and traced = ref [] and run_trials = ref 0 and prev = ref "" in
  let cpu_frac =
    window o ~min_ops:(if o.traced then 2 else 1) (fun k ->
        let tr = o.traced && abba k in
        let res, dt =
          run_op lay ~traced:tr ~req:(Printf.sprintf "grid-%d" k) "engine.scheduler_run"
            (fun observe -> Engine.Scheduler.run ~jobs:2 ?observe (config k) Workloads.all)
        in
        let cells = res.Engine.Scheduler.cells in
        if tr then begin
          traced := dt :: !traced;
          lay.tallies <- tallies cells @ lay.tallies;
          lay.domain_s <- lay.domain_s +. (2. *. dt)
        end
        else begin
          plain := dt :: !plain;
          run_trials := !run_trials + trials_of cells
        end;
        let csv = Core.Campaign.to_csv cells in
        if k = 0 then first_op r csv;
        check_pair r o k prev csv;
        reference_check r (config k) [ List.nth cells (abs (o.seed + (7 * k)) mod List.length cells) ])
  in
  check_pin r o;
  set r "trials_per_s" (float_of_int !run_trials /. sum !plain);
  op_latency r !plain;
  set r "loadgen.cpu_frac" cpu_frac;
  if o.traced then set r "trace.overhead_frac" (overhead ~traced:!traced ~plain:!plain)

(* ------------------------------------------------------------------ *)
(* inject-sweep: one [fi inject -n 50] call per cell, all 60 per op     *)

let sweep_cells =
  Array.of_list
    (List.concat_map
       (fun w ->
         List.concat_map (fun t -> List.map (fun c -> (w, t, c)) Core.Category.all) both_tools)
       Workloads.all)

(* Σ over cells of median a ÷ Σ over the same cells of median b − 1 *)
let cell_overhead a b =
  let pairs =
    List.filter (fun (x, y) -> x <> [] && y <> []) (Array.to_list (Array.map2 (fun x y -> (x, y)) a b))
  in
  (sum (List.map (fun (x, _) -> Gate.median x) pairs)
  /. sum (List.map (fun (_, y) -> Gate.median y) pairs))
  -. 1.

let inject_sweep o r lay =
  let trials = o.size.sweep_trials in
  let config k = { Core.Campaign.default_config with trials; seed = op_seed o k } in
  if o.traced then layer_breakdown o r Workloads.all
  else
    ignore
      (setup r ~n:(reps o 5) (fun () ->
           List.iter (fun w -> ignore (Core.Campaign.prepare (config 0) w)) Workloads.all));
  let n = Array.length sweep_cells in
  let plain = Array.make n [] and traced = Array.make n [] and direct = Array.make n [] in
  let run_trials = ref 0 and prev = ref "" in
  let cpu_frac =
    window o ~min_ops:(if o.traced then 2 else 1) (fun k ->
        let tr = o.traced && abba k in
        let config = config k in
        let swept =
          Array.mapi
            (fun i (w, tool, cat) ->
              let req =
                Printf.sprintf "%s/%s/%s" w.Core.Workload.name (tool_name tool) (Core.Category.name cat)
              in
              let res, dt =
                run_op lay ~traced:tr ~req "engine.scheduler_run" (fun observe ->
                    Engine.Scheduler.run ~jobs:1 ~tools:[ tool ] ~categories:[ cat ] ?observe config [ w ])
              in
              let cell = List.hd res.Engine.Scheduler.cells in
              if tr then begin
                traced.(i) <- dt :: traced.(i);
                lay.tallies <- cell.c_tally :: lay.tallies;
                lay.domain_s <- lay.domain_s +. dt;
                (* the same work without the engine, which is also the
                   reference path the cell must agree with *)
                let c, ds =
                  Spans.span ~req "direct.prepare_run_cell" (fun () ->
                      timed (fun () ->
                          Core.Campaign.run_cell config (Core.Campaign.prepare config w) tool cat))
                in
                verify r (c = cell) "%s differs from the direct reference path" req;
                direct.(i) <- ds :: direct.(i)
              end
              else begin
                plain.(i) <- dt :: plain.(i);
                run_trials := !run_trials + trials_of [ cell ]
              end;
              cell)
            sweep_cells
        in
        let csv = String.concat "" (Array.to_list (Array.map (fun c -> Core.Campaign.to_csv [ c ]) swept)) in
        if k = 0 then first_op r csv;
        check_pair r o k prev csv;
        if not o.traced then reference_check r config [ swept.(abs (o.seed + (7 * k)) mod n) ])
  in
  check_pin r o;
  let calls = List.concat (Array.to_list plain) in
  set r "trials_per_s" (float_of_int !run_trials /. sum calls);
  op_latency r calls;
  set r "loadgen.cpu_frac" cpu_frac;
  if o.traced then begin
    set r "engine.overhead_frac" (cell_overhead plain direct);
    set r "trace.overhead_frac" (cell_overhead traced plain)
  end

(* ------------------------------------------------------------------ *)
(* exact-cells: both exact cells per op, as two [fi exhaust --jobs 2]   *)

let exact_specs sz =
  [
    ("arith", Core.Campaign.Llfi_tool, Core.Category.Arithmetic, sz.arith_bound);
    ("cmp", Core.Campaign.Pinfi_tool, Core.Category.Cmp, sz.cmp_bound);
  ]

(* enumerated = dead + masked + equiv + survivors, every survivor executed
   when the cell is exact, at most [bound] when it was sampled. *)
let exact_identity (e : Core.Campaign.exact_cell) ~bound =
  let survivors = e.e_enumerated - e.e_pruned_dead - e.e_pruned_masked - e.e_pruned_equiv in
  survivors >= 0
  && e.e_tally.trials = e.e_population * e.e_unit
  &&
  if e.e_bound = 0. then e.e_executed = survivors
  else bound > 0 && e.e_executed <= bound && survivors > bound

let exact_cells o r lay =
  let mcf = Workloads.mcf in
  let start () =
    (Core.Campaign.prepare Core.Campaign.default_config mcf, Engine.Pool.create ~size:2 ())
  in
  let p, pool =
    if o.traced then begin
      layer_breakdown o r [ mcf ];
      start ()
    end
    else
      match List.rev (setup r ~n:(reps o 25) start) with
      | last :: older ->
        List.iter (fun (_, pool) -> Engine.Pool.shutdown pool) older;
        last
      | [] -> assert false
  in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  let specs = exact_specs o.size in
  let config k bound = { Exhaust.prune = true; sample_bound = bound; seed = op_seed o k } in
  let plain = ref [] and traced = ref [] and executed = ref 0 and prev = ref "" in
  let first = ref [] and exact = ref "" in
  let cell_s = Hashtbl.create 2 in
  let cpu_frac =
    window o ~min_ops:(if o.traced then 2 else 1) (fun k ->
        let tr = o.traced && abba k in
        let cells, dt =
          run_op lay ~traced:tr ~req:(Printf.sprintf "exact-%d" k) "exhaust.cells" (fun _ ->
              List.map
                (fun (name, tool, cat, bound) ->
                  let e, ds =
                    Spans.span ~req:name "exhaust.run_cell" (fun () ->
                        timed (fun () -> Exhaust.run_cell ~pool (config k bound) p tool cat))
                  in
                  if tr then begin
                    Hashtbl.replace cell_s name (ds :: Option.value (Hashtbl.find_opt cell_s name) ~default:[]);
                    lay.cells <- ("mcf", tool, ds) :: lay.cells;
                    lay.tallies <- e.e_tally :: lay.tallies
                  end;
                  e)
                specs)
        in
        List.iter2
          (fun (name, _, _, bound) e ->
            verify r (exact_identity e ~bound) "%s cell breaks the accounting identity" name)
          specs cells;
        if tr then begin
          traced := dt :: !traced;
          lay.domain_s <- lay.domain_s +. (2. *. dt)
        end
        else begin
          plain := dt :: !plain;
          executed := !executed + List.fold_left (fun a (e : Core.Campaign.exact_cell) -> a + e.e_executed) 0 cells
        end;
        let csv = Core.Campaign.exact_to_csv cells in
        check_pair r o k prev csv;
        (* a fully exact cell does not depend on the seed at all *)
        let exact_csv =
          Core.Campaign.exact_to_csv (List.filter (fun (e : Core.Campaign.exact_cell) -> e.e_bound = 0.) cells)
        in
        if k = 0 then begin
          first_op r csv;
          first := cells;
          exact := exact_csv
        end
        else verify r (exact_csv = !exact) "exact cells of op %d differ from op 0" k)
  in
  check_pin r o;
  (* sharding is invisible: op 0's sampled cells again, on no pool *)
  List.iter2
    (fun (name, tool, cat, bound) (e : Core.Campaign.exact_cell) ->
      if e.e_bound > 0. then
        verify r (Exhaust.run_cell (config 0 bound) p tool cat = e) "%s cell differs without a pool" name)
    specs !first;
  set r "trials_per_s" (float_of_int !executed /. sum !plain);
  op_latency r !plain;
  set r "loadgen.cpu_frac" cpu_frac;
  if o.traced then begin
    set r "trace.overhead_frac" (overhead ~traced:!traced ~plain:!plain);
    List.iter2
      (fun (name, tool, cat, _) (e : Core.Campaign.exact_cell) ->
        let m k v = set r (Printf.sprintf "exhaust.%s.%s" k name) v in
        let enum_s =
          snd (Spans.span ~req:name "core.enumerate" (fun () -> timed (fun () -> Core.Campaign.enumerate p tool cat)))
        in
        let run_s = Gate.median (Hashtbl.find cell_s name) in
        m "enumerated" (float_of_int e.e_enumerated);
        m "executed" (float_of_int e.e_executed);
        m "covered_per_executed" (ratio e.e_enumerated e.e_executed);
        m "settled_frac" (ratio (e.e_pruned_dead + e.e_pruned_masked + e.e_pruned_equiv) e.e_enumerated);
        m "enumerate_share" (enum_s /. run_s);
        if run_s > enum_s then m "replays_per_s" (float_of_int e.e_executed /. (run_s -. enum_s)))
      specs !first
  end

(* ------------------------------------------------------------------ *)
(* serve-burst: a closed loop of small jobs against a service child    *)

let serve_job ~seed workload =
  {
    Serve.Wire.j_workload = workload;
    j_tools = both_tools;
    j_categories = Core.Category.all;
    j_model = Core.Fault_model.Bitflip;
    j_trials = 4;
    j_seed = seed;
    j_out = None;
  }

(* Job i of a burst and the job it repeats (itself if fresh): the six
   programs in turn with fresh seeds, except that every 4th job resubmits
   an earlier fresh one at random.  Must be asked for in order. *)
let burst_specs o =
  let rng = Random.State.make [| o.seed |] in
  let made = Hashtbl.create 1024 in
  fun i ->
    let origin =
      if i mod 4 <> 3 then i
      else
        let e = Random.State.int rng i in
        if e mod 4 = 3 then e - 1 else e
    in
    let job =
      if origin = i then serve_job ~seed:(o.seed + 1 + i) (List.nth Spec.programs (i mod 6))
      else Hashtbl.find made origin
    in
    Hashtbl.replace made i job;
    (job, origin)

(* The digest an offline campaign of the same spec produces. *)
let offline_digest cache (job : Serve.Wire.job) =
  let p =
    match Hashtbl.find_opt cache job.j_workload with
    | Some p -> p
    | None ->
      let p = Core.Campaign.prepare Core.Campaign.default_config (Workloads.find_exn job.j_workload) in
      Hashtbl.replace cache job.j_workload p;
      p
  in
  let config =
    Serve.Plan.config_for ~base:Core.Campaign.default_config ~model:job.j_model
      ~trials:job.j_trials ~seed:job.j_seed
  in
  md5
    (Core.Campaign.to_csv
       (List.concat_map
          (fun tool -> List.map (fun cat -> Core.Campaign.run_cell config p tool cat) job.j_categories)
          job.j_tools))

let digest_exn (j : Load.job_result) = match j.digest with Ok d -> d | Error _ -> ""
let latency (j : Load.job_result) = j.finish -. j.send

let serve_burst o r lay =
  let spawned = ref 0 in
  (* Spawn a service child, connect twice, and finish one warm-up job per
     program: what a user waits for before the service is warm. *)
  let start ~traced =
    let dir = Filename.concat o.dir (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) !spawned) in
    incr spawned;
    let child = Load.spawn ~dir ~traced in
    let conns = [ Load.connect child.socket; Load.connect child.socket ] in
    let warm = ref (List.mapi (fun k w -> (k, serve_job ~seed:o.seed w)) Spec.programs) in
    Load.closed_loop conns
      ~next:(fun () ->
        match !warm with
        | x :: rest ->
          warm := rest;
          Some x
        | [] -> None)
      ~on_done:(fun j ->
        match j.digest with
        | Ok _ -> ()
        | Error e -> verify r false "warm-up job on %s: %s" j.job.j_workload e);
    (child, conns)
  in
  (* One closed-loop burst; the server drains and exits afterwards. *)
  let burst (child, conns) ~seconds =
    let spec = burst_specs o in
    let results = ref [] and n = ref 0 in
    let t0 = now () and c0 = cpu () in
    Load.closed_loop conns
      ~next:(fun () ->
        let more =
          !n < o.size.pin_jobs || ((not o.size.smoke) && now () -. t0 < seconds)
        in
        if more then begin
          let i = !n in
          incr n;
          Some (i, fst (spec i))
        end
        else None)
      ~on_done:(fun j -> results := j :: !results);
    let wall = now () -. t0 in
    let cpu_frac = (cpu () -. c0) /. wall in
    let rss = Load.peak_rss_mb (Some child.Load.pid) in
    let metrics = Load.shutdown child conns in
    let jobs = List.sort (fun (a : Load.job_result) b -> compare a.idx b.idx) !results in
    List.iter
      (fun (j : Load.job_result) ->
        let req = string_of_int j.idx in
        Spans.add ~tid:0 ~req "serve.ack" j.send j.ack;
        Spans.add ~tid:0 ~req "serve.first_batch" j.ack j.first;
        Spans.add ~tid:0 ~req "serve.stream" j.first j.finish)
      jobs;
    (jobs, wall, cpu_frac, rss, metrics)
  in
  let server =
    if o.traced then begin
      layer_breakdown o r Workloads.all;
      start ~traced:false
    end
    else
      match List.rev (setup r ~n:(reps o 3) (fun () -> start ~traced:false)) with
      | last :: older ->
        List.iter (fun (child, conns) -> ignore (Load.shutdown child conns)) older;
        last
      | [] -> assert false
  in
  let seconds = if o.traced then o.seconds /. 2. else o.seconds in
  let jobs, wall, cpu_frac, rss, _ = burst server ~seconds in
  (* correctness: every job streamed consistently, repeats agree with the
     job they repeat, every 50th job matches an offline campaign *)
  let spec = burst_specs o in
  let by_idx = Array.of_list jobs in
  Array.iter
    (fun (j : Load.job_result) ->
      let _, origin = spec j.idx in
      (match j.digest with
      | Ok _ -> verify r true "job %d" j.idx
      | Error e -> verify r false "job %d (%s): %s" j.idx j.job.j_workload e);
      if origin <> j.idx then
        verify r (digest_exn j = digest_exn by_idx.(origin)) "job %d differs from job %d it repeats" j.idx origin)
    by_idx;
  let cache = Hashtbl.create 8 in
  Array.iter
    (fun (j : Load.job_result) ->
      if j.idx mod 50 = 0 then
        verify r (digest_exn j = offline_digest cache j.job) "job %d differs from the offline campaign" j.idx)
    by_idx;
  let pinned = List.filteri (fun i _ -> i < o.size.pin_jobs) jobs in
  verify r (List.length pinned = o.size.pin_jobs) "fewer than %d jobs completed" o.size.pin_jobs;
  r.digest <- md5 (String.concat "\n" (List.map digest_exn pinned));
  check_pin r o;
  let served = List.concat_map (fun (j : Load.job_result) -> List.map fst j.cells) jobs in
  set r "trials_per_s" (float_of_int (trials_of served) /. wall);
  op_latency r (List.map latency jobs);
  set r "peak_rss_mb" rss;
  set r "loadgen.cpu_frac" cpu_frac;
  if o.traced then begin
    let tjobs, twall, _, _, metrics = burst (start ~traced:true) ~seconds in
    Array.iteri
      (fun i (j : Load.job_result) ->
        if i < Array.length by_idx then
          verify r (digest_exn j = digest_exn by_idx.(i)) "traced job %d differs from untraced" i)
      (Array.of_list tjobs);
    Option.iter (add_json lay) metrics;
    lay.domain_s <- 2. *. twall;
    List.iter
      (fun (j : Load.job_result) ->
        List.iter
          (fun ((c : Core.Campaign.cell), t) ->
            lay.cells <- (c.c_workload, c.c_tool, t -. j.ack) :: lay.cells;
            lay.tallies <- c.c_tally :: lay.tallies)
          j.cells)
      tjobs;
    let med f = Gate.median (List.map (fun j -> f j /. latency j) tjobs) in
    set r "serve.ack_share" (med (fun j -> j.Load.ack -. j.Load.send));
    set r "serve.first_batch_share" (med (fun j -> j.Load.first -. j.Load.ack));
    set r "serve.stream_share" (med (fun j -> j.Load.finish -. j.Load.first));
    let mean f = ratio (List.fold_left (fun a j -> a + f j) 0 tjobs) (List.length tjobs) in
    set r "serve.batches_per_job" (mean (fun j -> j.Load.batches));
    set r "serve.bytes_per_job" (mean (fun j -> j.Load.bytes));
    let c k = counter lay ("serve." ^ k) in
    set r "serve.cells_shared" (float_of_int (c "cells.shared"));
    set r "serve.runner_cache_hit_frac" (ratio (c "runner_cache.hits") (c "runner_cache.hits" + c "runner_cache.misses"));
    set r "serve.prepared_cache_misses" (float_of_int (c "prepared_cache.misses"));
    set r "serve.journal_flushes" (float_of_int (c "journal.flushes"));
    set r "trace.overhead_frac"
      (overhead ~traced:(List.map latency tjobs) ~plain:(List.map latency jobs))
  end

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)

let workloads =
  [
    ("paper-grid", paper_grid);
    ("inject-sweep", inject_sweep);
    ("exact-cells", exact_cells);
    ("serve-burst", serve_burst);
  ]

let git_rev () =
  let read p = try Some (String.trim (Load.read_file p)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " ->
    let ref_ = String.sub head 5 (String.length head - 5) in
    Option.value (read (Filename.concat ".git" ref_)) ~default:ref_
  | Some hash -> hash
  | None -> "unknown"

let provenance o =
  Obs.Json.(
    Obj
      [
        ("nproc", Int (Domain.recommended_domain_count ()));
        ("ocaml", Str Sys.ocaml_version);
        ("git_rev", Str (git_rev ()));
        ("seed", Int o.seed);
        ("domains", Int (if o.workload = "inject-sweep" then 1 else 2));
        ("fresh_process", Bool true);
        ("size", Str (if o.size.smoke then "smoke" else "full"));
        ("seconds", Float o.seconds);
      ])

(* The last stdout line: exactly correct, attempted, failed and the
   metrics of the run's kind.  --out adds what [all] and [compare] need. *)
let emit o r ~started =
  let specs = if o.traced then Spec.per_layer else Spec.end_to_end in
  if not o.traced then
    List.iter
      (fun (m : Spec.metric) -> verify r (Hashtbl.mem r.values m.name) "%s was not measured" m.name)
      specs;
  let value name =
    match Hashtbl.find_opt r.values name with Some v when Float.is_finite v -> v | _ -> 0.
  in
  let metrics =
    Obs.Json.Obj
      (List.map
         (fun (m : Spec.metric) ->
           (m.name, Obs.Json.Obj [ ("value", Float (value m.name)); ("unit", Str m.unit_) ]))
         specs)
  in
  let correct = r.failed = 0 in
  let head =
    Obs.Json.
      [
        ("correct", Bool correct);
        ("attempted", Int r.attempted);
        ("failed", Int r.failed);
        ("metrics", metrics);
      ]
  in
  Option.iter
    (fun path ->
      Load.mkdir_p (Filename.dirname path);
      Load.write_file path
        (Obs.Json.to_string
           (Obj
              (head
              @ [
                  ("workload", Str o.workload);
                  ("traced", Bool o.traced);
                  ("output_digest", Str r.digest);
                  ("started_at", Float started);
                  ("provenance", provenance o);
                ]))
        ^ "\n"))
    o.out;
  print_endline (Obs.Json.to_string (Obj head));
  correct

let run o =
  Load.mkdir_p o.dir;
  Spans.on := o.traced;
  let started = Unix.gettimeofday () in
  let r = { attempted = 0; failed = 0; digest = ""; values = Hashtbl.create 64 } in
  let lay =
    {
      counters = Hashtbl.create 64;
      cells = [];
      tallies = [];
      prefix_steps = 0;
      post_steps = 0;
      busy = [];
      tail = [];
      domain_s = 0.;
    }
  in
  (match (List.assoc o.workload workloads) o r lay with
  | () -> if o.traced then layer_metrics r lay
  | exception e ->
    Load.stop_all ();
    verify r false "%s: %s" o.workload (Printexc.to_string e));
  if o.traced then begin
    let path = Filename.concat o.dir (Printf.sprintf "trace-%s-s%d.json" o.workload o.seed) in
    Spans.write path;
    Printf.eprintf "e2e: Chrome trace written to %s\n%!" path
  end;
  exit (if emit o r ~started then 0 else 1)

(* Each workload in a fresh child process, one after another; prints
   every metric as "workload name value unit". *)
let all ~seed ~seconds ~traced ~size ~dir =
  let exe = Sys.executable_name in
  let ok = ref true in
  List.iter
    (fun (w, _) ->
      let digests =
        List.map
          (fun tr ->
            let out =
              Filename.concat dir
                (Printf.sprintf "%s-s%d-%s-%d.json" w seed (if tr then "traced" else "plain") (Unix.getpid ()))
            in
            let args =
              [ exe; "run"; "--workload"; w; "--seed"; string_of_int seed; "--seconds";
                Printf.sprintf "%g" seconds; "--trace"; (if tr then "1" else "0"); "--dir"; dir;
                "--out"; out ]
              @ if size.smoke then [ "--smoke" ] else []
            in
            let null = Unix.openfile "/dev/null" [ O_WRONLY ] 0 in
            let pid = Unix.create_process exe (Array.of_list args) Unix.stdin null Unix.stderr in
            Unix.close null;
            (match Unix.waitpid [] pid with
            | _, WEXITED 0 -> ()
            | _ ->
              ok := false;
              Printf.printf "%s: the %s run failed\n" w (if tr then "traced" else "untraced"));
            match Obs.Json.of_string (Load.read_file out) with
            | res ->
              (match Obs.Json.member "metrics" res with
              | Some (Obj ms) ->
                List.iter
                  (fun (name, v) ->
                    match (Obs.Json.member "value" v, Obs.Json.member "unit" v) with
                    | Some (Float x), Some (Str u) -> Printf.printf "%-13s %-36s %14.6g %s\n" w name x u
                    | _ -> ())
                  ms
              | _ -> ());
              (match Obs.Json.member "output_digest" res with
              | Some (Str d) ->
                Printf.printf "%-13s %-36s %14s %s\n%!" w "digest" d (if size.smoke then "smoke" else "full");
                d
              | _ -> "")
            | exception (Sys_error _ | Failure _) ->
              ok := false;
              "")
          (if traced then [ false; true ] else [ false ])
      in
      match digests with
      | [ plain; traced ] when plain <> traced ->
        ok := false;
        Printf.printf "%s: traced and untraced outputs differ\n%!" w
      | _ -> ())
    Spec.workloads;
  exit (if !ok then 0 else 1)

let load_samples dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.filter_map (fun f ->
         let j = Obs.Json.of_string (Load.read_file (Filename.concat dir f)) in
         let get k = Obs.Json.member k j in
         match (get "traced", get "workload", get "started_at") with
         | Some (Bool false), Some (Str w), Some (Float t) ->
           let int k = match get k with Some (Int n) -> n | _ -> 0 in
           let metrics =
             match get "metrics" with
             | Some (Obj ms) ->
               List.filter_map
                 (fun (name, v) ->
                   match Obs.Json.member "value" v with Some (Float x) -> Some (name, x) | _ -> None)
                 ms
             | _ -> []
           in
           Some
             ( t,
               {
                 Gate.s_workload = w;
                 s_correct = get "correct" = Some (Bool true);
                 s_attempted = int "attempted";
                 s_failed = int "failed";
                 s_metrics = metrics;
               } )
         | _ -> None)
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let compare_dirs parent change =
  let rows, problems =
    Gate.compare_runs ~parent:(load_samples parent) ~change:(load_samples change)
  in
  let q xs = let q1, q2, q3 = Gate.quartiles xs in Printf.sprintf "%.5g [%.5g, %.5g]" q2 q1 q3 in
  Printf.printf "%-13s %-13s %-10s %-32s %-32s %-6s %s\n" "workload" "metric" "verdict"
    "parent median [q1, q3]" "change median [q1, q3]" "wins" "worse";
  List.iter
    (fun (row : Gate.row) ->
      Printf.printf "%-13s %-13s %-10s %-32s %-32s %2d/%-3d %+.1f%%\n" row.workload row.metric.name
        (Gate.verdict_name row.verdict) (q row.parent) (q row.change) row.wins
        (List.length row.parent) (100. *. row.worse))
    rows;
  List.iter (fun p -> Printf.printf "problem: %s\n" p) problems;
  exit (if problems = [] then 0 else 1)

let usage () =
  prerr_string
    "usage: e2e.exe run --workload W [--seed S] [--seconds T] [--trace 0|1] [--smoke] [--dir D] [--out FILE]\n\
    \       e2e.exe all [--seed S] [--seconds T] [--traced] [--smoke] [--dir D]\n\
    \       e2e.exe compare PARENT_DIR CHANGE_DIR\n";
  exit 2

let () =
  let flags args =
    let rec go acc = function
      | ("--traced" | "--smoke") as f :: rest -> go ((f, "1") :: acc) rest
      | f :: v :: rest
        when List.mem f [ "--workload"; "--seed"; "--seconds"; "--trace"; "--dir"; "--out" ] ->
        go ((f, v) :: acc) rest
      | [] -> acc
      | a :: _ ->
        Printf.eprintf "e2e: unexpected argument %s\n" a;
        usage ()
    in
    let l = go [] args in
    let get f d = Option.value (List.assoc_opt f l) ~default:d in
    let num conv f d =
      match conv (get f d) with
      | Some n -> n
      | None ->
        Printf.eprintf "e2e: %s expects a number\n" f;
        usage ()
    in
    let size = if List.mem_assoc "--smoke" l then smoke else full in
    {
      workload = get "--workload" "";
      seed = num int_of_string_opt "--seed" "2014";
      seconds = num float_of_string_opt "--seconds" (if size.smoke then "1" else "20");
      traced = List.mem_assoc "--traced" l || get "--trace" "0" = "1";
      size;
      dir = get "--dir" "bench/e2e/_out";
      out = List.assoc_opt "--out" l;
    }
  in
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args ->
    let o = flags args in
    if not (List.mem_assoc o.workload workloads) then begin
      Printf.eprintf "e2e: unknown workload %S\n" o.workload;
      usage ()
    end;
    run o
  | "all" :: args ->
    let o = flags args in
    all ~seed:o.seed ~seconds:o.seconds ~traced:o.traced ~size:o.size ~dir:o.dir
  | [ "compare"; parent; change ] -> compare_dirs parent change
  | [ "serve-child"; dir; traced ] -> Load.serve_child ~dir ~traced:(traced = "1")
  | _ -> usage ()
