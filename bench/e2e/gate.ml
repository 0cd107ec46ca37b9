(* Order statistics and the rule that decides whether a change improved,
   kept or regressed each end-to-end metric.  Pure: e2e.ml does the I/O. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Python's statistics.median. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Gate.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's statistics.quantiles(xs, n=4), default "exclusive" method,
   so a spread computed here equals the one Python tooling computes. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Gate.quartiles: needs at least 2 samples";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
  in
  (q 1, q 2, q 3)

(* Percentile [p] in [0, 100] by linear interpolation between the
   closest ranks; with one sample, that sample. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Gate.percentile: no samples";
  let pos = p /. 100. *. float_of_int (n - 1) in
  let lo = truncate pos in
  if lo >= n - 1 then a.(n - 1)
  else a.(lo) +. ((a.(lo + 1) -. a.(lo)) *. (pos -. float_of_int lo))

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0. then 0. else (q3 -. q1) /. Float.abs q2

type verdict = Improved | No_worse | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | No_worse -> "no-worse"
  | Regressed -> "REGRESSED"
  | Unresolved -> "unresolved"

type row = {
  workload : string;
  metric : Spec.metric;
  parent : float list;
  change : float list;
  wins : int;  (** pairs the change reads strictly better in *)
  worse : float;  (** how much worse the change's median is, as a share of the parent's *)
  verdict : verdict;
}

let min_pairs = 10

(* The rule for one (metric, workload), over pairs run alternately:
   - improved: the change wins at least 9 of 10 pairs and its median is
     better by more than the parent's interquartile range;
   - unresolved: either side's spread exceeds the bound, unless every
     change run reads better than every parent run (no worse) or every
     one reads worse by more than the bound (regressed);
   - otherwise the bound decides between no worse and regressed. *)
let judge ~workload (m : Spec.metric) ~parent ~change =
  let n = List.length parent in
  if n <> List.length change then invalid_arg "Gate.judge: unpaired samples";
  let better a b = match m.better with Lower -> a < b | Higher -> a > b in
  let wins = List.length (List.filter Fun.id (List.map2 better change parent)) in
  let pm = median parent and cm = median change in
  let q1, _, q3 = quartiles parent in
  let gain = match m.better with Lower -> pm -. cm | Higher -> cm -. pm in
  let worse =
    if pm <> 0. then -.gain /. Float.abs pm
    else if gain < 0. then infinity
    else 0.
  in
  let all_runs rel = List.for_all (fun c -> List.for_all (rel c) parent) change in
  let verdict =
    if wins * 10 >= 9 * n && gain > q3 -. q1 then Improved
    else if Float.max (spread parent) (spread change) > m.bound then
      if all_runs better then No_worse
      else if worse > m.bound && all_runs (fun c p -> better p c) then Regressed
      else Unresolved
    else if worse > m.bound then Regressed
    else No_worse
  in
  { workload; metric = m; parent; change; wins; worse; verdict }

(* One run of one workload, as its result file records it. *)
type sample = {
  s_workload : string;
  s_correct : bool;
  s_attempted : int;
  s_failed : int;
  s_metrics : (string * float) list;
}

let failed_frac samples =
  let a = List.fold_left (fun acc s -> acc + s.s_attempted) 0 samples in
  let f = List.fold_left (fun acc s -> acc + s.s_failed) 0 samples in
  if a = 0 then 1. else float_of_int f /. float_of_int a

(* Both lists hold each workload's runs in the order they were made;
   the i-th parent run of a workload pairs with its i-th change run.
   Returns a row per (workload, end-to-end metric) and the problems that
   make the comparison fail: too few pairs, a missing metric, an
   incorrect run on the change side, or a rise in failed_frac. *)
let compare_runs ~parent ~change =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let of_workload w l = List.filter (fun s -> s.s_workload = w) l in
  let rows =
    List.concat_map
      (fun (w, _) ->
        let ps = of_workload w parent and cs = of_workload w change in
        let n = min (List.length ps) (List.length cs) in
        if List.length ps <> List.length cs || n < min_pairs then begin
          problem "%s: %d parent and %d change runs; need %d or more pairs" w
            (List.length ps) (List.length cs) min_pairs;
          []
        end
        else begin
          if List.exists (fun s -> not s.s_correct) cs then
            problem "%s: a change run reported incorrect output" w;
          let fp = failed_frac ps and fc = failed_frac cs in
          if fc > fp then problem "%s: failed_frac rose from %g to %g" w fp fc;
          List.filter_map
            (fun (m : Spec.metric) ->
              let values l =
                List.filter_map (fun s -> List.assoc_opt m.name s.s_metrics) l
              in
              let pv = values ps and cv = values cs in
              if List.length pv <> n || List.length cv <> n then begin
                problem "%s: metric %s missing from some runs" w m.name;
                None
              end
              else Some (judge ~workload:w m ~parent:pv ~change:cv))
            Spec.end_to_end
        end)
      Spec.workloads
  in
  List.iter
    (fun r ->
      if r.verdict = Regressed then
        problem "%s: %s regressed by %.1f%% (bound %.0f%%)" r.workload r.metric.name
          (100. *. r.worse) (100. *. r.metric.bound))
    rows;
  (rows, List.rev !problems)
