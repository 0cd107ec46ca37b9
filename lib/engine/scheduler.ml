type result = {
  prepared : Core.Campaign.prepared list;
  cells : Core.Campaign.cell list;
  resumed : int;
}

type task = {
  t_workload : Core.Workload.t;
  t_tool : Core.Campaign.tool;
  t_category : Core.Category.t;
}

let matches (t : task) (c : Core.Campaign.cell) =
  String.equal c.c_workload t.t_workload.Core.Workload.name
  && c.c_tool = t.t_tool
  && c.c_category = t.t_category

(* Canonical cell order: workload x tool x category, exactly as
   Campaign.run_all produces it. *)
let canonical_tasks ~tools ~categories workloads =
  List.concat_map
    (fun w ->
      List.concat_map
        (fun tool ->
          List.map
            (fun category -> { t_workload = w; t_tool = tool; t_category = category })
            categories)
        tools)
    workloads

(* Trial ranges for one cell: whole by default, chunks of [chunk] when
   splitting (campaign batches and service shards alike).  trials=0
   still yields one empty range so the cell (and its population) is
   produced. *)
let ranges ~chunk trials =
  match chunk with
  | None -> [ (0, trials) ]
  | Some n when n <= 0 ->
    invalid_arg "Scheduler.ranges: chunk must be positive"
  | Some n ->
    if trials <= 0 then [ (0, 0) ]
    else
      List.init
        ((trials + n - 1) / n)
        (fun k -> (k * n, min n (trials - (k * n))))

(* Adaptive trial batches.  Cells are the natural task unit: one batch
   per cell maximally amortizes the fast-forward checkpoint (every
   extra range re-pays the golden advance to its first target).  Split
   only when the grid alone cannot level-load every domain — fewer
   than two cells per worker — and then into the coarsest ranges that
   give each domain about two batches, never smaller than 8 trials so
   a batch still amortizes its runner setup. *)
let adaptive_chunk ~jobs ~cells ~trials =
  if jobs <= 1 || cells = 0 || trials <= 1 || cells >= 2 * jobs then None
  else begin
    let per_cell = ((2 * jobs) + cells - 1) / cells in
    let chunk = max 8 ((trials + per_cell - 1) / per_cell) in
    if chunk >= trials then None else Some chunk
  end

(* Rejoin journals (golden-run reconvergence, see Vm.Rejoin) cost one
   extra digest-maintaining golden run per tool level and repay it on
   every trial that reconverges.  Build them only when the campaign
   runs enough trials per workload to amortize the recording runs;
   output is byte-identical either way, so this is purely a cost
   heuristic. *)
let rejoin_worthwhile ~workloads ~cells ~trials =
  workloads > 0 && cells * trials >= 400 * workloads

(* Telemetry (lib/obs).  Note that [run] itself is deliberately not
   wrapped in a span: with jobs=1 the task spans would nest under it
   while pool workers would root theirs elsewhere, breaking the
   jobs-invariant canonical forest (see Obs.Trace). *)
let m_tasks = Obs.Metrics.counter "engine.tasks"
let m_cache_hits = Obs.Metrics.counter "engine.runner_cache.hits"
let m_cache_misses = Obs.Metrics.counter "engine.runner_cache.misses"

(* One cached fast-forward runner per domain: consecutive trial-range
   subtasks of the same cell landing on the same worker reuse the rolling
   machine instead of rebuilding it from scratch.  Validated by physical
   equality on [prepared] (plus tool/category), so a runner can never
   leak across cells or across [run] invocations — a fresh run prepares
   fresh values and the stale cache entry simply misses. *)
let runner_cache : Core.Campaign.runner option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let cached_runner p rejoin tool category =
  let cache = Domain.DLS.get runner_cache in
  match !cache with
  | Some r when Core.Campaign.runner_matches r p tool category ->
    Obs.Metrics.incr m_cache_hits;
    r
  | _ ->
    Obs.Metrics.incr m_cache_misses;
    let r =
      Obs.Trace.span "runner-build" (fun () ->
          Core.Campaign.runner ?rejoin p tool category)
    in
    cache := Some r;
    r

let merge_parts parts =
  match Array.to_list parts with
  | [] -> invalid_arg "Scheduler.merge_parts: cell with no parts"
  | Some (first : Core.Campaign.cell) :: rest ->
    let tally =
      List.fold_left
        (fun acc part ->
          match part with
          | Some (c : Core.Campaign.cell) -> Core.Verdict.merge acc c.c_tally
          | None -> assert false)
        first.c_tally rest
    in
    { first with c_tally = tally }
  | None :: _ -> assert false

(* Campaign trials allocate heavily in the minor heap, and in the
   multicore runtime every minor collection is a stop-the-world
   synchronization across all domains.  Workers therefore run with a
   minor heap well above the 256k-word default, cutting the
   synchronization rate roughly proportionally. *)
let worker_minor_heap = 1024 * 1024 (* words *)

let worker_gc_init _ix =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = worker_minor_heap }

let run ?(jobs = 1) ?journal:journal_path ?(resume = false) ?progress
    ?(tools = [ Core.Campaign.Llfi_tool; Core.Campaign.Pinfi_tool ])
    ?(categories = Core.Category.all) ?chunk ?observe ?(track_use = false)
    (config : Core.Campaign.config) workloads =
  let tasks = canonical_tasks ~tools ~categories workloads in
  let journal, journaled =
    match journal_path with
    | None -> (None, [])
    | Some path ->
      let grid =
        Journal.grid
          ~workloads:(List.map (fun (w : Core.Workload.t) -> w.name) workloads)
          ~tools ~categories
      in
      let j, cells = Journal.start (Journal.cells ~grid config) ~path ~resume in
      (Some j, cells)
  in
  let restored t = List.find_opt (matches t) journaled in
  let pending =
    Array.of_list (List.filter (fun t -> restored t = None) tasks)
  in
  (* Worker domains are capped at the runtime's recommended count:
     results are order-insensitive, so [jobs] beyond the hardware buys
     nothing but minor-GC synchronization and scheduling churn on an
     oversubscribed host.  A cap of 1 degenerates to the inline
     path. *)
  let domains = min jobs (Pool.default_size ()) in
  let pool =
    if domains > 1 then
      Some (Pool.create ~size:domains ~init:worker_gc_init ())
    else None
  in
  let map_parallel : 'a 'b. ('a -> 'b) -> 'a array -> 'b array =
   fun f arr ->
    match pool with None -> Array.map f arr | Some p -> Pool.map p f arr
  in
  (* The inline path runs every trial on the calling domain: give it
     the same widened minor heap the pool workers get, restored on
     exit. *)
  let saved_gc = if pool = None then Some (Gc.get ()) else None in
  (match saved_gc with Some _ -> worker_gc_init 0 | None -> ());
  Fun.protect
    ~finally:(fun () ->
      (match saved_gc with Some g -> Gc.set g | None -> ());
      (match pool with Some p -> Pool.shutdown p | None -> ());
      match journal with Some j -> Journal.close j | None -> ())
    (fun () ->
      (* All cross-cell work happens before the first trial batch is
         dispatched: compile + golden-run + profile each workload once,
         then (when the trial volume amortizes it) record each
         workload's rejoin journals.  Both structures are immutable
         afterwards and shared by every worker. *)
      let prepared_arr =
        map_parallel (Core.Campaign.prepare config) (Array.of_list workloads)
      in
      let rejoin_arr =
        if
          rejoin_worthwhile
            ~workloads:(Array.length prepared_arr)
            ~cells:(Array.length pending) ~trials:config.trials
        then
          map_parallel
            (fun p -> Some (Core.Campaign.record_rejoin p))
            prepared_arr
        else Array.map (fun _ -> None) prepared_arr
      in
      let prepared_index (w : Core.Workload.t) =
        let rec find k =
          if k >= Array.length prepared_arr then
            invalid_arg ("Scheduler: unprepared workload " ^ w.name)
          else if
            String.equal
              prepared_arr.(k).Core.Campaign.workload.Core.Workload.name w.name
          then k
          else find (k + 1)
        in
        find 0
      in
      let chunk =
        match chunk with
        | Some n ->
          if n <= 0 then invalid_arg "Scheduler.run: chunk must be positive";
          Some n
        | None ->
          adaptive_chunk ~jobs:domains ~cells:(Array.length pending)
            ~trials:config.trials
      in
      let task_ranges = ranges ~chunk config.trials in
      let nranges = List.length task_ranges in
      let subtasks =
        Array.concat
          (List.map
             (fun ti ->
               Array.of_list
                 (List.mapi (fun ri (first, count) -> (ti, ri, first, count)) task_ranges))
             (List.init (Array.length pending) Fun.id))
      in
      let parts =
        Array.init (Array.length pending) (fun _ -> Array.make nranges None)
      in
      let chunks_left = Array.make (Array.length pending) nranges in
      let cell_seconds = Array.make (Array.length pending) 0.0 in
      let merged = Array.make (Array.length pending) None in
      (match progress with
      | Some pr ->
        Progress.plan pr ~cells:(Array.length pending)
          ~skipped:(List.length tasks - Array.length pending)
      | None -> ());
      (* Worker-side half of a subtask: run the trial range and return
         the partial cell.  No shared bookkeeping here — everything a
         worker touches is either immutable (prepared, rejoin) or its
         own (the DLS runner cache). *)
      let run_subtask (ti, _ri, first, count) =
        let t = pending.(ti) in
        Obs.Metrics.incr m_tasks;
        let in_span f =
          (* Root span of each unit of scheduled work.  The args make the
             root key unique across the whole grid, which is what lets
             Obs.Trace.forest sort roots canonically for any [jobs]. *)
          if Obs.Trace.on () then
            Obs.Trace.span "task"
              ~args:
                [
                  ("workload", t.t_workload.Core.Workload.name);
                  ("tool", Core.Campaign.tool_name t.t_tool);
                  ("category", Core.Category.name t.t_category);
                  ("first", string_of_int first);
                  ("count", string_of_int count);
                ]
              f
          else f ()
        in
        in_span @@ fun () ->
        let wi = prepared_index t.t_workload in
        let p = prepared_arr.(wi) in
        let t0 = Unix.gettimeofday () in
        let on_stats =
          Option.map
            (fun f trial verdict stats ->
              f ~workload:t.t_workload.Core.Workload.name ~tool:t.t_tool
                ~category:t.t_category ~trial verdict stats)
            observe
        in
        let runner = cached_runner p rejoin_arr.(wi) t.t_tool t.t_category in
        let cell =
          Core.Campaign.run_cell_range ~runner ?on_stats ~track_use config p
            t.t_tool t.t_category ~first ~count
        in
        (cell, Unix.gettimeofday () -. t0)
      in
      (* Coordinator-side half: merge bookkeeping, journal append,
         progress line.  Only this domain runs it, so none of it takes
         a lock and workers never block on the journal or the progress
         channel. *)
      let consume (ti, ri) cell dt =
        parts.(ti).(ri) <- Some cell;
        cell_seconds.(ti) <- cell_seconds.(ti) +. dt;
        chunks_left.(ti) <- chunks_left.(ti) - 1;
        if chunks_left.(ti) = 0 then begin
          let cell = merge_parts parts.(ti) in
          merged.(ti) <- Some cell;
          (match journal with Some j -> Journal.record j cell | None -> ());
          match progress with
          | Some pr -> Progress.cell_done pr cell ~elapsed:cell_seconds.(ti)
          | None -> ()
        end
      in
      (match pool with
      | None ->
        Array.iter
          (fun ((ti, ri, _, _) as st) ->
            let cell, dt = run_subtask st in
            consume (ti, ri) cell dt)
          subtasks
      | Some p ->
        (* Workers publish completed subtasks into per-worker buffers;
           the coordinator drains them as they appear.  A worker takes
           only its own buffer lock (contended solely during a drain
           sweep) plus one wake-up signal, then immediately pulls its
           next batch — journaling, progress and merging never sit on
           the workers' critical path. *)
        let nw = Pool.size p in
        let locks = Array.init nw (fun _ -> Mutex.create ()) in
        let buffers = Array.make nw [] in
        let wake_mutex = Mutex.create () in
        let wake = Condition.create () in
        let unseen = ref 0 (* guarded by wake_mutex *) in
        let publish r =
          let w = match Pool.self_index () with Some w -> w | None -> 0 in
          Mutex.lock locks.(w);
          buffers.(w) <- r :: buffers.(w);
          Mutex.unlock locks.(w);
          Mutex.lock wake_mutex;
          incr unseen;
          Condition.signal wake;
          Mutex.unlock wake_mutex
        in
        Array.iteri
          (fun i st ->
            Pool.submit p (fun () ->
                publish
                  (match run_subtask st with
                  | cell, dt -> Ok (st, cell, dt)
                  | exception e -> Error (i, e))))
          subtasks;
        let failures = Array.make (Array.length subtasks) None in
        let left = ref (Array.length subtasks) in
        while !left > 0 do
          Mutex.lock wake_mutex;
          while !unseen = 0 do
            Condition.wait wake wake_mutex
          done;
          unseen := 0;
          Mutex.unlock wake_mutex;
          for w = 0 to nw - 1 do
            Mutex.lock locks.(w);
            let batch = buffers.(w) in
            buffers.(w) <- [];
            Mutex.unlock locks.(w);
            List.iter
              (fun r ->
                decr left;
                match r with
                | Ok ((ti, ri, _, _), cell, dt) -> consume (ti, ri) cell dt
                | Error (i, e) -> failures.(i) <- Some e)
              (List.rev batch)
          done
        done;
        (* Canonical-order re-raise, matching the sequential path: the
           lowest-indexed failure surfaces only after every in-flight
           subtask has drained (completed cells are already journaled,
           so a crashed campaign resumes where it died). *)
        Array.iter (function Some e -> raise e | None -> ()) failures);
      (match progress with Some pr -> Progress.finish pr | None -> ());
      (* [pending] is the in-order sublist of [tasks] that was not
         restored, so walking both with one cursor re-interleaves
         journaled and freshly computed cells canonically. *)
      let cells =
        let next = ref 0 in
        List.map
          (fun t ->
            match restored t with
            | Some cell -> cell
            | None ->
              let cell = Option.get merged.(!next) in
              incr next;
              cell)
          tasks
      in
      {
        prepared = Array.to_list prepared_arr;
        cells;
        resumed = List.length tasks - Array.length pending;
      })
