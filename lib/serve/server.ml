(* The campaign service event loop; see the .mli.

   Threading model: one select(2) loop on the calling domain owns every
   connection, the job table and the cell cache; pool workers only read
   the immutable shard spec, run the trials, and push the finished cell
   onto a mutex-protected completion queue (waking the loop through a
   self-pipe).  Nothing else crosses domains, so the loop needs no
   locking of its own state. *)

type config = {
  socket : string;
  tcp : (string * int) option;
  pool_size : int;
  chunk : int option;
  journal : string option;
  base : Core.Campaign.config;
  idle_timeout : float;
  max_buffered : int;
  handle_signals : bool;
  name : string;
}

let default ~socket =
  {
    socket;
    tcp = None;
    pool_size = Engine.Pool.default_size ();
    chunk = None;
    journal = None;
    base = Core.Campaign.default_config;
    idle_timeout = 0.;
    max_buffered = 8 * 1024 * 1024;
    handle_signals = false;
    name = "fi-serve";
  }

type stats = {
  connections : int;
  admitted : int;
  completed : int;
  failed : int;
  resumed : int;
}

let m_conns = Obs.Metrics.counter "serve.connections"
let m_admitted = Obs.Metrics.counter "serve.jobs.admitted"
let m_completed = Obs.Metrics.counter "serve.jobs.completed"
let m_failed = Obs.Metrics.counter "serve.jobs.failed"
let m_rejected = Obs.Metrics.counter "serve.jobs.rejected"
let m_resumed = Obs.Metrics.counter "serve.jobs.resumed"
let m_shards = Obs.Metrics.counter "serve.shards.executed"
let m_shards_restored = Obs.Metrics.counter "serve.shards.restored"
let m_shards_dup = Obs.Metrics.counter "serve.shards.duplicate"
let m_batches = Obs.Metrics.counter "serve.batches.streamed"
let m_cells_shared = Obs.Metrics.counter "serve.cells.shared"
let m_prep_hits = Obs.Metrics.counter "serve.prepared_cache.hits"
let m_prep_misses = Obs.Metrics.counter "serve.prepared_cache.misses"
let m_prep_evicted = Obs.Metrics.counter "serve.prepared_cache.evictions"
let m_runner_hits = Obs.Metrics.counter "serve.runner_cache.hits"
let m_runner_misses = Obs.Metrics.counter "serve.runner_cache.misses"
let h_job_ms = Obs.Metrics.histogram "serve.job.latency_ms"
let h_shard_ms = Obs.Metrics.histogram "serve.shard.latency_ms"

type conn = {
  c_fd : Unix.file_descr;
  mutable c_in : string;
  c_out : string Queue.t;
  mutable c_out_off : int;  (* bytes of the queue head already written *)
  mutable c_out_bytes : int;
  mutable c_last : float;
  mutable c_jobs : int;  (* in-flight jobs submitted on this connection *)
  mutable c_closed : bool;
}

type cell_state = {
  cs_key : Plan.cell_id;
  cs_shards : (int * int) array;
  cs_parts : Core.Campaign.cell option array;
  mutable cs_left : int;
  mutable cs_merged : Core.Campaign.cell option;
  mutable cs_failed : string option;
  mutable cs_waiters : waiter list;
}

and waiter = {
  w_job : job_state;
  mutable w_left : int;
  w_delivered : bool array;  (* per shard of the cell *)
}

and job_state = {
  js_id : int;
  js_job : Wire.job;
  mutable js_conn : conn option;  (* None: headless (resumed / orphaned) *)
  mutable js_cells : cell_state array;
  mutable js_remaining : int;  (* cells not yet fully delivered *)
  mutable js_failed : bool;
  mutable js_finished : bool;
  js_start : float;
}

type completion =
  | Shard_done of cell_state * int * Core.Campaign.cell
  | Shard_failed of cell_state * string

(* A workload stays prepared for as long as its program is unchanged;
   sound because Campaign.prepare depends only on the base config's tool
   policies and backend, never on a job's trials or seed.  Entries are
   validated by [Workload.digest] — a name alone is not a sound cache
   key, since a long-running server can outlive an edit to the workload
   it serves — and a digest mismatch evicts and rebuilds.  Rejoin
   journals are recorded alongside — a one-time golden-run cost that
   every later shard of every job repays with early trial exits.  The
   per-entry mutex deliberately serializes concurrent first-builders of
   the same workload — better one build than pool_size redundant
   ones. *)
type prep_entry = {
  pm : Mutex.t;
  p_digest : string;  (* Workload.digest at entry creation *)
  mutable pv :
    (Core.Campaign.prepared * Core.Campaign.rejoin, string) result option;
}

(* One runner per (workload, tool, category) per domain, exactly the
   scheduler's trick: validated by physical equality on the prepared
   value, so entries from an older server in the same process simply
   miss and are replaced. *)
let runner_cache :
    (string * Core.Campaign.tool * Core.Category.t, Core.Campaign.runner)
    Hashtbl.t
    Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let cached_runner p rejoin name tool category =
  let cache = Domain.DLS.get runner_cache in
  let key = (name, tool, category) in
  match Hashtbl.find_opt cache key with
  | Some r when Core.Campaign.runner_matches r p tool category ->
    Obs.Metrics.incr m_runner_hits;
    r
  | _ ->
    Obs.Metrics.incr m_runner_misses;
    let r = Core.Campaign.runner ~rejoin p tool category in
    Hashtbl.replace cache key r;
    r

let write_file path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc

let now () = Unix.gettimeofday ()
let ms_since t0 = int_of_float ((now () -. t0) *. 1000.)

let run ?(on_ready = fun () -> ()) (cfg : config) =
  (* A peer that vanishes mid-write must surface as EPIPE, not kill the
     process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let draining = ref false in
  let stop_now = ref false in
  if cfg.handle_signals then begin
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> draining := true));
    Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> draining := true))
  end;
  let journal, journaled =
    match cfg.journal with
    | None -> (None, [])
    | Some path ->
      let j, entries = Joblog.start ~path in
      (Some j, entries)
  in
  let log r = Option.iter (fun j -> Engine.Journal.record j r) journal in
  let pool = Engine.Pool.create ~size:(max 1 cfg.pool_size) () in
  let cancelled = Atomic.make false in
  let cq : completion Queue.t = Queue.create () in
  let cq_mutex = Mutex.create () in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let push_completion c =
    Mutex.lock cq_mutex;
    Queue.push c cq;
    Mutex.unlock cq_mutex;
    try ignore (Unix.write wake_w (Bytes.make 1 '!') 0 1)
    with Unix.Unix_error _ -> ()
    (* a full pipe already guarantees a wakeup *)
  in
  (try if Sys.file_exists cfg.socket then Sys.remove cfg.socket
   with Sys_error _ -> ());
  let unix_l = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.bind unix_l (ADDR_UNIX cfg.socket);
  Unix.listen unix_l 64;
  Unix.set_nonblock unix_l;
  let tcp_l =
    match cfg.tcp with
    | None -> None
    | Some (host, port) ->
      let addr =
        try Unix.inet_addr_of_string host
        with Failure _ -> (Unix.gethostbyname host).h_addr_list.(0)
      in
      let fd = Unix.socket PF_INET SOCK_STREAM 0 in
      Unix.setsockopt fd SO_REUSEADDR true;
      Unix.bind fd (ADDR_INET (addr, port));
      Unix.listen fd 64;
      Unix.set_nonblock fd;
      Some fd
  in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let jobs : (int, job_state) Hashtbl.t = Hashtbl.create 16 in
  let cell_cache : (Plan.cell_id, cell_state) Hashtbl.t = Hashtbl.create 64 in
  let prep_cache : (string, prep_entry) Hashtbl.t = Hashtbl.create 8 in
  let prep_mutex = Mutex.create () in
  let next_id = ref 1 in
  let active_jobs = ref 0 in
  let n_conns = ref 0 in
  let n_admitted = ref 0 in
  let n_completed = ref 0 in
  let n_failed = ref 0 in
  let n_resumed = ref 0 in
  let get_prepared name =
    match Workloads.find name with
    | None -> Error (Printf.sprintf "unknown workload %S" name)
    | Some w ->
      let digest = Core.Workload.digest w in
      Mutex.lock prep_mutex;
      let entry =
        match Hashtbl.find_opt prep_cache name with
        | Some pe when String.equal pe.p_digest digest ->
          Obs.Metrics.incr m_prep_hits;
          pe
        | stale ->
          (match stale with
          | Some _ ->
            (* same name, different program: the old preparation (and,
               via runner_matches, every runner built on it) is dead *)
            Obs.Metrics.incr m_prep_evicted
          | None -> ());
          Obs.Metrics.incr m_prep_misses;
          let pe = { pm = Mutex.create (); p_digest = digest; pv = None } in
          Hashtbl.replace prep_cache name pe;
          pe
      in
      Mutex.unlock prep_mutex;
      Mutex.lock entry.pm;
      let r =
        match entry.pv with
        | Some r -> r
        | None ->
          let r =
            try
              let p = Core.Campaign.prepare cfg.base w in
              Ok (p, Core.Campaign.record_rejoin p)
            with exn -> Error (Printexc.to_string exn)
          in
          entry.pv <- Some r;
          r
      in
      Mutex.unlock entry.pm;
      r
  in
  (* --- connection output --- *)
  let close_conn c =
    if not c.c_closed then begin
      c.c_closed <- true;
      Hashtbl.remove conns c.c_fd;
      (try Unix.close c.c_fd with Unix.Unix_error _ -> ());
      (* its in-flight jobs finish headless: journal + output file *)
      Hashtbl.iter
        (fun _ js ->
          match js.js_conn with
          | Some c' when c' == c -> js.js_conn <- None
          | _ -> ())
        jobs
    end
  in
  let enqueue_out c s =
    if not c.c_closed then begin
      Queue.push s c.c_out;
      c.c_out_bytes <- c.c_out_bytes + String.length s
    end
  in
  let send c msg = enqueue_out c (Wire.encode_server msg) in
  let flush_conn c =
    if not c.c_closed then
      try
        let blocked = ref false in
        while (not !blocked) && not (Queue.is_empty c.c_out) do
          let s = Queue.peek c.c_out in
          let len = String.length s - c.c_out_off in
          let n = Unix.write_substring c.c_fd s c.c_out_off len in
          c.c_out_bytes <- c.c_out_bytes - n;
          if n = len then begin
            ignore (Queue.pop c.c_out);
            c.c_out_off <- 0
          end
          else begin
            c.c_out_off <- c.c_out_off + n;
            blocked := true
          end
        done;
        c.c_last <- now ()
      with
      | Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
      | Unix.Unix_error _ -> close_conn c
  in
  (* --- job lifecycle (select-loop domain only) --- *)
  let finish_job js =
    js.js_finished <- true;
    decr active_jobs;
    let cells =
      Array.to_list
        (Array.map (fun cs -> Option.get cs.cs_merged) js.js_cells)
    in
    let csv = Core.Campaign.to_csv cells in
    let digest = Digest.to_hex (Digest.string csv) in
    log (Joblog.Done { id = js.js_id; digest });
    (match js.js_job.Wire.j_out with
    | Some path -> ( try write_file path csv with Sys_error _ -> ())
    | None -> ());
    (match js.js_conn with
    | Some c ->
      c.c_jobs <- c.c_jobs - 1;
      send c (Wire.Job_done { job = js.js_id; csv; digest })
    | None -> ());
    Obs.Metrics.incr m_completed;
    Obs.Metrics.observe h_job_ms (ms_since js.js_start);
    incr n_completed
  in
  let fail_job js msg =
    if not (js.js_failed || js.js_finished) then begin
      js.js_failed <- true;
      decr active_jobs;
      log (Joblog.Fail { id = js.js_id });
      (match js.js_conn with
      | Some c ->
        c.c_jobs <- c.c_jobs - 1;
        send c (Wire.Error { job = Some js.js_id; message = msg })
      | None -> ());
      Obs.Metrics.incr m_failed;
      incr n_failed
    end
  in
  let deliver w cs k (cell : Core.Campaign.cell) =
    if
      (not w.w_delivered.(k))
      && not (w.w_job.js_failed || w.w_job.js_finished)
    then begin
      w.w_delivered.(k) <- true;
      w.w_left <- w.w_left - 1;
      let first, count = cs.cs_shards.(k) in
      log
        (Joblog.Shard
           {
             id = w.w_job.js_id;
             shard =
               {
                 s_tool = cell.c_tool;
                 s_category = cell.c_category;
                 s_first = first;
                 s_count = count;
                 s_population = cell.c_population;
                 s_tally = cell.c_tally;
               };
           });
      (match w.w_job.js_conn with
      | Some c ->
        Obs.Metrics.incr m_batches;
        send c
          (Wire.Batch
             {
               b_job = w.w_job.js_id;
               b_tool = cell.c_tool;
               b_category = cell.c_category;
               b_model = cell.c_model;
               b_first = first;
               b_count = count;
               b_population = cell.c_population;
               b_tally = cell.c_tally;
             })
      | None -> ());
      if w.w_left = 0 then begin
        w.w_job.js_remaining <- w.w_job.js_remaining - 1;
        if w.w_job.js_remaining = 0 then finish_job w.w_job
      end
    end
  in
  (* Record shard [k]'s result on the cell and fan it out.  The merged
     cell is computed before delivery so the final delivery of a job's
     final cell can assemble the CSV; parts are retained afterwards so
     later jobs joining this (cached) cell stream identical batches. *)
  let fill_part cs k cell =
    cs.cs_parts.(k) <- Some cell;
    cs.cs_left <- cs.cs_left - 1;
    if cs.cs_left = 0 then
      cs.cs_merged <- Some (Engine.Scheduler.merge_parts cs.cs_parts);
    List.iter (fun w -> deliver w cs k cell) cs.cs_waiters
  in
  let on_completion = function
    | Shard_done (cs, k, cell) ->
      if cs.cs_parts.(k) <> None then Obs.Metrics.incr m_shards_dup
      else fill_part cs k cell
    | Shard_failed (cs, msg) ->
      if cs.cs_failed = None then begin
        cs.cs_failed <- Some msg;
        List.iter (fun w -> fail_job w.w_job msg) cs.cs_waiters
      end
  in
  (* --- shard execution (pool domains) --- *)
  let run_shard cs k =
    if not (Atomic.get cancelled) then begin
      let key = cs.cs_key in
      let first, count = cs.cs_shards.(k) in
      let work () =
        match get_prepared key.Plan.p_workload with
        | Error msg -> push_completion (Shard_failed (cs, msg))
        | Ok (p, rejoin) ->
          let jcfg =
            Plan.config_for ~base:cfg.base ~model:key.Plan.p_model
              ~trials:key.Plan.p_trials ~seed:key.Plan.p_seed
          in
          let runner =
            cached_runner p rejoin key.Plan.p_workload key.Plan.p_tool
              key.Plan.p_category
          in
          let t0 = now () in
          let cell =
            Core.Campaign.run_cell_range ~runner jcfg p key.Plan.p_tool
              key.Plan.p_category ~first ~count
          in
          Obs.Metrics.incr m_shards;
          Obs.Metrics.observe h_shard_ms (ms_since t0);
          push_completion (Shard_done (cs, k, cell))
      in
      let spanned () =
        if Obs.Trace.on () then
          Obs.Trace.span "serve-shard"
            ~args:
              [
                ("workload", key.Plan.p_workload);
                ("tool", Core.Campaign.tool_name key.Plan.p_tool);
                ("category", Core.Category.name key.Plan.p_category);
                ("model", Core.Fault_model.name key.Plan.p_model);
                ("trials", string_of_int key.Plan.p_trials);
                ("seed", string_of_int key.Plan.p_seed);
                ("first", string_of_int first);
                ("count", string_of_int count);
              ]
            work
        else work ()
      in
      (* Pool tasks must not raise. *)
      try spanned ()
      with exn -> push_completion (Shard_failed (cs, Printexc.to_string exn))
    end
  in
  (* --- admission --- *)
  let admit ?(resumed_shards = []) ~conn ~id ~chunk (job : Wire.job) =
    let grid = Plan.cells job in
    let js =
      {
        js_id = id;
        js_job = job;
        js_conn = conn;
        js_cells = [||];
        js_remaining = List.length grid;
        js_failed = false;
        js_finished = false;
        js_start = now ();
      }
    in
    Hashtbl.replace jobs id js;
    incr active_jobs;
    (match conn with Some c -> c.c_jobs <- c.c_jobs + 1 | None -> ());
    let states =
      List.map
        (fun (tool, category) ->
          let key =
            Plan.cell_id ~workload:job.Wire.j_workload ~tool ~category
              ~model:job.Wire.j_model ~trials:job.Wire.j_trials
              ~seed:job.Wire.j_seed ~chunk
          in
          match Hashtbl.find_opt cell_cache key with
          | Some cs ->
            Obs.Metrics.incr m_cells_shared;
            (cs, false)
          | None ->
            let shards =
              Array.of_list
                (Engine.Scheduler.ranges ~chunk:(Some chunk) job.Wire.j_trials)
            in
            let cs =
              {
                cs_key = key;
                cs_shards = shards;
                cs_parts = Array.make (Array.length shards) None;
                cs_left = Array.length shards;
                cs_merged = None;
                cs_failed = None;
                cs_waiters = [];
              }
            in
            Hashtbl.replace cell_cache key cs;
            (cs, true))
        grid
    in
    js.js_cells <- Array.of_list (List.map fst states);
    List.iter
      (fun (cs, fresh) ->
        let journaled_shard k =
          let first, count = cs.cs_shards.(k) in
          List.find_opt
            (fun (s : Joblog.shard) ->
              s.s_tool = cs.cs_key.Plan.p_tool
              && s.s_category = cs.cs_key.Plan.p_category
              && s.s_first = first && s.s_count = count)
            resumed_shards
        in
        (* Journaled tallies pre-fill the cell (delivering to any
           existing waiters — the shard is deterministic, so a tally
           journaled under one job is every job's tally). *)
        Array.iteri
          (fun k _ ->
            if cs.cs_parts.(k) = None then
              match journaled_shard k with
              | Some s ->
                Obs.Metrics.incr m_shards_restored;
                fill_part cs k
                  {
                    Core.Campaign.c_workload = job.Wire.j_workload;
                    c_tool = s.Joblog.s_tool;
                    c_category = s.Joblog.s_category;
                    c_model = job.Wire.j_model;
                    c_population = s.Joblog.s_population;
                    c_tally = s.Joblog.s_tally;
                  }
              | None -> ())
          cs.cs_shards;
        (* A fresh cell must get its tasks even if this job already
           failed on an earlier cell: it is in the cache now, and a
           later job joining it would otherwise wait forever. *)
        if fresh then
          Array.iteri
            (fun k part ->
              if part = None then
                Engine.Pool.submit pool (fun () -> run_shard cs k))
            cs.cs_parts;
        match cs.cs_failed with
        | Some msg -> fail_job js msg
        | None ->
          if not (js.js_failed || js.js_finished) then begin
            let n = Array.length cs.cs_shards in
            let w = { w_job = js; w_left = n; w_delivered = Array.make n false } in
            (* This job's own journaled shards are already on disk under
               its id: mark them delivered without re-journaling. *)
            Array.iteri
              (fun k _ ->
                if journaled_shard k <> None && cs.cs_parts.(k) <> None then begin
                  w.w_delivered.(k) <- true;
                  w.w_left <- w.w_left - 1
                end)
              cs.cs_shards;
            if w.w_left = 0 then begin
              js.js_remaining <- js.js_remaining - 1;
              if js.js_remaining = 0 then finish_job js
            end;
            cs.cs_waiters <- w :: cs.cs_waiters;
            (* Stream parts that were already computed (cache hit on a
               running or finished cell). *)
            Array.iteri
              (fun k part ->
                match part with
                | Some cell -> deliver w cs k cell
                | None -> ())
              cs.cs_parts
          end)
      states
  in
  (* --- protocol --- *)
  let handle_msg c = function
    | Wire.Hello _ ->
      send c (Wire.Welcome { server = cfg.name; pool = Engine.Pool.size pool })
    | Wire.Ping -> send c Wire.Pong
    | Wire.Shutdown { drain } ->
      draining := true;
      if not drain then stop_now := true
    | Wire.Submit job -> (
      if !draining then begin
        Obs.Metrics.incr m_rejected;
        send c (Wire.Error { job = None; message = "server is draining" })
      end
      else
        match Plan.validate job with
        | Error msg ->
          Obs.Metrics.incr m_rejected;
          send c (Wire.Error { job = None; message = msg })
        | Ok _ ->
          let id = !next_id in
          incr next_id;
          let chunk =
            match cfg.chunk with
            | Some n -> n
            | None ->
              Plan.default_chunk ~pool:(Engine.Pool.size pool)
                ~trials:job.Wire.j_trials
          in
          log (Joblog.Job { id; chunk; job });
          send c (Wire.Ack { job = id });
          Obs.Metrics.incr m_admitted;
          incr n_admitted;
          admit ~conn:(Some c) ~id ~chunk job)
  in
  let rec parse_frames c =
    if not c.c_closed then
      match Wire.decode_client c.c_in with
      | Wire.Need_more -> ()
      | Wire.Bad msg ->
        send c (Wire.Error { job = None; message = "protocol error: " ^ msg });
        send c Wire.Bye;
        c.c_in <- "";
        flush_conn c;
        close_conn c
      | Wire.Got (msg, n) ->
        c.c_in <- String.sub c.c_in n (String.length c.c_in - n);
        handle_msg c msg;
        parse_frames c
  in
  let accept_on lfd =
    try
      while true do
        let fd, _ = Unix.accept lfd in
        Unix.set_nonblock fd;
        let c =
          {
            c_fd = fd;
            c_in = "";
            c_out = Queue.create ();
            c_out_off = 0;
            c_out_bytes = 0;
            c_last = now ();
            c_jobs = 0;
            c_closed = false;
          }
        in
        Hashtbl.replace conns fd c;
        Obs.Metrics.incr m_conns;
        incr n_conns
      done
    with
    | Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
    | Unix.Unix_error _ -> ()
  in
  let flush_all_deadline seconds =
    let deadline = now () +. seconds in
    let pending () =
      Hashtbl.fold (fun _ c acc -> acc || not (Queue.is_empty c.c_out)) conns false
    in
    while pending () && now () < deadline do
      let wfds =
        Hashtbl.fold
          (fun fd c acc -> if Queue.is_empty c.c_out then acc else fd :: acc)
          conns []
      in
      match Unix.select [] wfds [] 0.2 with
      | _, writable, _ ->
        List.iter
          (fun fd ->
            match Hashtbl.find_opt conns fd with
            | Some c -> flush_conn c
            | None -> ())
          writable
      | exception Unix.Unix_error (EINTR, _, _) -> ()
    done
  in
  (* --- startup: journal recovery, then announce readiness --- *)
  List.iter
    (fun (e : Joblog.entry) ->
      next_id := max !next_id (e.e_id + 1);
      if not (e.e_done || e.e_failed) then
        match Plan.validate e.e_job with
        | Error _ -> log (Joblog.Fail { id = e.e_id })
        | Ok _ ->
          Obs.Metrics.incr m_resumed;
          incr n_resumed;
          admit ~resumed_shards:e.e_shards ~conn:None ~id:e.e_id
            ~chunk:(max 1 e.e_chunk) e.e_job)
    journaled;
  on_ready ();
  (* --- the loop --- *)
  Fun.protect
    ~finally:(fun () ->
      Atomic.set cancelled true;
      Engine.Pool.shutdown pool;
      Hashtbl.iter (fun _ c -> try Unix.close c.c_fd with Unix.Unix_error _ -> ()) conns;
      (try Unix.close unix_l with Unix.Unix_error _ -> ());
      (match tcp_l with
      | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
      | None -> ());
      (try Unix.close wake_r with Unix.Unix_error _ -> ());
      (try Unix.close wake_w with Unix.Unix_error _ -> ());
      (try Sys.remove cfg.socket with Sys_error _ -> ());
      match journal with Some j -> Engine.Journal.close j | None -> ())
    (fun () ->
      let running = ref true in
      while !running do
        let listeners =
          if !draining then []
          else unix_l :: (match tcp_l with Some fd -> [ fd ] | None -> [])
        in
        let rfds =
          (wake_r :: listeners)
          @ Hashtbl.fold (fun fd _ acc -> fd :: acc) conns []
        in
        let wfds =
          Hashtbl.fold
            (fun fd c acc -> if Queue.is_empty c.c_out then acc else fd :: acc)
            conns []
        in
        let readable, writable, _ =
          try Unix.select rfds wfds [] 0.25
          with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
        in
        if List.mem wake_r readable then begin
          let buf = Bytes.create 256 in
          try
            while Unix.read wake_r buf 0 256 > 0 do
              ()
            done
          with Unix.Unix_error _ -> ()
        end;
        (* shard completions (may finish jobs, enqueue batches) *)
        let completions =
          Mutex.lock cq_mutex;
          let l = List.of_seq (Queue.to_seq cq) in
          Queue.clear cq;
          Mutex.unlock cq_mutex;
          l
        in
        List.iter on_completion completions;
        List.iter (fun lfd -> if List.mem lfd readable then accept_on lfd) listeners;
        List.iter
          (fun fd ->
            match Hashtbl.find_opt conns fd with
            | None -> ()
            | Some c -> (
              let buf = Bytes.create 65536 in
              match Unix.read fd buf 0 65536 with
              | 0 -> close_conn c
              | n ->
                c.c_last <- now ();
                c.c_in <- c.c_in ^ Bytes.sub_string buf 0 n;
                parse_frames c
              | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
              | exception Unix.Unix_error _ -> close_conn c))
          readable;
        List.iter
          (fun fd ->
            match Hashtbl.find_opt conns fd with
            | Some c -> flush_conn c
            | None -> ())
          writable;
        (* backpressure + idle reaping *)
        let t = now () in
        let victims =
          Hashtbl.fold
            (fun _ c acc ->
              if c.c_out_bytes > cfg.max_buffered then c :: acc
              else if
                cfg.idle_timeout > 0.
                && c.c_jobs = 0
                && Queue.is_empty c.c_out
                && t -. c.c_last > cfg.idle_timeout
              then c :: acc
              else acc)
            conns []
        in
        List.iter close_conn victims;
        if !stop_now then begin
          Hashtbl.iter (fun _ c -> send c Wire.Bye) conns;
          flush_all_deadline 2.0;
          running := false
        end
        else if !draining && !active_jobs = 0 then begin
          (* drained: every in-flight job has finished and its batches
             are queued; flush them, then say goodbye *)
          Hashtbl.iter (fun _ c -> send c Wire.Bye) conns;
          flush_all_deadline 5.0;
          running := false
        end
      done;
      {
        connections = !n_conns;
        admitted = !n_admitted;
        completed = !n_completed;
        failed = !n_failed;
        resumed = !n_resumed;
      })
