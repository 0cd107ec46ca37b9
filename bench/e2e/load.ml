(* Load generation against a campaign-service child process: one
   generator thread, at most one job in flight per connection (a closed
   loop), every frame timestamped as it arrives.  The client speaks the
   wire codec directly rather than through Serve.Client, whose blocking
   [recv] cannot be multiplexed and hides frame arrival times. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Reads to end of file: /proc files report no length. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        match input ic chunk 0 4096 with
        | 0 -> Buffer.contents buf
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          go ()
      in
      go ())

(* VmHWM of a process, in MiB. *)
let peak_rss_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let line =
    List.find_opt
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' (read_file path))
  in
  match line with
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
  | None -> failwith ("no VmHWM in " ^ path)

(* ---- the server child ---- *)

type child = { pid : int; dir : string; socket : string; traced : bool }

let live : child list ref = ref []

(* The child's side: the service as [fi serve --pool 2 --journal J]
   configures it, in its own directory.  A traced child counts with
   Obs.Metrics and leaves the counters in metrics.json when it drains. *)
let serve_child ~dir ~traced =
  Sys.chdir dir;
  if traced then Obs.Metrics.enable ();
  let cfg =
    {
      (Serve.Server.default ~socket:"s.sock") with
      Serve.Server.pool_size = 2;
      journal = Some "journal.log";
      handle_signals = true;
    }
  in
  ignore
    (Serve.Server.run
       ~on_ready:(fun () ->
         print_string "ready\n";
         flush stdout)
       cfg);
  if traced then write_file "metrics.json" (Obs.Json.to_string (Obs.Metrics.to_json ()))

let spawn ~dir ~traced =
  mkdir_p dir;
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [| exe; "serve-child"; dir; (if traced then "1" else "0") |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let child = { pid; dir; socket = Filename.concat dir "s.sock"; traced } in
  live := child :: !live;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  if line <> "ready" then failwith "serve child exited before it was ready";
  child

let reap child =
  ignore (Unix.waitpid [] child.pid);
  live := List.filter (fun c -> c.pid <> child.pid) !live

(* Remove a child's directory: the journal, the metrics dump and the
   socket, if the server left it. *)
let remove_dir dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* Kill and reap every child still running (after a failure). *)
let stop_all () =
  List.iter
    (fun c ->
      (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap c;
      remove_dir c.dir)
    !live

(* ---- connections and the closed loop ---- *)

type pending = {
  p_idx : int;
  p_job : Serve.Wire.job;
  p_send : float;
  mutable p_ack : float;
  mutable p_first : float;
  mutable p_batches : int;
  mutable p_bytes : int;
  p_cells :
    (Core.Campaign.tool * Core.Category.t, Core.Campaign.cell * float) Hashtbl.t;
      (* merged so far, with the time of the cell's latest batch *)
}

type conn = { fd : Unix.file_descr; mutable inbuf : string; mutable cur : pending option }

type job_result = {
  idx : int;
  job : Serve.Wire.job;
  send : float;
  ack : float;
  first : float;
  finish : float;
  batches : int;
  bytes : int;
  cells : (Core.Campaign.cell * float) list;  (* in grid order, with last-batch time *)
  digest : (string, string) result;  (* Error: why the job failed *)
}

let connect socket =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.connect fd (ADDR_UNIX socket);
  { fd; inbuf = ""; cur = None }

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let send c msg = write_all c.fd (Serve.Wire.encode_client msg)

(* The job's cells in grid order, if every one received batches. *)
let grid_cells p =
  let job = p.p_job in
  let cells =
    List.concat_map
      (fun tool ->
        List.map (fun cat -> Hashtbl.find_opt p.p_cells (tool, cat)) job.Serve.Wire.j_categories)
      job.j_tools
  in
  if List.for_all Option.is_some cells then Some (List.map Option.get cells) else None

(* A finished job is correct when its CSV has the digest the server
   sent and equals what its own streamed batches merge into. *)
let check p ~csv ~digest =
  if Digest.to_hex (Digest.string csv) <> digest then Error "digest does not match the CSV"
  else
    match grid_cells p with
    | None -> Error "a cell received no batches"
    | Some cells ->
      let cells = List.map fst cells in
      let expected (c : Core.Campaign.cell) = if c.c_population > 0 then p.p_job.j_trials else 0 in
      if List.exists (fun (c : Core.Campaign.cell) -> c.c_tally.trials <> expected c) cells
      then Error "a cell's batches do not cover its trials exactly once"
      else if Core.Campaign.to_csv cells <> csv then
        Error "batches do not merge into the job's CSV"
      else Ok digest

(* Account one frame to the connection's job; [Some result] once the job
   has ended. *)
let on_frame p msg size t =
  p.p_bytes <- p.p_bytes + size;
  match msg with
  | Serve.Wire.Ack _ ->
    p.p_ack <- t;
    None
  | Batch b ->
    if p.p_batches = 0 then p.p_first <- t;
    p.p_batches <- p.p_batches + 1;
    let key = (b.b_tool, b.b_category) in
    let cell =
      match Hashtbl.find_opt p.p_cells key with
      | Some ((c : Core.Campaign.cell), _) ->
        { c with c_tally = Core.Verdict.merge c.c_tally b.b_tally }
      | None ->
        {
          Core.Campaign.c_workload = p.p_job.j_workload;
          c_tool = b.b_tool;
          c_category = b.b_category;
          c_model = b.b_model;
          c_population = b.b_population;
          c_tally = b.b_tally;
        }
    in
    Hashtbl.replace p.p_cells key (cell, t);
    None
  | Job_done { csv; digest; _ } -> Some (check p ~csv ~digest)
  | Error { message; _ } -> Some (Error message)
  | Welcome _ | Pong | Bye -> Some (Error "unexpected frame while a job was in flight")

let result_of p t digest =
  {
    idx = p.p_idx;
    job = p.p_job;
    send = p.p_send;
    ack = p.p_ack;
    first = p.p_first;
    finish = t;
    batches = p.p_batches;
    bytes = p.p_bytes;
    cells = Option.value (grid_cells p) ~default:[];
    digest;
  }

let read_into buf c =
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | 0 -> failwith "the service closed a connection"
  | n -> c.inbuf <- c.inbuf ^ Bytes.sub_string buf 0 n

let next_frame c =
  match Serve.Wire.decode_server c.inbuf with
  | Need_more -> None
  | Bad m -> failwith ("malformed frame from the service: " ^ m)
  | Got (msg, size) ->
    c.inbuf <- String.sub c.inbuf size (String.length c.inbuf - size);
    Some (msg, size)

let select_read fds =
  match Unix.select fds [] [] 60. with
  | [], _, _ -> failwith "the service sent nothing for 60 s"
  | r, _, _ -> r
  | exception Unix.Unix_error (EINTR, _, _) -> []

(* Run jobs from [next] over [conns], one in flight per connection,
   until [next] has no more and every connection is idle. *)
let closed_loop conns ~next ~on_done =
  let buf = Bytes.create 65536 in
  let feed c =
    match next () with
    | None -> ()
    | Some (idx, job) ->
      c.cur <-
        Some
          {
            p_idx = idx;
            p_job = job;
            p_send = now ();
            p_ack = nan;
            p_first = nan;
            p_batches = 0;
            p_bytes = 0;
            p_cells = Hashtbl.create 16;
          };
      send c (Serve.Wire.Submit job)
  in
  List.iter feed conns;
  let rec loop () =
    match List.filter (fun c -> c.cur <> None) conns with
    | [] -> ()
    | busy ->
      let ready = select_read (List.map (fun c -> c.fd) busy) in
      List.iter
        (fun c ->
          if List.mem c.fd ready then begin
            read_into buf c;
            let t = now () in
            let rec frames () =
              match (next_frame c, c.cur) with
              | None, _ -> ()
              | Some _, None -> failwith "a frame arrived with no job in flight"
              | Some (msg, size), Some p ->
                (match on_frame p msg size t with
                | None -> ()
                | Some digest ->
                  c.cur <- None;
                  on_done (result_of p t digest);
                  feed c);
                frames ()
            in
            frames ()
          end)
        busy;
      loop ()
  in
  loop ()

(* Drain the child through [c] and wait for it to exit. *)
let shutdown child conns =
  let buf = Bytes.create 65536 in
  (match conns with
  | c :: _ ->
    send c (Serve.Wire.Shutdown { drain = true });
    let rec until_bye () =
      match next_frame c with
      | Some (Serve.Wire.Bye, _) -> ()
      | Some _ -> until_bye ()
      | None ->
        ignore (select_read [ c.fd ]);
        read_into buf c;
        until_bye ()
    in
    until_bye ()
  | [] -> ());
  List.iter (fun c -> Unix.close c.fd) conns;
  reap child;
  let metrics =
    let path = Filename.concat child.dir "metrics.json" in
    if child.traced && Sys.file_exists path then Some (Obs.Json.of_string (read_file path))
    else None
  in
  remove_dir child.dir;
  metrics
