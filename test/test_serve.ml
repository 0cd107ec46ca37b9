(* Tests for lib/serve: the campaign service.

   The load-bearing properties:
   - the wire codec is total (never raises on any input), round-trips
     every message, rejects foreign versions, and reports truncated
     frames as Need_more — the exact contract the select loop relies on;
   - Engine.Scheduler.ranges partitions the trial range into shards
     for any chunk size;
   - the journal round-trips its records and survives a torn tail;
   - a served job's CSV is byte-identical to the offline campaign of
     the same spec, shard plan and cell sharing notwithstanding;
   - a drain-shutdown loses no verdict batch and duplicates none
     (the client's stream reassembly is the checker);
   - a journaled, unfinished job resumes headless on restart, re-runs
     only its missing shards, and still produces the offline CSV. *)

module Wire = Serve.Wire
module Plan = Serve.Plan
module Joblog = Serve.Joblog
module Server = Serve.Server
module Client = Serve.Client

let tools = [ Core.Campaign.Llfi_tool; Core.Campaign.Pinfi_tool ]

(* --- generators --- *)

let tool_gen = QCheck.Gen.oneofl tools
let cat_gen = QCheck.Gen.oneofl Core.Category.all

let model_gen =
  QCheck.Gen.(
    oneof
      [
        oneofl
          [
            Core.Fault_model.Bitflip;
            Core.Fault_model.Stuck_at_0;
            Core.Fault_model.Stuck_at_1;
            Core.Fault_model.Skip;
            Core.Fault_model.Load_value;
          ];
        map (fun n -> Core.Fault_model.Multi_bit n) (int_range 1 64);
      ])

let str_gen =
  (* arbitrary bytes: the codec length-prefixes, so nothing is special *)
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 40))

let job_gen =
  QCheck.Gen.(
    map
      (fun ((w, ts, cs, (n, seed, out)), m) ->
        {
          Wire.j_workload = w;
          j_tools = ts;
          j_categories = cs;
          j_model = m;
          j_trials = n;
          j_seed = seed;
          j_out = out;
        })
      (pair
         (quad str_gen
            (list_size (int_range 0 4) tool_gen)
            (list_size (int_range 0 6) cat_gen)
            (triple (int_range 0 100000) (int_range 0 1000000)
               (option str_gen)))
         model_gen))

let tally_gen =
  QCheck.Gen.(
    map
      (fun ((a, b, c, d), (e, f, g)) ->
        {
          Core.Verdict.trials = a;
          benign = b;
          sdc = c;
          crash = d;
          hang = e;
          not_activated = f;
          not_injected = g;
        })
      (pair
         (quad (int_range 0 10000) (int_range 0 10000) (int_range 0 10000)
            (int_range 0 10000))
         (triple (int_range 0 10000) (int_range 0 10000) (int_range 0 10000))))

let batch_gen =
  QCheck.Gen.(
    map
      (fun ((j, first, count), (tool, cat, model), (pop, tally)) ->
        {
          Wire.b_job = j;
          b_tool = tool;
          b_category = cat;
          b_model = model;
          b_first = first;
          b_count = count;
          b_population = pop;
          b_tally = tally;
        })
      (triple
         (triple (int_range 0 1000) (int_range 0 100000) (int_range 0 1000))
         (triple tool_gen cat_gen model_gen)
         (pair (int_range 0 1000000) tally_gen)))

let client_msg_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun c -> Wire.Hello { client = c }) str_gen;
        map (fun j -> Wire.Submit j) job_gen;
        map (fun d -> Wire.Shutdown { drain = d }) bool;
        return Wire.Ping;
      ])

let server_msg_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun s p -> Wire.Welcome { server = s; pool = p }) str_gen
          (int_range 0 256);
        map (fun j -> Wire.Ack { job = j }) (int_range 0 100000);
        map (fun b -> Wire.Batch b) batch_gen;
        map2
          (fun j (csv, digest) -> Wire.Job_done { job = j; csv; digest })
          (int_range 0 100000) (pair str_gen str_gen);
        map2
          (fun j m -> Wire.Error { job = j; message = m })
          (option (int_range 0 100000))
          str_gen;
        return Wire.Pong;
        return Wire.Bye;
      ])

let client_msg_arb =
  QCheck.make ~print:(fun m -> String.escaped (Wire.encode_client m)) client_msg_gen

let server_msg_arb =
  QCheck.make ~print:(fun m -> String.escaped (Wire.encode_server m)) server_msg_gen

(* --- codec properties --- *)

let test_client_roundtrip =
  QCheck.Test.make ~name:"client codec round-trips" ~count:500 client_msg_arb
    (fun m ->
      let enc = Wire.encode_client m in
      match Wire.decode_client enc with
      | Wire.Got (m', n) -> m' = m && n = String.length enc
      | Wire.Need_more | Wire.Bad _ -> false)

let test_server_roundtrip =
  QCheck.Test.make ~name:"server codec round-trips" ~count:500 server_msg_arb
    (fun m ->
      let enc = Wire.encode_server m in
      match Wire.decode_server enc with
      | Wire.Got (m', n) -> m' = m && n = String.length enc
      | Wire.Need_more | Wire.Bad _ -> false)

let test_frame_boundary =
  QCheck.Test.make ~name:"decoder consumes exactly one frame"
    ~count:200
    (QCheck.pair server_msg_arb server_msg_arb)
    (fun (m1, m2) ->
      let enc1 = Wire.encode_server m1 in
      match Wire.decode_server (enc1 ^ Wire.encode_server m2) with
      | Wire.Got (m', n) -> m' = m1 && n = String.length enc1
      | Wire.Need_more | Wire.Bad _ -> false)

let test_truncation =
  QCheck.Test.make ~name:"every strict prefix is Need_more" ~count:200
    client_msg_arb (fun m ->
      let enc = Wire.encode_client m in
      let ok = ref true in
      for n = 0 to String.length enc - 1 do
        match Wire.decode_client (String.sub enc 0 n) with
        | Wire.Need_more -> ()
        | Wire.Got _ | Wire.Bad _ -> ok := false
      done;
      !ok)

let test_garbage_total =
  QCheck.Test.make ~name:"decoder is total on arbitrary bytes" ~count:1000
    (QCheck.make
       QCheck.Gen.(
         string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 200)))
    (fun s ->
      (match Wire.decode_client s with
      | Wire.Got _ | Wire.Need_more | Wire.Bad _ -> ());
      (match Wire.decode_server s with
      | Wire.Got _ | Wire.Need_more | Wire.Bad _ -> ());
      true)

let flip_byte s i c =
  let b = Bytes.of_string s in
  Bytes.set b i c;
  Bytes.to_string b

let test_version_rejected =
  QCheck.Test.make ~name:"foreign protocol version is Bad" ~count:200
    client_msg_arb (fun m ->
      let enc = Wire.encode_client m in
      let bumped = flip_byte enc 1 (Char.chr ((Wire.version + 1) land 0xff)) in
      match Wire.decode_client bumped with
      | Wire.Bad _ -> true
      | Wire.Got _ | Wire.Need_more -> false)

let test_magic_rejected =
  QCheck.Test.make ~name:"wrong magic byte is Bad" ~count:200 client_msg_arb
    (fun m ->
      let enc = Wire.encode_client m in
      match Wire.decode_client (flip_byte enc 0 'X') with
      | Wire.Bad _ -> true
      | Wire.Got _ | Wire.Need_more -> false)

let model_arb = QCheck.make ~print:Core.Fault_model.name model_gen

let test_model_name_roundtrip =
  QCheck.Test.make ~name:"fault-model names round-trip" ~count:500 model_arb
    (fun m ->
      Core.Fault_model.of_name (Core.Fault_model.name m)
      = Some m)

let test_wire_is_v2 () =
  (* the model field changed the frame layout, so the version must have
     been bumped: a v1 peer fails fast (test_version_rejected) instead
     of misparsing model bytes as trial counts *)
  Alcotest.(check int) "model field bumped the protocol version" 2 Wire.version

(* --- planning --- *)

let test_shards_partition =
  QCheck.Test.make ~name:"shards partition the trial range" ~count:500
    (QCheck.pair (QCheck.int_range 1 60) (QCheck.int_range (-5) 500))
    (fun (chunk, trials) ->
      let shards = Engine.Scheduler.ranges ~chunk:(Some chunk) trials in
      if trials <= 0 then shards = [ (0, 0) ]
      else
        let rec tile at = function
          | [] -> at = trials
          | (first, count) :: rest ->
            first = at && count >= 1 && count <= chunk && tile (at + count) rest
        in
        tile 0 shards)

let test_default_chunk () =
  List.iter
    (fun (pool, trials) ->
      let c = Plan.default_chunk ~pool ~trials in
      Alcotest.(check bool)
        (Printf.sprintf "chunk for pool=%d trials=%d in bounds" pool trials)
        true
        (c >= 1 && c <= 50 && (trials <= 1 || c <= max 1 trials)))
    [ (1, 0); (1, 1); (2, 7); (4, 200); (8, 1000); (16, 3); (3, 1000000) ]

(* --- journal --- *)

let sample_job out =
  {
    Wire.j_workload = "mcf";
    j_tools = tools;
    j_categories = [ Core.Category.Arithmetic; Core.Category.All ];
    (* non-default: the journal's model token must survive the trip *)
    j_model = Core.Fault_model.Stuck_at_1;
    j_trials = 20;
    j_seed = 7;
    j_out = out;
  }

let sample_shard =
  {
    Joblog.s_tool = Core.Campaign.Llfi_tool;
    s_category = Core.Category.All;
    s_first = 10;
    s_count = 10;
    s_population = 12345;
    s_tally =
      {
        Core.Verdict.trials = 10;
        benign = 4;
        sdc = 3;
        crash = 2;
        hang = 1;
        not_activated = 0;
        not_injected = 0;
      };
  }

let with_tmp f =
  let path = Filename.temp_file "fi-serve-test" ".log" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_joblog_roundtrip () =
  with_tmp (fun path ->
      Sys.remove path;
      let t, entries = Joblog.start ~path in
      Alcotest.(check int) "fresh journal is empty" 0 (List.length entries);
      let out = Some "/tmp/out with space.csv" in
      Engine.Journal.record t
        (Joblog.Job { id = 1; chunk = 10; job = sample_job out });
      Engine.Journal.record t (Joblog.Shard { id = 1; shard = sample_shard });
      Engine.Journal.record t
        (Joblog.Job { id = 2; chunk = 5; job = sample_job None });
      Engine.Journal.record t (Joblog.Done { id = 1; digest = "cafebabe" });
      Engine.Journal.record t (Joblog.Fail { id = 2 });
      Engine.Journal.close t;
      match Joblog.load ~path with
      | [ e1; e2 ] ->
        Alcotest.(check int) "id order" 1 e1.Joblog.e_id;
        Alcotest.(check bool) "job 1 spec survives" true
          (e1.Joblog.e_job = sample_job (Some "/tmp/out with space.csv"));
        Alcotest.(check int) "chunk survives" 10 e1.Joblog.e_chunk;
        Alcotest.(check bool) "shard survives" true
          (e1.Joblog.e_shards = [ sample_shard ]);
        Alcotest.(check bool) "done flag" true e1.Joblog.e_done;
        Alcotest.(check bool) "fail flag" true e2.Joblog.e_failed;
        Alcotest.(check bool) "job 2 has no shards" true (e2.Joblog.e_shards = [])
      | es -> Alcotest.failf "expected 2 entries, got %d" (List.length es))

let test_joblog_torn_tail () =
  with_tmp (fun path ->
      Sys.remove path;
      let t, _ = Joblog.start ~path in
      Engine.Journal.record t
        (Joblog.Job { id = 1; chunk = 10; job = sample_job None });
      Engine.Journal.record t (Joblog.Shard { id = 1; shard = sample_shard });
      Engine.Journal.close t;
      (* simulate a SIGKILL mid-append: a torn, unterminated record *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "shard 1 LLFI all 20 10 123";
      close_out oc;
      match Joblog.load ~path with
      | [ e ] ->
        Alcotest.(check int) "torn shard line is skipped" 1
          (List.length e.Joblog.e_shards)
      | es -> Alcotest.failf "expected 1 entry, got %d" (List.length es))

(* A v2 journal (raw output paths, snapshot token) must be refused, not
   misread. *)
let test_joblog_header_mismatch () =
  with_tmp (fun path ->
      let oc = open_out path in
      output_string oc
        "# fi-serve-journal v2 snapshot=true\n\
         job 1 20 7 10 bitflip LLFI all mcf -\n";
      close_out oc;
      match Joblog.load ~path with
      | _ -> Alcotest.fail "v2 journal was accepted"
      | exception Invalid_argument _ -> ())

(* Any output path survives the journal: the path is the job line's
   only free-form field, and no byte of it — newlines that would forge
   job/shard/done lines on replay, "-", "", trailing spaces — may change
   what [load] reads back. *)
let test_joblog_out_roundtrip =
  let path_gen =
    QCheck.Gen.(
      oneof
        [
          str_gen;
          oneofl
            [
              "\njob 9 20 7 10 bitflip LLFI all mcf -";
              "x\nshard 1 LLFI all 0 10 5 10 10 0 0 0 0 0\ndone 1 00";
              "-";
              "";
              "out.csv  ";
              " ";
              "\"quoted\"";
            ];
        ])
  in
  QCheck.Test.make ~name:"output path round-trips" ~count:300
    (QCheck.make ~print:String.escaped path_gen) (fun out ->
      with_tmp (fun path ->
          Sys.remove path;
          let t, _ = Joblog.start ~path in
          Engine.Journal.record t
            (Joblog.Job { id = 1; chunk = 10; job = sample_job (Some out) });
          Engine.Journal.record t
            (Joblog.Job { id = 2; chunk = 5; job = sample_job None });
          Engine.Journal.close t;
          match Joblog.load ~path with
          | [ e1; e2 ] ->
            e1.Joblog.e_job = sample_job (Some out)
            && e1.Joblog.e_shards = [] && (not e1.Joblog.e_done)
            && e2.Joblog.e_id = 2
            && e2.Joblog.e_job = sample_job None
          | _ -> false))

(* A crash can cut the journal at any byte, inside an escaped output
   path included: every record kind must drop exactly a torn tail. *)
let test_joblog_torn_tail_everywhere =
  let nonempty g = QCheck.Gen.list_size (QCheck.Gen.int_range 1 3) g in
  let job_gen =
    QCheck.Gen.(
      map
        (fun ( (j_workload, j_tools, j_categories),
               (j_model, j_trials, j_seed),
               j_out ) ->
          {
            Wire.j_workload;
            j_tools;
            j_categories;
            j_model;
            j_trials;
            j_seed;
            j_out;
          })
        (triple
           (triple
              (oneofl [ "mcf"; "bzip2" ])
              (nonempty tool_gen) (nonempty cat_gen))
           (triple model_gen small_nat small_nat)
           (option str_gen)))
  in
  let shard_gen =
    QCheck.Gen.(
      map
        (fun ((s_tool, s_category), (s_first, s_count, s_population), s_tally)
           ->
          {
            Joblog.s_tool;
            s_category;
            s_first;
            s_count;
            s_population;
            s_tally;
          })
        (triple (pair tool_gen cat_gen)
           (triple small_nat small_nat nat)
           tally_gen))
  in
  Torn_tail.property ~name:"journal drops exactly a torn tail" ~count:20
    Joblog.schema
    QCheck.Gen.(
      small_nat >>= fun id ->
      oneof
        [
          map2
            (fun chunk job -> Joblog.Job { id; chunk; job })
            small_nat job_gen;
          map (fun shard -> Joblog.Shard { id; shard }) shard_gen;
          map
            (fun n -> Joblog.Done { id; digest = Printf.sprintf "%08x" n })
            nat;
          return (Joblog.Fail { id });
        ])

(* --- in-process service --- *)

let offline_csv (job : Wire.job) =
  let config =
    Plan.config_for ~base:Core.Campaign.default_config ~model:job.Wire.j_model
      ~trials:job.Wire.j_trials ~seed:job.Wire.j_seed
  in
  let w = Workloads.find_exn job.Wire.j_workload in
  let p = Core.Campaign.prepare config w in
  let cells =
    List.map
      (fun (tool, category) -> Core.Campaign.run_cell config p tool category)
      (Plan.cells job)
  in
  Core.Campaign.to_csv cells

let tmp_dir () =
  let d = Filename.temp_file "fi-serve" "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let start_server config =
  let ready = Atomic.make false in
  let domain =
    Domain.spawn (fun () ->
        Server.run ~on_ready:(fun () -> Atomic.set ready true) config)
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.01
  done;
  domain

let test_served_equals_offline () =
  let dir = tmp_dir () in
  let socket = Filename.concat dir "s.sock" in
  let config =
    { (Server.default ~socket) with Server.pool_size = 2; chunk = Some 3 }
  in
  let domain = start_server config in
  let job =
    {
      Wire.j_workload = "mcf";
      j_tools = tools;
      j_categories = [ Core.Category.Arithmetic; Core.Category.Cast ];
      j_model = Core.Fault_model.Bitflip;
      j_trials = 10;
      j_seed = 5;
      j_out = None;
    }
  in
  let c = Client.connect (Client.Unix_sock socket) in
  let _server, pool = Client.hello c ~name:"test" in
  Alcotest.(check int) "pool size reported" 2 pool;
  (match Client.submit c job with
  | Error e -> Alcotest.failf "submit failed: %s" e
  | Ok r ->
    Alcotest.(check string) "served CSV equals offline campaign"
      (offline_csv job) r.Client.r_csv;
    (* resubmit: the cell cache must stream the identical result *)
    (match Client.submit c job with
    | Error e -> Alcotest.failf "resubmit failed: %s" e
    | Ok r2 ->
      Alcotest.(check string) "cached resubmission is identical"
        r.Client.r_csv r2.Client.r_csv;
      Alcotest.(check string) "digests agree" r.Client.r_digest
        r2.Client.r_digest));
  Client.shutdown c ~drain:true;
  Client.close c;
  let stats = Domain.join domain in
  Alcotest.(check int) "both submissions admitted" 2 stats.Server.admitted;
  Alcotest.(check int) "both completed" 2 stats.Server.completed;
  Alcotest.(check int) "none failed" 0 stats.Server.failed

let test_warm_shards_byte_identical () =
  (* Second job on an already-warm workload: the prepared structures,
     rejoin journals and per-domain runner caches are all reused, but
     the cells themselves re-execute (a different trials+seed misses
     the cell cache).  The streamed batches must remain byte-identical
     to an offline campaign with no service and no rejoin. *)
  let dir = tmp_dir () in
  let socket = Filename.concat dir "s.sock" in
  let config =
    { (Server.default ~socket) with Server.pool_size = 2; chunk = Some 4 }
  in
  let domain = start_server config in
  let job trials seed =
    {
      Wire.j_workload = "libquantum";
      j_tools = tools;
      j_categories = [ Core.Category.Load; Core.Category.Cmp ];
      (* a non-default model rides the whole serve path end to end *)
      j_model = Core.Fault_model.Stuck_at_1;
      j_trials = trials;
      j_seed = seed;
      j_out = None;
    }
  in
  let c = Client.connect (Client.Unix_sock socket) in
  let _server, _pool = Client.hello c ~name:"warm" in
  (match Client.submit c (job 8 1) with
  | Error e -> Alcotest.failf "cold submit failed: %s" e
  | Ok _ -> ());
  (match Client.submit c (job 14 9) with
  | Error e -> Alcotest.failf "warm submit failed: %s" e
  | Ok r ->
    Alcotest.(check string) "warm-service shards byte-identical to offline"
      (offline_csv (job 14 9))
      r.Client.r_csv);
  Client.shutdown c ~drain:true;
  Client.close c;
  let stats = Domain.join domain in
  Alcotest.(check int) "no failures" 0 stats.Server.failed

let test_invalid_job_rejected () =
  let dir = tmp_dir () in
  let socket = Filename.concat dir "s.sock" in
  let config = { (Server.default ~socket) with Server.pool_size = 1 } in
  let domain = start_server config in
  let c = Client.connect (Client.Unix_sock socket) in
  (match
     Client.submit c
       {
         Wire.j_workload = "no-such-workload";
         j_tools = tools;
         j_categories = [ Core.Category.All ];
         j_model = Core.Fault_model.Bitflip;
         j_trials = 1;
         j_seed = 0;
         j_out = None;
       }
   with
  | Ok _ -> Alcotest.fail "unknown workload was accepted"
  | Error m ->
    let mentions_workload =
      try
        ignore (Str.search_forward (Str.regexp_string "no-such-workload") m 0);
        true
      with Not_found -> false
    in
    Alcotest.(check bool) "error names the workload" true mentions_workload);
  Client.shutdown c ~drain:true;
  Client.close c;
  let stats = Domain.join domain in
  Alcotest.(check int) "rejected job is not admitted" 0 stats.Server.admitted

(* Satellite 6: a drain-shutdown racing an in-flight job must neither
   lose nor duplicate a verdict batch.  Client.submit's stream
   verification (exact tiling of every cell's trial range + CSV/digest
   re-derivation) is the detector; the small chunk forces many batches
   so the drain lands mid-stream. *)
let test_drain_no_loss_no_dup () =
  let dir = tmp_dir () in
  let socket = Filename.concat dir "s.sock" in
  let config =
    { (Server.default ~socket) with Server.pool_size = 2; chunk = Some 2 }
  in
  let domain = start_server config in
  let job =
    {
      Wire.j_workload = "mcf";
      j_tools = [ Core.Campaign.Llfi_tool ];
      j_categories = [ Core.Category.Arithmetic; Core.Category.Cmp ];
      j_model = Core.Fault_model.Bitflip;
      j_trials = 30;
      j_seed = 13;
      j_out = None;
    }
  in
  let c = Client.connect (Client.Unix_sock socket) in
  let shutter =
    Domain.spawn (fun () ->
        (* land the drain request while the job is mid-stream *)
        Unix.sleepf 0.05;
        let c2 = Client.connect (Client.Unix_sock socket) in
        Client.shutdown c2 ~drain:true;
        Client.close c2)
  in
  (match Client.submit c job with
  | Error e -> Alcotest.failf "drained job failed: %s" e
  | Ok r ->
    Alcotest.(check string) "drained job's CSV equals offline"
      (offline_csv job) r.Client.r_csv);
  Domain.join shutter;
  Client.close c;
  let stats = Domain.join domain in
  Alcotest.(check int) "in-flight job completed across drain" 1
    stats.Server.completed;
  Alcotest.(check int) "no failures" 0 stats.Server.failed

(* A journaled, unfinished job (client long gone) resumes headless on
   restart: only missing shards re-run, and the server-side output file
   is byte-identical to the offline campaign. *)
let test_journal_resume_headless () =
  let dir = tmp_dir () in
  let socket = Filename.concat dir "s.sock" in
  let journal = Filename.concat dir "j.log" in
  let out = Filename.concat dir "resumed.csv" in
  let chunk = 4 in
  let job =
    {
      Wire.j_workload = "mcf";
      j_tools = [ Core.Campaign.Pinfi_tool ];
      j_categories = [ Core.Category.Load ];
      (* a non-default model must survive the journal and resume under
         the same trial streams *)
      j_model = Core.Fault_model.Skip;
      j_trials = 12;
      j_seed = 3;
      j_out = Some out;
    }
  in
  (* forge the journal a SIGKILLed server would leave behind: the job
     admitted, exactly one shard checkpointed *)
  let config =
    Plan.config_for ~base:Core.Campaign.default_config ~model:job.Wire.j_model
      ~trials:job.Wire.j_trials ~seed:job.Wire.j_seed
  in
  let p = Core.Campaign.prepare config (Workloads.find_exn "mcf") in
  let first_shard =
    Core.Campaign.run_cell_range config p Core.Campaign.Pinfi_tool
      Core.Category.Load ~first:0 ~count:chunk
  in
  let t, _ = Joblog.start ~path:journal in
  Engine.Journal.record t (Joblog.Job { id = 1; chunk; job });
  Engine.Journal.record t
    (Joblog.Shard
       {
         id = 1;
         shard =
           {
             s_tool = Core.Campaign.Pinfi_tool;
             s_category = Core.Category.Load;
             s_first = 0;
             s_count = chunk;
             s_population = first_shard.Core.Campaign.c_population;
             s_tally = first_shard.Core.Campaign.c_tally;
           };
       });
  Engine.Journal.close t;
  let server_config =
    {
      (Server.default ~socket) with
      Server.pool_size = 2;
      chunk = Some chunk;
      journal = Some journal;
    }
  in
  let domain = start_server server_config in
  (* draining waits for the resumed headless job before Bye *)
  let c = Client.connect (Client.Unix_sock socket) in
  Client.shutdown c ~drain:true;
  Client.close c;
  let stats = Domain.join domain in
  Alcotest.(check int) "one job resumed" 1 stats.Server.resumed;
  Alcotest.(check int) "resumed job completed" 1 stats.Server.completed;
  let ic = open_in_bin out in
  let csv = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "resumed output equals offline campaign"
    (offline_csv job) csv;
  (* the journal now carries the terminal record: a second start resumes
     nothing *)
  match Joblog.load ~path:journal with
  | [ e ] ->
    Alcotest.(check bool) "journal records completion" true e.Joblog.e_done;
    Alcotest.(check bool) "only missing shards were journaled by the resume"
      true
      (List.length e.Joblog.e_shards
      = List.length
          (Engine.Scheduler.ranges ~chunk:(Some chunk) job.Wire.j_trials))
  | es -> Alcotest.failf "expected 1 journal entry, got %d" (List.length es)

let () =
  Alcotest.run "serve"
    [
      ( "codec",
        [
          QCheck_alcotest.to_alcotest test_client_roundtrip;
          QCheck_alcotest.to_alcotest test_server_roundtrip;
          QCheck_alcotest.to_alcotest test_frame_boundary;
          QCheck_alcotest.to_alcotest test_truncation;
          QCheck_alcotest.to_alcotest test_garbage_total;
          QCheck_alcotest.to_alcotest test_version_rejected;
          QCheck_alcotest.to_alcotest test_magic_rejected;
          QCheck_alcotest.to_alcotest test_model_name_roundtrip;
          ("wire protocol is v2", `Quick, test_wire_is_v2);
        ] );
      ( "planning",
        [
          QCheck_alcotest.to_alcotest test_shards_partition;
          ("default chunk bounds", `Quick, test_default_chunk);
        ] );
      ( "journal",
        [
          ("record round-trip", `Quick, test_joblog_roundtrip);
          ("torn tail is skipped", `Quick, test_joblog_torn_tail);
          ("header mismatch refused", `Quick, test_joblog_header_mismatch);
          QCheck_alcotest.to_alcotest test_joblog_out_roundtrip;
          QCheck_alcotest.to_alcotest test_joblog_torn_tail_everywhere;
        ] );
      ( "service",
        [
          ("served CSV equals offline", `Slow, test_served_equals_offline);
          ( "warm shards byte-identical",
            `Slow,
            test_warm_shards_byte_identical );
          ("invalid job rejected", `Quick, test_invalid_job_rejected);
          ("drain loses and duplicates nothing", `Slow, test_drain_no_loss_no_dup);
          ("journal resume is headless and exact", `Slow, test_journal_resume_headless);
        ] );
    ]
