(* The torn-tail property every Engine.Journal schema must satisfy: a
   log cut at any byte offset, as a crash mid-append leaves it, loads
   exactly the records whose newline survived, and a resume then appends
   a record that loads after them. *)

let read path = In_channel.with_open_bin path In_channel.input_all

let write path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let property ~name ~count (schema : 'a Engine.Journal.schema) gen =
  let print (records, extra) =
    String.concat "\n" (List.map schema.encode (records @ [ extra ]))
  in
  QCheck.Test.make ~name ~count
    (QCheck.make ~print QCheck.Gen.(pair (list_size (int_range 0 5) gen) gen))
    (fun (records, extra) ->
      let path = Filename.temp_file "fi-torn-tail" ".log" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      let log, _ = Engine.Journal.start schema ~path ~resume:false in
      List.iter (Engine.Journal.record log) records;
      Engine.Journal.close log;
      let full = read path in
      (* the byte offset just past each record's newline *)
      let ends =
        List.rev
          (snd
             (List.fold_left
                (fun (at, acc) r ->
                  let at = at + String.length (schema.encode r) + 1 in
                  (at, at :: acc))
                (String.length schema.header + 1, [])
                records))
      in
      let lines = List.map schema.encode in
      List.for_all
        (fun cut ->
          write path (String.sub full 0 cut);
          let survived =
            List.filteri (fun i _ -> List.nth ends i <= cut) records
          in
          let loaded = Engine.Journal.load schema ~path in
          let log, resumed = Engine.Journal.start schema ~path ~resume:true in
          Engine.Journal.record log extra;
          Engine.Journal.close log;
          lines loaded = lines survived
          && lines resumed = lines survived
          && lines (Engine.Journal.load schema ~path)
             = lines (survived @ [ extra ]))
        (List.init (String.length full + 1) Fun.id))
