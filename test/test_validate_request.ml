(* The one validate pipeline (Graphql_pg.Validate_request) through its
   three front doors — `gpgs validate`, `gpgs batch` and the served
   validate op: one table of usage errors, answered alike and before any
   file is read; batch over snapshots on every compiled engine; and the
   pipeline's crash and damaged-snapshot reports. *)

module GP = Graphql_pg
module Json = GP.Json
module VR = GP.Validate_request
module Service = Pg_server.Service

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)

let test_dir = Filename.dirname Sys.executable_name
let in_repo rel = Filename.concat test_dir rel
let movies_sdl = in_repo "../examples/movies.graphql"
let movies_pgf = in_repo "../examples/movies.pgf"
let broken_sdl = in_repo "../examples/broken.graphql"
let quote = Filename.quote

let read_file path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

(* Run gpgs (behind [prefix], e.g. a timeout): exit code, stdout, stderr. *)
let run_cli ?(prefix = "") args =
  let out = Filename.temp_file "gpgs_vr" ".out" and err = Filename.temp_file "gpgs_vr" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s%s %s > %s 2> %s" prefix
         (quote (in_repo "../bin/gpgs.exe"))
         args (quote out) (quote err))
  in
  let o = read_file out and e = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, o, e)

let decode text =
  match Json.of_string text with
  | Ok j -> j
  | Error msg -> Alcotest.failf "not JSON (%s): %s" msg text

let int_of = function Json.Int i -> i | _ -> -1
let string_of = function Json.String s -> s | _ -> "?"
let diagnostics j = match Json.member "diagnostics" j with Json.List ds -> ds | _ -> []

(* Exactly one CLI001 diagnostic with [message], in an exit-2 envelope. *)
let check_usage ~what ~message j =
  check_int (what ^ ": envelope exit") 2 (int_of (Json.member "exit" j));
  match diagnostics j with
  | [ d ] ->
    check_string (what ^ ": code") "CLI001" (string_of (Json.member "code" d));
    check_string (what ^ ": message") message (string_of (Json.member "message" d))
  | ds -> Alcotest.failf "%s: %d diagnostics, expected one CLI001" what (List.length ds)

(* ---- one table of usage errors, three front doors ---- *)

type row = {
  what : string;
  schema : string;
  flags : string;  (** for validate and batch *)
  fields : (string * Json.t) list option;  (** the served request's; None: CLI only *)
  message : string;
}

let row ?(schema = movies_sdl) ?fields what flags message = { what; schema; flags; fields; message }

let rows =
  let s v = Json.String v and i v = Json.Int v in
  [
    row "domains 0" "--domains 0" ~fields:[ ("domains", i 0) ]
      "--domains must be at least 1 (got 0)";
    row "shards 0" "--engine sharded --shards 0"
      ~fields:[ ("engine", s "sharded"); ("shards", i 0) ]
      "--shards must be at least 1 (got 0)";
    row "shards off the sharded engine" "--shards 2" ~fields:[ ("shards", i 2) ]
      "--shards applies to --engine sharded only";
    row "streaming with a snapshot" "--snapshot --stream"
      "--snapshot input is already frozen; the streaming ingestion flags apply to PGF text only";
    row "negative deadline" "--deadline-ms=-1" ~fields:[ ("deadline_ms", i (-1)) ]
      "--deadline-ms must be non-negative (got -1)";
    row "negative violation cap" "--max-violations=-2" ~fields:[ ("max_violations", i (-2)) ]
      "--max-violations must be non-negative (got -2)";
    row "negative retries" "--retries=-1" "--retries must be non-negative (got -1)";
    (* a usage error beats a broken schema: usage is answered before any
       file is read *)
    row "usage error with a broken schema" ~schema:broken_sdl "--domains 0"
      ~fields:[ ("domains", i 0) ]
      "--domains must be at least 1 (got 0)";
  ]

let test_usage_table () =
  let svc = Service.create () in
  List.iter
    (fun r ->
      (* the graph is PGF text even for the snapshot rows: nothing reads it *)
      List.iter
        (fun cmd ->
          let what = cmd ^ ": " ^ r.what in
          let code, out, _ =
            run_cli
              (Printf.sprintf "%s %s %s %s --format json" cmd (quote r.schema) (quote movies_pgf)
                 r.flags)
          in
          check_int (what ^ ": process exit") 2 code;
          check_usage ~what ~message:r.message (decode out))
        [ "validate"; "batch" ];
      Option.iter
        (fun fields ->
          let line =
            Json.to_string
              (Json.Assoc
                 ([
                    ("op", Json.String "validate");
                    ("schema", Json.String r.schema);
                    ("graph", Json.String movies_pgf);
                  ]
                 @ fields))
          in
          check_usage ~what:("served: " ^ r.what) ~message:r.message
            (decode (Service.handle svc line)))
        r.fields)
    rows;
  let stats = decode (Service.handle svc {|{"op":"stats"}|}) in
  check_int "no served usage error counts as a crash" 0
    (int_of (Json.member "crashed" (Json.member "summary" stats)));
  check_int "no plan was compiled" 0
    (int_of (Json.member "misses" (Json.member "plan_cache" (Json.member "summary" stats))))

let test_budget_flags_elsewhere () =
  List.iter
    (fun (cmd, args) ->
      let code, out, _ =
        run_cli
          (Printf.sprintf "%s %s %s --deadline-ms=-1 --format json" cmd (quote movies_sdl) args)
      in
      check_int (cmd ^ ": process exit") 2 code;
      check_usage ~what:cmd ~message:"--deadline-ms must be non-negative (got -1)" (decode out))
    [ ("check", ""); ("sat", "Movie") ];
  (* gpgs serve refuses a negative default budget at startup... *)
  List.iter
    (fun (flag, message) ->
      let code, _, err = run_cli ~prefix:"timeout 20 " ("serve --port 0 " ^ flag) in
      check_int (flag ^ ": serve exit") 2 code;
      check_string (flag ^ ": serve stderr") ("gpgs serve: " ^ message ^ "\n") err)
    [
      ("--deadline-ms=-5", "--deadline-ms must be non-negative (got -5)");
      ("--max-violations=-1", "--max-violations must be non-negative (got -1)");
    ];
  (* ...and a service configured with one answers CLI001, not SRV005 *)
  let svc =
    Service.create
      ~config:{ Service.default_config with Service.default_deadline_ms = Some (-5.) }
      ()
  in
  let line =
    Printf.sprintf {|{"op":"validate","schema":%S,"graph":%S}|} movies_sdl movies_pgf
  in
  check_usage ~what:"served default" ~message:"--deadline-ms must be non-negative (got -5)"
    (decode (Service.handle svc line))

(* ---- batch over snapshots: one snapshot path for every engine ---- *)

let with_snapshots f =
  let snap = Filename.temp_file "gpgs_vr" ".snap" in
  let bad = Filename.temp_file "gpgs_vr_bad" ".snap" in
  let st = GP.Symtab.create () in
  (match GP.Pgf.load_columns movies_pgf with
  | Ok columns -> ignore (GP.Snapshot_io.write st (GP.Snapshot.freeze st columns) snap)
  | Error _ -> Alcotest.fail "movies.pgf");
  let bytes = Bytes.of_string (read_file snap) in
  Bytes.set bytes 600 (Char.chr (Char.code (Bytes.get bytes 600) lxor 0xff));
  write_file bad (Bytes.to_string bytes);
  Fun.protect ~finally:(fun () -> List.iter Sys.remove [ snap; bad ]) (fun () -> f snap bad)

let jobs j =
  match Json.member "jobs" (Json.member "summary" j) with Json.List js -> js | _ -> []

let test_batch_snapshot () =
  with_snapshots (fun snap bad ->
    let batch engine extra =
      run_cli
        (Printf.sprintf "batch %s %s %s --snapshot %s %s --format json" (quote movies_sdl)
           (quote snap) (quote bad) engine extra)
    in
    let code, indexed, _ = batch "--engine indexed" "" in
    let sharded_code, sharded, _ = batch "--engine sharded --shards 3" "" in
    check_string "indexed and sharded envelopes are identical" indexed sharded;
    check_int "exit" 2 code;
    check_int "sharded exit" 2 sharded_code;
    let j = decode indexed in
    let statuses = List.map (fun job -> string_of (Json.member "status" job)) (jobs j) in
    check_bool "one completed job, one unreadable" true (statuses = [ "completed"; "unreadable" ]);
    let completed =
      match jobs j with job :: _ -> int_of (Json.member "diagnostics" job) | [] -> 0
    in
    let ds = diagnostics j in
    check_string "the damaged file fails its checksum" "IO005"
      (string_of (Json.member "code" (List.nth ds completed)));
    check_int "nothing after the unreadable job's one diagnostic" (completed + 1) (List.length ds);
    (* the completed job reports what validate --snapshot reports *)
    let _, single, _ =
      run_cli
        (Printf.sprintf "validate %s %s --snapshot --format json" (quote movies_sdl) (quote snap))
    in
    check_string "completed job = validate --snapshot"
      (Json.to_string (Json.List (diagnostics (decode single))))
      (Json.to_string (Json.List (List.filteri (fun i _ -> i < completed) ds)));
    (* under a violation cap the job is partial on both engines (the
       partial diagnostics themselves may differ between engines) *)
    List.iter
      (fun engine ->
        let _, out, _ = batch engine "--max-violations 1" in
        match jobs (decode out) with
        | job :: _ ->
          check_string (engine ^ ": capped") "partial" (string_of (Json.member "status" job))
        | [] -> Alcotest.fail "no jobs")
      [ "--engine indexed"; "--engine sharded --shards 3" ])

let test_damaged_snapshot_text () =
  (* text mode: every compiled engine reports a damaged snapshot as
     PATH: MESSAGE on stderr, with no envelope and the input exit *)
  with_snapshots (fun _ bad ->
    let stderr_of engine =
      let code, out, err =
        run_cli
          (Printf.sprintf "validate %s %s --snapshot --engine %s" (quote movies_sdl) (quote bad)
             engine)
      in
      check_int (engine ^ ": exit") 2 code;
      check_string (engine ^ ": no stdout") "" out;
      err
    in
    let indexed = stderr_of "indexed" in
    check_bool "PATH: MESSAGE" true
      (String.starts_with ~prefix:(bad ^ ": checksum mismatch") indexed);
    List.iter
      (fun engine -> check_string (engine ^ " = indexed") indexed (stderr_of engine))
      [ "linear"; "parallel"; "sharded --shards 2" ])

(* ---- a crash inside the engine ---- *)

let test_crash_is_val002 () =
  (* A snapshot interned into a symbol table other than the plan's: the
     engine reads ids the plan's symtab never assigned and raises.  The
     supervisor catches it whatever the retry count, and the outcome is a
     VAL002 report of the budget class (exit 3) — what `gpgs validate`
     prints and batch records as a crashed job. *)
  let plan =
    match GP.Of_ast.parse (read_file movies_sdl) with
    | Ok sch -> GP.Validate.compile sch
    | Error msg -> Alcotest.fail msg
  in
  let stranger = GP.Symtab.create () in
  for i = 0 to 999 do
    ignore (GP.Symtab.intern stranger (Printf.sprintf "pad%d" i))
  done;
  let snap =
    match GP.Pgf.load_columns movies_pgf with
    | Ok columns -> GP.Snapshot.freeze stranger columns
    | Error _ -> Alcotest.fail "movies.pgf"
  in
  let held = { (VR.local plan) with VR.snapshot = (fun _ -> Ok snap) } in
  let request =
    {
      VR.snapshot = true;
      engine = GP.Validate.Indexed;
      mode = GP.Validate.Strong;
      domains = None;
      shards = None;
      stream = false;
      quarantine = None;
      max_input_errors = None;
      deadline_ms = None;
      max_violations = None;
      retries = 0;
    }
  in
  match VR.run ~plan:(fun () -> Ok held) request "stranger.snap" with
  | VR.Crashed { crash; _ } as outcome ->
    check_int "one attempt" 1 crash.GP.Supervisor.crash_attempts;
    let diags = VR.diagnostics outcome in
    check_bool "one VAL002" true
      (List.map (fun (d : GP.Diag.t) -> d.GP.Diag.code) diags = [ "VAL002" ]);
    check_bool "classified, not forced" true (VR.cls outcome = None);
    check_int "exit 3" 3 GP.Diag.Exit.(code (classify diags));
    check_bool "a crashed batch job" true
      ((VR.job_report "stranger.snap" outcome).GP.Supervisor.job_status
      = GP.Supervisor.Crashed_job)
  | _ -> Alcotest.fail "expected the engine to crash"

let suite =
  [
    Alcotest.test_case "usage errors: one table, three front doors" `Quick test_usage_table;
    Alcotest.test_case "negative budgets on check, sat and serve" `Quick
      test_budget_flags_elsewhere;
    Alcotest.test_case "batch --snapshot: indexed = sharded" `Quick test_batch_snapshot;
    Alcotest.test_case "damaged snapshot: same text for every engine" `Quick
      test_damaged_snapshot_text;
    Alcotest.test_case "an engine crash is VAL002" `Quick test_crash_is_val002;
  ]
