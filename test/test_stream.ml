(* Streaming fault-tolerant ingestion (lib/graph/stream.ml, the
   incremental Pgf/Graphml readers) and the supervised job runner
   (lib/validation/supervisor.ml).

   - differential qcheck: the streaming readers agree with the slurp
     parsers on every generated instance, at every chunk size, on clean
     and corrupted texts alike;
   - fault injection: a garbled record is skipped atomically and
     quarantined exactly, the partial graph still validates, and the
     error budget stops ingestion deterministically;
   - supervision: the exception firewall, the deterministic backoff
     schedule, the retry policy, and the VAL002 crash taxonomy. *)

module GP = Graphql_pg
module G = GP.Property_graph
module Pgf = GP.Pgf
module Graphml = GP.Graphml
module Stream = GP.Stream
module Chunked = GP.Chunked
module Corruption = GP.Corruption
module Sup = GP.Supervisor
module Diag = GP.Diag

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let seeded_rng seed = Random.State.make [| seed; 0x57EA4 |]
let social seed = GP.Social.generate ~seed ~persons:(3 + (seed mod 6)) ()

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  text

(* ---- differential: streaming == slurp, at every chunk size ---- *)

let chunk_sizes text = [ 1; 3; 7; 64; max 1 (String.length text) ]

let pgf_result_equal a b =
  match (a, b) with
  | Ok g1, Ok g2 -> G.equal g1 g2
  | Result.Error (e1 : Pgf.error), Result.Error (e2 : Pgf.error) ->
    e1.line = e2.line && e1.message = e2.message
  | Ok _, Result.Error _ | Result.Error _, Ok _ -> false

let graphml_result_equal a b =
  match (a, b) with
  | Ok g1, Ok g2 -> G.equal g1 g2
  | Result.Error (e1 : Graphml.error), Result.Error (e2 : Graphml.error) ->
    e1.message = e2.message
  | Ok _, Result.Error _ | Result.Error _, Ok _ -> false

let differential ~name ~count gen_text result_equal parse read =
  QCheck2.Test.make ~name ~count
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun seeds ->
      let text = gen_text seeds in
      let slurp = parse text in
      List.for_all
        (fun chunk_size -> result_equal slurp (read (Chunked.of_string ~chunk_size text)))
        (chunk_sizes text))

let clean_pgf (seed, _) = Pgf.print (social seed)
let clean_graphml (seed, _) = Graphml.to_string (social seed)

let corrupted corrupt gen (seed, fault_seed) =
  corrupt (seeded_rng fault_seed) (gen (seed, fault_seed))

let prop_pgf_clean =
  differential ~name:"PGF: streaming == slurp on clean instances" ~count:60 clean_pgf
    pgf_result_equal Pgf.parse Pgf.read

let prop_pgf_corrupted =
  differential ~name:"PGF: streaming == slurp on corrupted instances" ~count:120
    (corrupted Corruption.corrupt_text clean_pgf)
    pgf_result_equal Pgf.parse Pgf.read

let prop_graphml_clean =
  differential ~name:"GraphML: streaming == slurp on clean instances" ~count:40 clean_graphml
    graphml_result_equal Graphml.parse Graphml.read

let prop_graphml_corrupted =
  differential ~name:"GraphML: streaming == slurp on corrupted instances" ~count:120
    (corrupted Corruption.corrupt_text clean_graphml)
    graphml_result_equal Graphml.parse Graphml.read

(* the tolerant reader must not care about chunk geometry either *)
let thawed (o : GP.Staging.t Stream.outcome) = GP.Staging.thaw o.graph

let outcome_equal (a : GP.Staging.t Stream.outcome) (b : GP.Staging.t Stream.outcome) =
  G.equal (thawed a) (thawed b) && a.complete = b.complete && a.faults = b.faults
  && a.budget_exhausted = b.budget_exhausted
  && a.records = b.records

let prop_tolerant_chunk_invariant =
  QCheck2.Test.make ~name:"PGF tolerant reader is chunk-size invariant" ~count:60
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (seed, fault_seed) ->
      let text = Pgf.print (social seed) in
      let bad =
        match Corruption.garble_record (seeded_rng fault_seed) text with
        | Some (_, t) -> t
        | None -> text
      in
      let reference = Stream.read_pgf (Stream.of_string bad) in
      List.for_all
        (fun chunk_size ->
          outcome_equal reference (Stream.read_pgf (Chunked.of_string ~chunk_size bad)))
        (chunk_sizes bad))

(* ---- fault injection: skip, quarantine, budget ---- *)

let sample =
  "# demo\n\
   node a :A {x: 1}\n\
   node b :B\n\
   edge a -> b :r\n\
   edge b -> a :s {w: 0.5}\n"

let map_line n f text =
  String.concat "\n"
    (List.mapi (fun i l -> if i + 1 = n then f l else l) (String.split_on_char '\n' text))

let garble_line n text = map_line n (fun l -> Corruption.garble_marker ^ l) text
let drop_line n text = map_line n (fun _ -> "") text

let test_garbled_edge_skipped () =
  let bad = garble_line 4 sample in
  let o = Stream.read_pgf (Stream.of_string bad) in
  check_int "one fault" 1 (List.length o.faults);
  let f = List.hd o.faults in
  check_int "fault record is the garbled line" 4 f.record;
  check_string "fault carries the raw record" (Corruption.garble_marker ^ "edge a -> b :r") f.text;
  check_string "fault subject" "line 4" f.subject;
  check_bool "incomplete" false o.complete;
  check_bool "no early stop" false o.budget_exhausted;
  check_int "all records seen" 4 o.records;
  (* atomic skip: the graph is as if the record were absent *)
  match Pgf.parse (drop_line 4 sample) with
  | Ok expected -> check_bool "graph minus the record" true (G.equal (thawed o) expected)
  | Result.Error _ -> Alcotest.fail "reference parse failed"

let test_garbled_node_cascades () =
  (* dropping [node a] also faults both edges that reference [a] *)
  let bad = garble_line 2 sample in
  let o = Stream.read_pgf (Stream.of_string bad) in
  check_int "cascading faults" 3 (List.length o.faults);
  check_bool "fault order" true
    (List.map (fun (f : Stream.fault) -> f.record) o.faults = [ 2; 4; 5 ]);
  check_int "surviving node" 1 (G.node_count (thawed o));
  check_int "no surviving edge" 0 (G.edge_count (thawed o))

let test_error_budget () =
  let text = "node a :A\nnode b :B\nnode c :C\nnode d :D\n" in
  let bad = garble_line 1 (garble_line 2 (garble_line 3 text)) in
  (* budget 1: one fault tolerated, the second is recorded, then stop *)
  let o = Stream.read_pgf ~max_errors:1 (Stream.of_string bad) in
  check_int "two faults reported" 2 (List.length o.faults);
  check_bool "budget exhausted" true o.budget_exhausted;
  check_bool "incomplete" false o.complete;
  check_int "stopped at record 2" 2 o.records;
  check_int "nothing ingested" 0 (G.node_count (thawed o));
  (* unlimited budget reads to the end *)
  let o' = Stream.read_pgf (Stream.of_string bad) in
  check_int "all faults without budget" 3 (List.length o'.faults);
  check_bool "no early stop without budget" false o'.budget_exhausted;
  check_int "clean tail ingested" 1 (G.node_count (thawed o'))

let test_quarantine_exact () =
  let input = Filename.temp_file "gpgs_stream" ".pgf" in
  let quarantine = Filename.temp_file "gpgs_stream" ".quarantine" in
  Sys.remove quarantine;
  let garbled = Corruption.garble_marker ^ "edge a -> b :r" in
  write_file input (garble_line 4 sample);
  (match Stream.load_pgf ~quarantine input with
  | Ok o ->
    check_bool "incomplete" false o.complete;
    check_string "quarantine holds exactly the corrupted record" (garbled ^ "\n")
      (read_file quarantine)
  | Result.Error e -> Alcotest.failf "load failed: %a" Pgf.pp_error e);
  Sys.remove quarantine;
  (* a clean ingest must not leave an empty quarantine file behind *)
  write_file input sample;
  (match Stream.load_pgf ~quarantine input with
  | Ok o ->
    check_bool "complete" true o.complete;
    check_bool "no quarantine file on clean input" false (Sys.file_exists quarantine)
  | Result.Error e -> Alcotest.failf "clean load failed: %a" Pgf.pp_error e);
  Sys.remove input

let prop_quarantine_matches_faults =
  QCheck2.Test.make ~name:"quarantine file == faulted records, one per line" ~count:15
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (seed, fault_seed) ->
      match Corruption.garble_record (seeded_rng fault_seed) (Pgf.print (social seed)) with
      | None -> true
      | Some (_, bad) ->
        let input = Filename.temp_file "gpgs_stream" ".pgf" in
        let quarantine = input ^ ".quarantine" in
        write_file input bad;
        let ok =
          match Stream.load_pgf ~quarantine input with
          | Ok o ->
            let expected =
              String.concat "" (List.map (fun (f : Stream.fault) -> f.text ^ "\n") o.faults)
            in
            (not o.complete) && o.faults <> [] && read_file quarantine = expected
          | Result.Error _ -> false
        in
        Sys.remove input;
        if Sys.file_exists quarantine then Sys.remove quarantine;
        ok)

let prop_duplicate_record =
  QCheck2.Test.make ~name:"duplicated node is one fault; duplicated edge is silent" ~count:60
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (seed, fault_seed) ->
      let text = Pgf.print (social seed) in
      match Corruption.duplicate_record (seeded_rng fault_seed) text with
      | None -> true
      | Some (line, bad) ->
        let o = Stream.read_pgf (Stream.of_string bad) in
        let dup = List.nth (String.split_on_char '\n' bad) (line - 1) in
        if String.length dup >= 4 && String.sub dup 0 4 = "node" then
          (* exactly the duplicate handle faults; the graph is unchanged *)
          List.length o.faults = 1
          && (List.hd o.faults).record = line
          && (List.hd o.faults).text = dup
          && (not o.complete)
          && G.equal (thawed o) (Result.get_ok (Pgf.parse text))
        else o.faults = [] && o.complete)

let test_partial_graph_still_validates () =
  let sch = GP.Social.schema () in
  let text = Pgf.print (GP.Social.generate ~seed:7 ~persons:8 ()) in
  match Corruption.garble_record (seeded_rng 3) text with
  | None -> Alcotest.fail "no record to garble"
  | Some (_, bad) ->
    let o = Stream.read_pgf (Stream.of_string bad) in
    check_bool "ingest incomplete" false o.complete;
    (* the partial graph flows into validation like any other graph *)
    let report = GP.Validate.check sch (thawed o) in
    check_bool "validation completed on the partial graph" true report.GP.Validate.complete;
    check_int "every surviving node checked" (G.node_count (thawed o))
      report.GP.Validate.nodes_checked

let test_graphml_tolerant_unknown_endpoint () =
  let g, a = G.add_node G.empty ~label:"A" () in
  let g, b = G.add_node g ~label:"B" () in
  let g, _ = G.add_edge g ~label:"r" a b in
  let xml = Graphml.to_string g in
  let replace_first hay needle repl =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      if i + nn > nh then hay
      else if String.sub hay i nn = needle then
        String.sub hay 0 i ^ repl ^ String.sub hay (i + nn) (nh - i - nn)
      else go (i + 1)
    in
    go 0
  in
  (* retarget the edge at a node that does not exist *)
  let bad = replace_first xml {|target="n1"|} {|target="n9"|} in
  check_bool "fixture changed" true (bad <> xml);
  match Stream.read_graphml (Stream.of_string bad) with
  | Ok o ->
    check_int "one fault" 1 (List.length o.faults);
    check_bool "edge fault mentions the endpoint" true
      (contains (List.hd o.faults).message "n9");
    check_bool "incomplete" false o.complete;
    check_int "both nodes survive" 2 (G.node_count o.graph);
    check_int "the edge does not" 0 (G.edge_count o.graph)
  | Result.Error e -> Alcotest.failf "tolerant read failed: %a" Graphml.pp_error e

let test_ingest_diagnostics () =
  let bad = garble_line 1 (garble_line 2 (garble_line 3 "node a :A\nnode b :B\nnode c :C\n")) in
  let o = Stream.read_pgf ~max_errors:1 (Stream.of_string bad) in
  let diags = GP.Diag_report.ingest_diagnostics ~file:"g.pgf" o in
  check_int "IO002 per fault plus trailing IO003" 3 (List.length diags);
  check_bool "codes" true
    (List.map (fun (d : Diag.t) -> d.code) diags = [ "IO002"; "IO002"; "IO003" ]);
  check_bool "messages are self-contained" true
    (List.for_all (fun (d : Diag.t) -> contains d.message "g.pgf") diags);
  check_bool "classified as input errors" true (Diag.Exit.classify diags = Diag.Exit.Input_error)

(* ---- the supervisor: firewall, retries, crash taxonomy ---- *)

exception Engine_bug

let test_supervise_first_try () =
  match Sup.supervise (fun () -> 41 + 1) with
  | Sup.Done (v, attempts) ->
    check_int "value" 42 v;
    check_int "one attempt" 1 attempts
  | Sup.Crashed _ -> Alcotest.fail "crashed"

let test_firewall_catches_everything () =
  List.iter
    (fun (name, exn, expect) ->
      match Sup.supervise (fun () -> raise exn) with
      | Sup.Done _ -> Alcotest.failf "%s: expected a crash" name
      | Sup.Crashed c ->
        check_int (name ^ ": one attempt") 1 c.crash_attempts;
        check_bool (name ^ ": not transient") false c.crash_transient;
        check_bool (name ^ ": exception name") true (contains c.crash_exn expect))
    [
      ("stack overflow", Stack_overflow, "Stack overflow");
      ("out of memory", Out_of_memory, "Out of memory");
      ("engine bug", Engine_bug, "Engine_bug");
    ]

let test_transient_retry_schedule () =
  let delays = ref [] in
  let sleep ms = delays := !delays @ [ ms ] in
  let n = ref 0 in
  let flaky () =
    incr n;
    if !n < 3 then raise (Unix.Unix_error (Unix.EINTR, "read", "")) else "ok"
  in
  match Sup.supervise ~policy:(Sup.policy ~retries:3 ()) ~sleep flaky with
  | Sup.Done (v, attempts) ->
    check_string "value" "ok" v;
    check_int "succeeded on attempt 3" 3 attempts;
    check_bool "deterministic backoff" true (!delays = [ 100.; 200. ])
  | Sup.Crashed _ -> Alcotest.fail "crashed"

let test_non_transient_never_retried () =
  let n = ref 0 in
  let job () =
    incr n;
    raise Engine_bug
  in
  match Sup.supervise ~policy:(Sup.policy ~retries:5 ()) ~sleep:(fun _ -> ()) job with
  | Sup.Done _ -> Alcotest.fail "expected a crash"
  | Sup.Crashed c ->
    check_int "one attempt" 1 c.crash_attempts;
    check_int "job ran once" 1 !n;
    check_bool "not transient" false c.crash_transient

let test_retries_exhausted () =
  let delays = ref [] in
  let job () = raise (Unix.Unix_error (Unix.ECONNRESET, "read", "")) in
  match Sup.supervise ~policy:(Sup.policy ~retries:2 ()) ~sleep:(fun d -> delays := !delays @ [ d ]) job with
  | Sup.Done _ -> Alcotest.fail "expected a crash"
  | Sup.Crashed c ->
    check_int "retries + 1 attempts" 3 c.crash_attempts;
    check_bool "final failure was transient" true c.crash_transient;
    check_bool "full schedule" true (!delays = [ 100.; 200. ])

(* The transient set is a contract: interrupted/reset I/O retries,
   deterministic errnos (ENOENT, EACCES, ...) fail fast. *)
let test_transient_classification () =
  let unix e = Unix.Unix_error (e, "op", "arg") in
  List.iter
    (fun (name, exn) ->
      check_bool (name ^ " is transient") true (Sup.default_transient exn))
    [
      ("EINTR", unix Unix.EINTR);
      ("EAGAIN", unix Unix.EAGAIN);
      ("EWOULDBLOCK", unix Unix.EWOULDBLOCK);
      ("ECONNRESET", unix Unix.ECONNRESET);
      ("ETIMEDOUT", unix Unix.ETIMEDOUT);
      ("Sys_error EINTR", Sys_error "read: Interrupted system call");
      ("Sys_error ECONNRESET", Sys_error "g.pgf: Connection reset by peer");
    ];
  List.iter
    (fun (name, exn) ->
      check_bool (name ^ " fails fast") false (Sup.default_transient exn))
    [
      ("ENOENT", unix Unix.ENOENT);
      ("EACCES", unix Unix.EACCES);
      ("EBADF", unix Unix.EBADF);
      ("ENOSPC", unix Unix.ENOSPC);
      ("Sys_error ENOENT", Sys_error "g.pgf: No such file or directory");
      ("Sys_error EACCES", Sys_error "g.pgf: Permission denied");
      ("plain failure", Failure "engine bug");
    ];
  (* a deterministic errno is never retried even with retries available *)
  let n = ref 0 in
  let job () =
    incr n;
    raise (unix Unix.ENOENT)
  in
  match Sup.supervise ~policy:(Sup.policy ~retries:5 ()) ~sleep:(fun _ -> ()) job with
  | Sup.Done _ -> Alcotest.fail "expected a crash"
  | Sup.Crashed c ->
    check_int "one attempt" 1 c.Sup.crash_attempts;
    check_int "job ran once" 1 !n;
    check_bool "not transient" false c.Sup.crash_transient

let test_backoff_and_policy_validation () =
  check_bool "schedule" true
    (Sup.backoff_delays (Sup.policy ~retries:3 ~backoff_ms:50.0 ~multiplier:3.0 ())
    = [ 50.0; 150.0; 450.0 ]);
  check_bool "no retries, no delays" true (Sup.backoff_delays Sup.default_policy = []);
  let rejects f = match f () with exception Invalid_argument _ -> true | _ -> false in
  check_bool "negative retries rejected" true (rejects (fun () -> Sup.policy ~retries:(-1) ()));
  check_bool "zero backoff rejected" true (rejects (fun () -> Sup.policy ~backoff_ms:0.0 ()));
  check_bool "zero multiplier rejected" true (rejects (fun () -> Sup.policy ~multiplier:0.0 ()))

let test_crash_diagnostic () =
  match Sup.supervise (fun () -> failwith "engine exploded") with
  | Sup.Done _ -> Alcotest.fail "expected a crash"
  | Sup.Crashed c ->
    let d = Sup.crash_diagnostic ~subject:"jobs/g.pgf" c in
    check_string "code" "VAL002" d.Diag.code;
    check_bool "error severity" true (d.Diag.severity = Diag.Error);
    check_bool "classified as budget" true (Diag.Exit.classify [ d ] = Diag.Exit.Budget);
    check_bool "message names the subject" true (contains d.Diag.message "jobs/g.pgf");
    check_bool "message names the exception" true (contains d.Diag.message "engine exploded")

let test_batch_report () =
  let jr job job_status = { Sup.job; job_status; attempts = 1; diags = [] } in
  let b =
    Sup.make_batch [ jr "a.pgf" Sup.Completed; jr "b.pgf" Sup.Completed; jr "c.pgf" Sup.Unreadable ]
  in
  check_int "completed" 2 b.Sup.completed;
  check_int "partial" 0 b.Sup.partial;
  check_int "crashed" 0 b.Sup.crashed;
  check_int "unreadable" 1 b.Sup.unreadable;
  check_string "summary line" "3 job(s): 2 completed, 1 unreadable"
    (Format.asprintf "%a" Sup.pp_batch b)

(* ---- gpgs batch, end to end ---- *)

let test_dir = Filename.dirname Sys.executable_name
let in_repo rel = Filename.concat test_dir rel

let run_cli args =
  let out = Filename.temp_file "gpgs_stream" ".out" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>/dev/null"
      (Filename.quote (in_repo "../bin/gpgs.exe"))
      args (Filename.quote out)
  in
  let code =
    match Sys.command cmd with c when c land 0xff = 0 -> c lsr 8 | c -> c
  in
  let text = read_file out in
  Sys.remove out;
  (code, text)

let member = GP.Json.member
let json_int j = match j with GP.Json.Int n -> n | _ -> Alcotest.fail "expected an int"
let json_string j = match j with GP.Json.String s -> s | _ -> Alcotest.fail "expected a string"

let test_batch_cli_continue_on_error () =
  let schema = in_repo "../examples/movies.graphql" in
  let movies = read_file (in_repo "../examples/movies.pgf") in
  let clean = Filename.temp_file "gpgs_clean" ".pgf" in
  let broken = Filename.temp_file "gpgs_broken" ".pgf" in
  write_file clean movies;
  (match Corruption.garble_record (seeded_rng 11) movies with
  | Some (_, bad) -> write_file broken bad
  | None -> Alcotest.fail "movies.pgf has no records");
  (* strict loading: the broken file is unreadable, the clean job still runs *)
  let code, out =
    run_cli
      (Printf.sprintf "batch %s %s %s --format json" (Filename.quote schema)
         (Filename.quote clean) (Filename.quote broken))
  in
  check_int "IO001 dominates the exit code" 2 code;
  (match GP.Json.of_string out with
  | Ok json ->
    let summary = member "summary" json in
    check_int "clean job completed" 1 (json_int (member "completed" summary));
    check_int "broken job unreadable" 1 (json_int (member "unreadable" summary));
    let jobs = member "jobs" summary in
    check_string "job order preserved" "completed"
      (json_string (member "status" (GP.Json.index 0 jobs)));
    check_string "broken job reported" "unreadable"
      (json_string (member "status" (GP.Json.index 1 jobs)))
  | Result.Error msg -> Alcotest.failf "batch emitted invalid JSON: %s" msg);
  (* streaming ingestion: the same broken file becomes a partial job *)
  let code, out =
    run_cli
      (Printf.sprintf "batch %s %s --stream --format json" (Filename.quote schema)
         (Filename.quote broken))
  in
  check_int "IO002 keeps the input class" 2 code;
  (match GP.Json.of_string out with
  | Ok json ->
    let summary = member "summary" json in
    check_int "streamed job is partial" 1 (json_int (member "partial" summary));
    check_int "nothing unreadable" 0 (json_int (member "unreadable" summary))
  | Result.Error msg -> Alcotest.failf "batch emitted invalid JSON: %s" msg);
  Sys.remove clean;
  Sys.remove broken

let test_batch_cli_mixed_failures () =
  (* one clean graph, one governor-budget-exceeded graph, one broken
     graph: the clean job completes, both failures are reported in the
     single envelope, and the exit code follows Input > Budget *)
  let schema = in_repo "../examples/movies.graphql" in
  let movies = read_file (in_repo "../examples/movies.pgf") in
  let clean = Filename.temp_file "gpgs_clean" ".pgf" in
  let budget = Filename.temp_file "gpgs_budget" ".pgf" in
  let broken = Filename.temp_file "gpgs_broken" ".pgf" in
  write_file clean "# an empty graph conforms\n";
  write_file budget movies;
  (match Corruption.garble_record (seeded_rng 11) movies with
  | Some (_, bad) -> write_file broken bad
  | None -> Alcotest.fail "movies.pgf has no records");
  let run extra =
    run_cli
      (Printf.sprintf "batch %s %s --max-violations 1 --format json" (Filename.quote schema)
         extra)
  in
  (* movies.pgf has > 1 violation, so the cap makes that job partial *)
  let code, out =
    run
      (Printf.sprintf "%s %s %s" (Filename.quote clean) (Filename.quote budget)
         (Filename.quote broken))
  in
  check_int "input error dominates budget" 2 code;
  (match GP.Json.of_string out with
  | Ok json ->
    let summary = member "summary" json in
    let status i = json_string (member "status" (GP.Json.index i (member "jobs" summary))) in
    check_string "clean job completed" "completed" (status 0);
    check_string "budget job partial" "partial" (status 1);
    check_string "broken job unreadable" "unreadable" (status 2)
  | Result.Error msg -> Alcotest.failf "batch emitted invalid JSON: %s" msg);
  (* without the broken input, the budget class decides the exit code *)
  let code, out = run (Printf.sprintf "%s %s" (Filename.quote clean) (Filename.quote budget)) in
  check_int "budget exit without input errors" 3 code;
  (match GP.Json.of_string out with
  | Ok json ->
    check_int "clean job still completes" 1 (json_int (member "completed" (member "summary" json)));
    check_string "envelope classifies as budget" "budget-exhausted"
      (json_string (member "status" json))
  | Result.Error msg -> Alcotest.failf "batch emitted invalid JSON: %s" msg);
  Sys.remove clean;
  Sys.remove budget;
  Sys.remove broken

let suite =
  [
    QCheck_alcotest.to_alcotest prop_pgf_clean;
    QCheck_alcotest.to_alcotest prop_pgf_corrupted;
    QCheck_alcotest.to_alcotest prop_graphml_clean;
    QCheck_alcotest.to_alcotest prop_graphml_corrupted;
    QCheck_alcotest.to_alcotest prop_tolerant_chunk_invariant;
    Alcotest.test_case "garbled edge is skipped atomically" `Quick test_garbled_edge_skipped;
    Alcotest.test_case "garbled node cascades to its edges" `Quick test_garbled_node_cascades;
    Alcotest.test_case "error budget stops ingestion" `Quick test_error_budget;
    Alcotest.test_case "quarantine holds exactly the bad records" `Quick test_quarantine_exact;
    QCheck_alcotest.to_alcotest prop_quarantine_matches_faults;
    QCheck_alcotest.to_alcotest prop_duplicate_record;
    Alcotest.test_case "partial graph still validates" `Quick test_partial_graph_still_validates;
    Alcotest.test_case "GraphML unknown endpoint is one fault" `Quick
      test_graphml_tolerant_unknown_endpoint;
    Alcotest.test_case "ingest diagnostics: IO002/IO003" `Quick test_ingest_diagnostics;
    Alcotest.test_case "supervise: success on first try" `Quick test_supervise_first_try;
    Alcotest.test_case "supervise: firewall catches everything" `Quick
      test_firewall_catches_everything;
    Alcotest.test_case "supervise: deterministic retry schedule" `Quick
      test_transient_retry_schedule;
    Alcotest.test_case "supervise: non-transient crashes fast" `Quick
      test_non_transient_never_retried;
    Alcotest.test_case "supervise: retries exhausted" `Quick test_retries_exhausted;
    Alcotest.test_case "supervise: transient errno classification" `Quick
      test_transient_classification;
    Alcotest.test_case "backoff schedule and policy validation" `Quick
      test_backoff_and_policy_validation;
    Alcotest.test_case "crash diagnostic is VAL002" `Quick test_crash_diagnostic;
    Alcotest.test_case "batch report counts and summary" `Quick test_batch_report;
    Alcotest.test_case "gpgs batch continues on error" `Quick test_batch_cli_continue_on_error;
    Alcotest.test_case "gpgs batch: clean + budget + broken" `Quick test_batch_cli_mixed_failures;
  ]
