(* gpgs — command-line interface to the graphql_pg library.

   Subcommands:
     parse     parse + lint an SDL schema, optionally pretty-print it
     check     consistency + per-object-type satisfiability report
     validate  validate a PGF graph against a schema
     batch     validate many PGF graphs against one compiled schema plan,
               continue-on-error, under the supervisor
     snapshot  freeze a graph into a binary snapshot (build) or describe
               one (info); validate/batch reopen them via --snapshot
     sat       satisfiability of one object type, with optional witness
     reduce    Theorem 2: DIMACS CNF -> reduction schema (SDL)
     extend    Section 3.6: extend a PG schema into a GraphQL API schema
     gen       generate the social-network workload as PGF
     stats     describe a PGF graph

   Every subcommand takes --format text|json.  Output streams follow one
   policy:

     text  results and artifacts on stdout, diagnostics on stderr
     json  one machine-readable report document on stdout (for the
           report commands parse/check/validate/sat/diff; artifact
           commands keep their artifact on stdout and report failures
           as a JSON document instead of text)

   Every diagnostic carries a stable code from Graphql_pg.Diag_registry
   (SDL001 syntax, LINT0xx lint, SCH0xx build/consistency, WS*/DS*/SS*
   validation, SAT0xx satisfiability, DIFF0xx evolution, IO0xx input).

   Exit codes (uniform across subcommands, computed by
   Graphql_pg.Diag.Exit.classify from the diagnostics):
     0  clean — the requested check passed / the artifact was produced
     1  findings — violations, lint errors, unsatisfiable types,
        breaking changes, unrepairable graph
     2  usage or input error — bad command line, unreadable file,
        syntax error, inconsistent schema, invalid flag value
     3  internal error or budget exhausted — unexpected exception, or a
        --deadline-ms / --max-violations budget ran out before the
        answer was complete *)

open Cmdliner
module GP = Graphql_pg
module VR = GP.Validate_request

let exit_input = GP.Diag.Exit.(code Input_error)
let exit_budget = GP.Diag.Exit.(code Budget)

type fmt = Text | Json

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> In_channel.input_all ic)

(* Streamed to stdout one diagnostic at a time: a report of thousands
   is never a tree or a string in memory. *)
let emit_json ~command ?summary ?cls diags =
  let w = GP.Json.writer ~indent:true (Bytes.create 65536) (output stdout) in
  GP.Diag_report.write_envelope w ~command ?summary ?cls diags;
  GP.Json.end_line w;
  flush stdout

(* End a report command: in json mode print the envelope, then exit with
   the code the diagnostics classify to (0 needs no explicit exit). *)
let finish ~fmt ~command ?summary ?cls diags =
  let cls = match cls with Some c -> c | None -> GP.Diag.Exit.classify diags in
  (match fmt with
  | Text -> ()
  | Json -> emit_json ~command ?summary ~cls diags);
  let code = GP.Diag.Exit.code cls in
  if code <> 0 then exit code

(* Abort on an unusable input: text mode keeps the historical
   one-message-per-line stderr rendering, json mode reports the same
   diagnostics as a document on stdout. *)
let die ~fmt ~command ?(cls = GP.Diag.Exit.Input_error) ~text diags =
  (match fmt with
  | Text -> prerr_endline text
  | Json -> emit_json ~command ~cls diags);
  exit (GP.Diag.Exit.code cls)

let usage ~fmt ~command msg = die ~fmt ~command ~text:msg [ GP.Diag.error ~code:"CLI001" msg ]

(* The schema language defaults to the file extension (.pgs = PG-Schema,
   anything else SDL); --schema-lang overrides. *)
let load_schema ?lang ~lenient path =
  let text = read_file path in
  let lang = GP.Frontend.select ?lang ~path () in
  match GP.Frontend.parse_full ~consistency:(not lenient) lang text with
  | Ok (sch, warnings) -> Ok (sch, warnings)
  | Error diags -> Error (path, diags)

let pgf_error path e =
  Error (path, [ GP.Diag.error ~code:"IO001" (Format.asprintf "%a" GP.Pgf.pp_error e) ])

(* A PGF graph for the string-level consumers (naive engine, stats,
   query, repair, export)... *)
let load_graph path = match GP.Pgf.load path with Ok g -> Ok g | Error e -> pgf_error path e

(* ...and as staged columns for a snapshot build. *)
let load_columns path =
  match GP.Pgf.load_columns path with Ok s -> Ok s | Error e -> pgf_error path e

(* Fault-tolerant ingestion (--stream / --quarantine / --max-input-errors):
   malformed records become IO002/IO003 diagnostics and a possibly-partial
   graph instead of a hard failure. *)
let load_graph_streaming ?quarantine ?max_input_errors path =
  match GP.Stream.load_pgf ?max_errors:max_input_errors ?quarantine path with
  | Ok o -> Ok (o, GP.Diag_report.ingest_diagnostics ~file:path o)
  | Error e -> pgf_error path e

(* The schema compiled into a plan this process owns (see
   Validate_request.local): validate and batch hand it to the pipeline. *)
let local_plan ?lang ~lenient path () =
  Result.map (fun (sch, _) -> VR.local (GP.Validate.compile sch)) (load_schema ?lang ~lenient path)

let unreadable_text path diags =
  Printf.sprintf "%s: %s" path (String.concat "\n" (List.map GP.Diag.to_text diags))

let or_die ~fmt ~command = function
  | Ok x -> x
  | Error (path, diags) -> die ~fmt ~command ~text:(unreadable_text path diags) diags

(* ---- common arguments ---- *)

let schema_arg =
  Arg.(
    required & pos 0 (some file) None
    & info [] ~docv:"SCHEMA"
        ~doc:"Schema file: GraphQL SDL, or PG-Schema ($(b,.pgs) / $(b,--schema-lang pgschema)).")

let lang_arg =
  Arg.(
    value
    & opt (some (enum [ ("sdl", GP.Frontend.Sdl); ("pgschema", GP.Frontend.Pgschema) ])) None
    & info [ "schema-lang" ] ~docv:"LANG"
        ~doc:
          "Schema language: $(b,sdl) (GraphQL SDL) or $(b,pgschema) (the PG-Schema \
           fragment).  Default: inferred from the schema file extension ($(b,.pgs) means \
           pgschema, anything else sdl).")

let lenient_arg =
  Arg.(
    value & flag
    & info [ "lenient" ]
        ~doc:"Skip the consistency check of Definition 4.5 (needed for the paper's Example 6.1).")

let format_arg =
  Arg.(
    value
    & opt (enum [ ("text", Text); ("json", Json) ]) Text
    & info [ "format" ] ~docv:"FMT"
        ~doc:
          "Output format: $(b,text) (human-readable; diagnostics on stderr) or $(b,json) \
           (one machine-readable report document on stdout, with stable diagnostic codes).")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Wall-clock budget in milliseconds; on exhaustion partial results are \
           reported and the exit code is 3.")

let max_violations_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-violations" ] ~docv:"N"
        ~doc:"Stop validating after N violations have been found (exit code 3).")

let stream_arg =
  Arg.(
    value & flag
    & info [ "stream" ]
        ~doc:
          "Ingest the graph with the fault-tolerant streaming loader: malformed records \
           are skipped (reported as $(b,IO002) diagnostics) and validation runs on the \
           partial graph.  Implied by $(b,--quarantine) and $(b,--max-input-errors).")

let quarantine_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "quarantine" ] ~docv:"FILE"
        ~doc:
          "Write the raw text of every skipped record to $(docv) (created lazily on the \
           first fault).  Implies $(b,--stream).")

let max_input_errors_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-input-errors" ] ~docv:"N"
        ~doc:
          "Error budget for streaming ingestion: tolerate N malformed records, then stop \
           reading early ($(b,IO003), exit code per the Input class).  Default: unlimited.  \
           Implies $(b,--stream).")

let retries_arg =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Run validation under the supervisor: crashes become $(b,VAL002) diagnostics \
           and transient failures are retried up to N times with deterministic backoff.")

let snapshot_arg =
  Arg.(
    value & flag
    & info [ "snapshot" ]
        ~doc:
          "Treat the graph input as a binary snapshot written by $(b,gpgs snapshot build) \
           and reopen it with mmap instead of reparsing PGF text.  The diagnostic report \
           is byte-identical to the reparse path.  Incompatible with the streaming \
           ingestion flags and with $(b,--engine naive).")

(* ---- parse ---- *)

let parse_cmd =
  let run_pgschema schema_path pretty fmt =
    let text = read_file schema_path in
    match GP.Pgschema.Parser.parse_with_recovery text with
    | _, (_ :: _ as errors) ->
      let diags = List.map GP.Pgschema.Lower.syntax_diagnostic errors in
      (match fmt with
      | Text -> List.iter (fun e -> prerr_endline (GP.Sdl.Source.error_to_string e)) errors
      | Json -> ());
      finish ~fmt ~command:"parse" diags
    | doc, [] ->
      (match fmt with
      | Text -> if pretty then print_string (GP.Pgschema.Printer.document_to_string doc)
      | Json -> ());
      finish ~fmt ~command:"parse"
        ~summary:[ ("definitions", GP.Json.Int (List.length doc)) ]
        []
  in
  let run schema_path lang pretty fmt =
    match GP.Frontend.select ?lang ~path:schema_path () with
    | GP.Frontend.Pgschema -> run_pgschema schema_path pretty fmt
    | GP.Frontend.Sdl ->
    let text = read_file schema_path in
    match GP.Sdl.Parser.parse_with_recovery text with
    | _, (_ :: _ as errors) ->
      (* every syntax error in the document, one per line, in source order *)
      let diags = List.map GP.Sdl.Source.to_diagnostic errors in
      (match fmt with
      | Text -> List.iter (fun e -> prerr_endline (GP.Sdl.Source.error_to_string e)) errors
      | Json -> ());
      finish ~fmt ~command:"parse" diags
    | doc, [] ->
      let issues = GP.Sdl.Lint.check doc in
      let diags = List.map GP.Sdl.Lint.to_diagnostic issues in
      (match fmt with
      | Text ->
        List.iter (fun i -> Format.eprintf "%a@." GP.Sdl.Lint.pp_issue i) issues;
        if pretty then print_string (GP.Sdl.Printer.document_to_string doc)
      | Json -> ());
      finish ~fmt ~command:"parse"
        ~summary:[ ("definitions", GP.Json.Int (List.length doc)) ]
        diags
  in
  let pretty =
    Arg.(value & flag & info [ "print"; "p" ] ~doc:"Pretty-print the parsed document (text mode only).")
  in
  Cmd.v
    (Cmd.info "parse" ~doc:"Parse and lint a schema document (SDL or PG-Schema).")
    Term.(const run $ schema_arg $ lang_arg $ pretty $ format_arg)

(* ---- check ---- *)

let check_cmd =
  let run schema_path lang lenient deadline_ms fmt =
    Option.iter (usage ~fmt ~command:"check") (VR.budget_usage ?deadline_ms ());
    let sch, warnings = or_die ~fmt ~command:"check" (load_schema ?lang ~lenient schema_path) in
    let issues = GP.Consistency.check sch in
    let gov = GP.Governor.make ?deadline_ms () in
    let reports = GP.Satisfiability.check_all ~gov sch in
    let diags =
      warnings
      @ List.map GP.Consistency.to_diagnostic issues
      @ List.concat_map (fun (ot, r) -> GP.Satisfiability.to_diagnostics ot r) reports
    in
    (match fmt with
    | Text ->
      Format.printf "%a@." GP.Schema.pp_summary sch;
      if issues = [] then print_endline "consistency: ok (Definition 4.5)"
      else begin
        Format.printf "consistency: %d issue(s)@." (List.length issues);
        (* stream policy: the issue lines are diagnostics -> stderr *)
        List.iter (fun i -> Format.eprintf "  %a@." GP.Consistency.pp_issue i) issues
      end;
      List.iter
        (fun (ot, report) ->
          Format.printf "satisfiability of %s: %a@." ot GP.Satisfiability.pp_report report)
        reports
    | Json -> ());
    finish ~fmt ~command:"check"
      ~summary:(GP.Diag_report.check_summary sch issues reports)
      diags
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Check schema consistency and the satisfiability of every object type.")
    Term.(const run $ schema_arg $ lang_arg $ lenient_arg $ deadline_arg $ format_arg)

(* ---- validate ---- *)

let engine_conv =
  Arg.enum
    [
      ("indexed", GP.Validate.Indexed);
      ("linear", GP.Validate.Linear);
      ("naive", GP.Validate.Naive);
      ("parallel", GP.Validate.Parallel);
      ("sharded", GP.Validate.Sharded);
    ]

let mode_conv =
  Arg.enum
    [
      ("strong", GP.Validate.Strong);
      ("weak", GP.Validate.Weak);
      ("directives", GP.Validate.Directives);
    ]

let shards_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Shard count for the sharded engine: the nodes and the edges are each cut \
           into N contiguous ranges of near-equal size, one task per range (default: the \
           domain count).  The report is the same for every count.")

let engine_arg =
  Arg.(
    value
    & opt engine_conv GP.Validate.Indexed
    & info [ "engine" ]
        ~doc:
          "naive, linear, indexed, parallel, or sharded.  $(b,naive) evaluates the \
           paper's formulas over strings (the specification); every other engine runs the \
           compiled rule kernels over contiguous ranges of the nodes and edges: \
           $(b,linear) and $(b,indexed) as one range on one domain, $(b,parallel) as one \
           range per domain, $(b,sharded) as $(b,--shards) ranges over $(b,--domains) \
           domains.  All report the same violations.")

let mode_arg =
  Arg.(value & opt mode_conv GP.Validate.Strong & info [ "mode" ] ~doc:"strong, weak, or directives.")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Domains that run the ranges of the parallel and sharded engines (default: all \
           cores; a sharded check of a $(b,--snapshot) runs on one domain unless given).")

(* One validate pipeline (Validate_request) behind this command, every
   batch job and the served validate op: this adapter only renders its
   outcome. *)
let validate_cmd =
  let run schema_path lang graph_path lenient engine mode domains shards deadline_ms
      max_violations stream quarantine max_input_errors retries snapshot fmt =
    let request =
      { VR.snapshot; engine; mode; domains; shards; stream; quarantine; max_input_errors;
        deadline_ms; max_violations; retries }
    in
    let outcome = VR.run ~plan:(local_plan ?lang ~lenient schema_path) request graph_path in
    let diags = VR.diagnostics outcome in
    (match (fmt, outcome) with
    | Json, _ -> ()
    | Text, VR.Usage msg -> prerr_endline msg
    | Text, VR.Unreadable (path, _) -> prerr_endline (unreadable_text path diags)
    | Text, VR.Done { report; ingest; _ } ->
      List.iter (fun d -> prerr_endline (GP.Diag.to_text d)) ingest.VR.ingest_diags;
      Format.printf "%a@." GP.Validate.pp_report report
    | Text, VR.Crashed _ -> List.iter (fun d -> prerr_endline (GP.Diag.to_text d)) diags);
    finish ~fmt ~command:"validate" ~summary:(VR.summary outcome) ?cls:(VR.cls outcome) diags
  in
  let graph_arg =
    Arg.(
      required & pos 1 (some file) None
      & info [] ~docv:"GRAPH" ~doc:"PGF graph file (or a binary snapshot with $(b,--snapshot)).")
  in
  Cmd.v
    (Cmd.info "validate" ~doc:"Validate a Property Graph against a schema (Section 5).")
    Term.(
      const run $ schema_arg $ lang_arg $ graph_arg $ lenient_arg $ engine_arg $ mode_arg
      $ domains_arg $ shards_arg $ deadline_arg $ max_violations_arg $ stream_arg
      $ quarantine_arg $ max_input_errors_arg $ retries_arg $ snapshot_arg $ format_arg)

(* ---- batch ---- *)

let batch_cmd =
  let run schema_path lang graph_paths lenient engine mode domains shards deadline_ms
      max_violations stream max_input_errors retries snapshot fmt =
    let request =
      { VR.snapshot; engine; mode; domains; shards; stream; quarantine = None;
        max_input_errors; deadline_ms; max_violations; retries }
    in
    Option.iter (usage ~fmt ~command:"batch") (VR.usage request);
    (* one compiled plan for the whole batch; jobs run sequentially (plan
       reuse is sequential-only — within a job the parallel engine may
       still shard across domains), each under a fresh budget *)
    let plan = or_die ~fmt ~command:"batch" (local_plan ?lang ~lenient schema_path ()) in
    let job path = VR.job_report path (VR.run ~plan:(fun () -> Ok plan) request path) in
    let batch = GP.Supervisor.make_batch (List.map job graph_paths) in
    let diags = GP.Supervisor.batch_diagnostics batch in
    (match fmt with
    | Text ->
      List.iter
        (fun (j : GP.Supervisor.job_report) ->
          Printf.printf "%s: %s (%d diagnostic(s))\n" j.job
            (GP.Supervisor.status_name j.job_status)
            (List.length j.diags))
        batch.GP.Supervisor.jobs;
      Format.printf "%a@." GP.Supervisor.pp_batch batch;
      List.iter (fun d -> prerr_endline (GP.Diag.to_text d)) diags
    | Json -> ());
    finish ~fmt ~command:"batch" ~summary:(GP.Diag_report.batch_summary batch) diags
  in
  let graphs_arg =
    Arg.(
      non_empty
      & pos_right 0 file []
      & info [] ~docv:"GRAPH" ~doc:"PGF graph files (one validation job each).")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Validate many graphs against one schema, compiled once.  Jobs run under the \
          supervisor: a broken input, an exhausted budget, or a crashed engine costs \
          that job only; the run continues and one report covers every job, with the \
          exit code composed from all diagnostics (Input > Budget > Findings > Clean).")
    Term.(
      const run $ schema_arg $ lang_arg $ graphs_arg $ lenient_arg $ engine_arg $ mode_arg
      $ domains_arg $ shards_arg $ deadline_arg $ max_violations_arg $ stream_arg
      $ max_input_errors_arg $ retries_arg $ snapshot_arg $ format_arg)

(* ---- sat ---- *)

let sat_cmd =
  let run schema_path type_name lenient witness_out deadline_ms fmt =
    Option.iter (usage ~fmt ~command:"sat") (VR.budget_usage ?deadline_ms ());
    let sch, _ = or_die ~fmt ~command:"sat" (load_schema ~lenient schema_path) in
    let gov = GP.Governor.make ?deadline_ms () in
    let report = GP.Satisfiability.check ~gov sch type_name in
    let witness_file =
      match witness_out, report.GP.Satisfiability.witness with
      | Some path, Some g ->
        GP.Pgf.save path g;
        Some path
      | _ -> None
    in
    (match fmt with
    | Text ->
      Format.printf "%a@." GP.Satisfiability.pp_report report;
      (match witness_out, witness_file with
      | Some _, Some path -> Format.printf "witness written to %s@." path
      | Some _, None -> print_endline "no witness available"
      | None, _ -> ())
    | Json -> ());
    let summary =
      GP.Diag_report.sat_summary report
      @ (match witness_file with
        | Some path -> [ ("witness_file", GP.Json.String path) ]
        | None -> [])
    in
    finish ~fmt ~command:"sat" ~summary (GP.Satisfiability.to_diagnostics type_name report)
  in
  let type_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"TYPE" ~doc:"Object type name.")
  in
  let witness =
    Arg.(value & opt (some string) None & info [ "witness" ] ~docv:"FILE" ~doc:"Write a witness graph as PGF.")
  in
  Cmd.v
    (Cmd.info "sat" ~doc:"Decide object-type satisfiability (Section 6.2).")
    Term.(const run $ schema_arg $ type_arg $ lenient_arg $ witness $ deadline_arg $ format_arg)

(* ---- reduce ---- *)

let reduce_cmd =
  let run cnf_path fmt =
    let text = read_file cnf_path in
    match GP.Cnf.parse_dimacs text with
    | Error msg ->
      die ~fmt ~command:"reduce" ~text:msg [ GP.Diag.error ~code:"IO001" msg ]
    | Ok f -> print_string (GP.Reduction.to_sdl f)
  in
  let cnf_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"CNF" ~doc:"DIMACS CNF file.")
  in
  Cmd.v
    (Cmd.info "reduce"
       ~doc:"Emit the Theorem 2 reduction schema of a CNF formula as SDL.")
    Term.(const run $ cnf_arg $ format_arg)

(* ---- extend ---- *)

let extend_cmd =
  let run schema_path lenient fmt =
    let sch, _ = or_die ~fmt ~command:"extend" (load_schema ~lenient schema_path) in
    match GP.Api_extension.extend_to_string sch with
    | Ok text -> print_string text
    | Error msg ->
      die ~fmt ~command:"extend" ~text:msg [ GP.Diag.error ~code:"SCH003" msg ]
  in
  Cmd.v
    (Cmd.info "extend"
       ~doc:"Extend a Property Graph schema into a GraphQL API schema (Section 3.6).")
    Term.(const run $ schema_arg $ lenient_arg $ format_arg)

(* ---- doc ---- *)

let doc_cmd =
  let run schema_path lenient fmt =
    let sch, _ = or_die ~fmt ~command:"doc" (load_schema ~lenient schema_path) in
    print_string (GP.Schema_doc.to_markdown sch)
  in
  Cmd.v
    (Cmd.info "doc" ~doc:"Render a schema as Markdown documentation.")
    Term.(const run $ schema_arg $ lenient_arg $ format_arg)

(* ---- cypher ---- *)

let cypher_cmd =
  let run schema_path lenient fmt =
    let sch, _ = or_die ~fmt ~command:"cypher" (load_schema ~lenient schema_path) in
    print_string (GP.Neo4j_ddl.to_script sch)
  in
  Cmd.v
    (Cmd.info "cypher"
       ~doc:"Export the Cypher 3.5 constraint DDL fragment of a schema (Section 2.1).")
    Term.(const run $ schema_arg $ lenient_arg $ format_arg)

(* ---- gen ---- *)

let gen_cmd =
  let run persons seed output =
    let g = GP.Social.generate ~seed ~persons () in
    (match output with
    | Some path ->
      GP.Pgf.save path g;
      Format.printf "%a written to %s@." GP.Property_graph.pp g path
    | None -> print_string (GP.Pgf.print g))
  in
  let persons =
    Arg.(value & opt int 100 & info [ "persons" ] ~doc:"Number of Person nodes.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output PGF file.")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate the social-network workload as PGF.")
    Term.(const run $ persons $ seed $ output)

(* ---- repair ---- *)

let repair_cmd =
  let run schema_path graph_path lenient output fmt =
    let sch, _ = or_die ~fmt ~command:"repair" (load_schema ~lenient schema_path) in
    let g = or_die ~fmt ~command:"repair" (load_graph graph_path) in
    if GP.conforms sch g then begin
      print_endline "graph already strongly satisfies the schema";
      Option.iter (fun path -> GP.Pgf.save path g) output
    end
    else
      match GP.Model_search.repair sch g with
      | Some repaired ->
        Format.printf "repaired: %a -> %a@." GP.Property_graph.pp g GP.Property_graph.pp
          repaired;
        (match output with
        | Some path ->
          GP.Pgf.save path repaired;
          Format.printf "written to %s@." path
        | None -> print_string (GP.Pgf.print repaired))
      | None ->
        let msg = "could not repair the graph within bounds" in
        die ~fmt ~command:"repair" ~cls:GP.Diag.Exit.Findings ~text:msg
          [ GP.Diag.error ~code:"REP001" msg ]
  in
  let graph_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"GRAPH" ~doc:"PGF graph file.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output PGF file.")
  in
  Cmd.v
    (Cmd.info "repair" ~doc:"Repair a graph into strong satisfaction of a schema.")
    Term.(const run $ schema_arg $ graph_arg $ lenient_arg $ output $ format_arg)

(* ---- diff ---- *)

let diff_cmd =
  let run old_path new_path lenient fmt =
    let old_schema, _ = or_die ~fmt ~command:"diff" (load_schema ~lenient old_path) in
    let new_schema, _ = or_die ~fmt ~command:"diff" (load_schema ~lenient new_path) in
    let changes = GP.Schema_diff.diff old_schema new_schema in
    (match fmt with
    | Text ->
      if changes = [] then print_endline "schemas are identical (validation-wise)"
      else List.iter (fun c -> Format.printf "%a@." GP.Schema_diff.pp_change c) changes
    | Json -> ());
    finish ~fmt ~command:"diff"
      ~summary:(GP.Diag_report.diff_summary changes)
      (List.map GP.Schema_diff.to_diagnostic changes)
  in
  let new_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW" ~doc:"New SDL schema file.")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Diff two schemas; exit 1 if the evolution can break existing data.")
    Term.(const run $ schema_arg $ new_arg $ lenient_arg $ format_arg)

(* ---- query ---- *)

let query_cmd =
  let run schema_path graph_path lenient query_text query_file operation variables fmt =
    let sch, _ = or_die ~fmt ~command:"query" (load_schema ~lenient schema_path) in
    let g = or_die ~fmt ~command:"query" (load_graph graph_path) in
    let usage = usage ~fmt ~command:"query" in
    let text =
      match query_text, query_file with
      | Some q, _ -> q
      | None, Some path -> read_file path
      | None, None -> usage "provide a query (positional) or --file"
    in
    let variables =
      match variables with
      | None -> []
      | Some json_text -> (
        match GP.Json.of_string json_text with
        | Ok (GP.Json.Assoc fields) -> fields
        | Ok _ -> usage "--variables must be a JSON object"
        | Error e -> usage ("--variables: " ^ e))
    in
    match GP.query ?operation ~variables sch g text with
    | Ok data -> print_endline (GP.Json.to_string ~indent:true data)
    | Error msg -> die ~fmt ~command:"query" ~text:msg [ GP.Diag.error ~code:"QRY001" msg ]
  in
  let graph_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"GRAPH" ~doc:"PGF graph file.")
  in
  let query_text =
    Arg.(value & pos 2 (some string) None & info [] ~docv:"QUERY" ~doc:"GraphQL query text.")
  in
  let query_file =
    Arg.(value & opt (some file) None & info [ "file"; "f" ] ~docv:"FILE" ~doc:"Read the query from a file.")
  in
  let operation =
    Arg.(value & opt (some string) None & info [ "operation" ] ~docv:"NAME" ~doc:"Operation to run.")
  in
  let variables =
    Arg.(value & opt (some string) None & info [ "variables" ] ~docv:"JSON" ~doc:"Variable values as a JSON object.")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Execute a GraphQL query against a Property Graph (Section 3.6 conventions).")
    Term.(const run $ schema_arg $ graph_arg $ lenient_arg $ query_text $ query_file $ operation $ variables $ format_arg)

(* ---- export ---- *)

let export_cmd =
  let run graph_path output fmt =
    let g = or_die ~fmt ~command:"export" (load_graph graph_path) in
    GP.Graphml.save output g;
    Format.printf "%a written to %s@." GP.Property_graph.pp g output
  in
  let graph_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"GRAPH" ~doc:"PGF graph file.")
  in
  let output =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OUT" ~doc:"GraphML output file.")
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export a PGF graph as GraphML (Gephi/yEd/Cytoscape).")
    Term.(const run $ graph_arg $ output $ format_arg)

(* ---- snapshot ---- *)

let snapshot_build_cmd =
  let run graph_path output stream quarantine max_input_errors fmt =
    let streaming = stream || quarantine <> None || max_input_errors <> None in
    let columns, ingest_diags =
      if streaming then begin
        let outcome, diags =
          or_die ~fmt ~command:"snapshot"
            (load_graph_streaming ?quarantine ?max_input_errors graph_path)
        in
        (outcome.GP.Stream.graph, diags)
      end
      else (or_die ~fmt ~command:"snapshot" (load_columns graph_path), [])
    in
    (* a fresh symbol table: the file stores its own symbols, and the
       loader remaps them into whatever plan it is validated against *)
    let st = GP.Symtab.create () in
    match GP.Snapshot_io.write st (GP.Snapshot.freeze st columns) output with
    | Error e ->
      die ~fmt ~command:"snapshot" ~text:(e.GP.Snapshot_io.code ^ ": " ^ e.GP.Snapshot_io.message)
        [ GP.Diag.error ~code:e.GP.Snapshot_io.code e.GP.Snapshot_io.message ]
    | Ok () ->
      (match fmt with
      | Text ->
        List.iter (fun d -> prerr_endline (GP.Diag.to_text d)) ingest_diags;
        Format.printf "%a frozen to %s@." GP.Staging.pp columns output
      | Json -> ());
      finish ~fmt ~command:"snapshot"
        ~summary:
          [
            ("snapshot_file", GP.Json.String output);
            ("nodes", GP.Json.Int (GP.Staging.node_count columns));
            ("edges", GP.Json.Int (GP.Staging.edge_count columns));
          ]
        ingest_diags
  in
  let graph_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"GRAPH" ~doc:"PGF graph file.")
  in
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output snapshot file.")
  in
  Cmd.v
    (Cmd.info "build"
       ~doc:
         "Freeze a PGF graph into a binary snapshot (CSR adjacency, interned symbols, \
          checksummed) that $(b,validate --snapshot) reopens with mmap instead of \
          reparsing.")
    Term.(
      const run $ graph_arg $ output $ stream_arg $ quarantine_arg $ max_input_errors_arg
      $ format_arg)

let snapshot_info_cmd =
  let run path fmt =
    match GP.Snapshot_io.info path with
    | Error e ->
      die ~fmt ~command:"snapshot" ~text:(e.GP.Snapshot_io.code ^ ": " ^ e.GP.Snapshot_io.message)
        [ GP.Diag.error ~code:e.GP.Snapshot_io.code e.GP.Snapshot_io.message ]
    | Ok i ->
      (match fmt with
      | Text ->
        Format.printf "%s: snapshot format v%d, %d node(s), %d edge(s), %d symbol(s), %d bytes@."
          path i.GP.Snapshot_io.version i.GP.Snapshot_io.nodes i.GP.Snapshot_io.edges
          i.GP.Snapshot_io.symbols i.GP.Snapshot_io.bytes
      | Json -> ());
      finish ~fmt ~command:"snapshot"
        ~summary:
          [
            ("snapshot_file", GP.Json.String path);
            ("format_version", GP.Json.Int i.GP.Snapshot_io.version);
            ("nodes", GP.Json.Int i.GP.Snapshot_io.nodes);
            ("edges", GP.Json.Int i.GP.Snapshot_io.edges);
            ("symbols", GP.Json.Int i.GP.Snapshot_io.symbols);
            ("bytes", GP.Json.Int i.GP.Snapshot_io.bytes);
          ]
        []
  in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Snapshot file.")
  in
  Cmd.v
    (Cmd.info "info"
       ~doc:"Describe a binary snapshot (after verifying magic, version, and checksum).")
    Term.(const run $ file_arg $ format_arg)

let snapshot_cmd =
  Cmd.group
    (Cmd.info "snapshot"
       ~doc:
         "Persisted binary snapshots: build once, then validate with $(b,--snapshot) to \
          skip parsing and CSR construction on every run.")
    [ snapshot_build_cmd; snapshot_info_cmd ]

(* ---- stats ---- *)

let stats_cmd =
  let run graph_path fmt =
    let g = or_die ~fmt ~command:"stats" (load_graph graph_path) in
    Format.printf "%a@." GP.Stats.pp (GP.Stats.compute g)
  in
  let graph_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"GRAPH" ~doc:"PGF graph file.")
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Describe a PGF graph.")
    Term.(const run $ graph_arg $ format_arg)

(* ---- serve ---- *)

(* The validation daemon: newline-delimited JSON requests over a unix
   or TCP socket, responses being the same envelopes `validate --format
   json` prints (compact-rendered).  All the robustness machinery lives
   in Pg_server; this command only parses flags, wires the signals, and
   prints the ready line. *)
let serve_cmd =
  let run socket host port workers max_pending max_request_kb read_timeout_ms drain_grace_ms
      watchdog_grace_ms deadline_ms max_violations retries plan_cache snapshot_cache debug_ops =
    let usage msg =
      prerr_endline ("gpgs serve: " ^ msg);
      exit exit_input
    in
    let address =
      match (socket, port) with
      | Some _, Some _ -> usage "--socket and --port are mutually exclusive"
      | Some path, None -> Pg_server.Server.Unix_socket path
      | None, Some p when p < 0 -> usage (Printf.sprintf "--port must be non-negative (got %d)" p)
      | None, Some p -> Pg_server.Server.Tcp (host, p)
      | None, None -> usage "one of --socket PATH or --port PORT is required"
    in
    if workers < 1 then usage (Printf.sprintf "--workers must be at least 1 (got %d)" workers);
    if max_pending < 0 then
      usage (Printf.sprintf "--max-pending must be non-negative (got %d)" max_pending);
    if max_request_kb < 1 then
      usage (Printf.sprintf "--max-request-kb must be at least 1 (got %d)" max_request_kb);
    if read_timeout_ms <= 0. then
      usage (Printf.sprintf "--read-timeout-ms must be positive (got %g)" read_timeout_ms);
    if drain_grace_ms < 0. then
      usage (Printf.sprintf "--drain-grace-ms must be non-negative (got %g)" drain_grace_ms);
    if watchdog_grace_ms < 0. then
      usage (Printf.sprintf "--watchdog-grace-ms must be non-negative (got %g)" watchdog_grace_ms);
    Option.iter usage (VR.budget_usage ?deadline_ms ?max_violations ~retries ());
    let service =
      Pg_server.Service.create
        ~config:
          {
            Pg_server.Service.plan_capacity = max 1 plan_cache;
            snapshot_capacity = max 1 snapshot_cache;
            default_deadline_ms = deadline_ms;
            default_max_violations = max_violations;
            retries;
            debug_ops;
          }
        ()
    in
    let config =
      {
        (Pg_server.Server.default_config address) with
        Pg_server.Server.workers;
        max_pending;
        max_request_bytes = max_request_kb * 1024;
        read_timeout_ms;
        drain_grace_ms;
        watchdog_grace_ms;
      }
    in
    let stop = Atomic.make false in
    let quit _ = Atomic.set stop true in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle quit);
    Sys.set_signal Sys.sigint (Sys.Signal_handle quit);
    let on_ready resolved =
      (match resolved with
      | Pg_server.Server.Unix_socket path -> Printf.printf "gpgs: serving on unix:%s\n%!" path
      | Pg_server.Server.Tcp (h, p) -> Printf.printf "gpgs: serving on tcp:%s:%d\n%!" h p);
      ignore resolved
    in
    Pg_server.Server.run ~stop ~on_ready config service;
    (* run returning is the clean drain *)
    exit 0
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Listen on a unix domain socket at $(docv).")
  in
  let host_arg =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"Bind address for $(b,--port) (default: loopback).")
  in
  let port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Listen on TCP $(docv); $(b,0) picks an ephemeral port (printed on the ready line).")
  in
  let workers_arg =
    Arg.(
      value & opt int 4
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Connections served at once, each by one worker to its end.  The first worker \
             runs on the accepting domain; a connection that finds every worker busy starts \
             a worker domain, up to the host's recommended domain count, and past it a \
             thread on the accepting domain.  A worker domain ends when its connection \
             closes and none is waiting.")
  in
  let max_pending_arg =
    Arg.(
      value & opt int 16
      & info [ "max-pending" ] ~docv:"N"
          ~doc:
            "Accepted connections allowed to wait for a worker; beyond it new connections \
             are shed with an $(b,SRV004) envelope.")
  in
  let max_request_kb_arg =
    Arg.(
      value & opt int 1024
      & info [ "max-request-kb" ] ~docv:"KB"
          ~doc:"Request frame size limit; larger frames get $(b,SRV002) and the connection closes.")
  in
  let read_timeout_arg =
    Arg.(
      value & opt float 30_000.
      & info [ "read-timeout-ms" ] ~docv:"MS"
          ~doc:"Close a connection that stays idle mid-frame for longer than $(docv).")
  in
  let drain_grace_arg =
    Arg.(
      value & opt float 2_000.
      & info [ "drain-grace-ms" ] ~docv:"MS"
          ~doc:
            "On SIGTERM/SIGINT: wait up to $(docv) for in-flight requests, then cancel \
             budgeted jobs at their next governor checkpoint.")
  in
  let watchdog_grace_arg =
    Arg.(
      value & opt float 10_000.
      & info [ "watchdog-grace-ms" ] ~docv:"MS"
          ~doc:
            "Slack past a request's own deadline before the watchdog cancels it as wedged \
             (the response gains an $(b,SRV006) diagnostic).")
  in
  let serve_deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Default validation deadline for requests that carry none; a run it cuts short \
             gains an $(b,SRV003) diagnostic.")
  in
  let serve_max_violations_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-violations" ] ~docv:"N"
          ~doc:"Default violation cap for requests that carry none.")
  in
  let serve_retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Supervisor retries per request for transient failures; crashes always become \
             $(b,SRV005) envelopes, never a dead worker.")
  in
  let plan_cache_arg =
    Arg.(
      value & opt int 16
      & info [ "plan-cache" ] ~docv:"N"
          ~doc:"Compiled-plan LRU capacity (content-hash invalidated).")
  in
  let snapshot_cache_arg =
    Arg.(
      value & opt int 16
      & info [ "snapshot-cache" ] ~docv:"N"
          ~doc:"Loaded-snapshot LRU capacity (content-hash invalidated).")
  in
  let debug_ops_arg =
    Arg.(
      value & flag
      & info [ "debug-ops" ]
          ~doc:"Honour the fault-injection ops (boom, sleep, stall) used by the test suite.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the validation daemon: newline-delimited JSON requests whose responses are \
          the $(b,validate --format json) envelopes, with plan/snapshot caching, a worker \
          pool, load shedding, and graceful drain on SIGTERM.")
    Term.(
      const run $ socket_arg $ host_arg $ port_arg $ workers_arg $ max_pending_arg
      $ max_request_kb_arg $ read_timeout_arg $ drain_grace_arg $ watchdog_grace_arg
      $ serve_deadline_arg $ serve_max_violations_arg $ serve_retries_arg $ plan_cache_arg
      $ snapshot_cache_arg $ debug_ops_arg)

let () =
  let info =
    Cmd.info "gpgs" ~version:"1.0.0"
      ~doc:"GraphQL SDL schemas for Property Graphs (Hartig & Hidders, GRADES-NDA 2019)."
  in
  let group =
    Cmd.group info
      [ parse_cmd; check_cmd; validate_cmd; batch_cmd; sat_cmd; reduce_cmd; extend_cmd; doc_cmd; cypher_cmd; gen_cmd; query_cmd; repair_cmd; diff_cmd; export_cmd; snapshot_cmd; stats_cmd; serve_cmd ]
  in
  let code =
    try
      (* remap cmdliner's reserved codes onto the documented 0/1/2/3 scheme *)
      match Cmd.eval ~catch:false group with
      | c when c = Cmd.Exit.cli_error -> exit_input
      | c when c = Cmd.Exit.internal_error -> exit_budget
      | c -> c
    with
    | Sys_error msg ->
      prerr_endline ("error: " ^ msg);
      exit_input
    | Unix.Unix_error (e, _, path) ->
      (* an artifact write through Durable that failed (no such
         directory, no space...); the destination is untouched *)
      prerr_endline ("error: " ^ path ^ ": " ^ Unix.error_message e);
      exit_input
    | GP.Snapshot.Build_error msg ->
      prerr_endline ("error: " ^ msg);
      exit_input
    | Invalid_argument msg ->
      prerr_endline ("error: " ^ msg);
      exit_input
    | e ->
      prerr_endline ("internal error: " ^ Printexc.to_string e);
      exit_budget
  in
  exit code
