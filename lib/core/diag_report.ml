(* The machine-readable report contract of the gpgs CLI.

   Each subcommand's [--format json] output is one envelope built here,
   so the CLI and the golden tests share a single definition of the
   format.  The envelope (see [Pg_diag.Diag.envelope]) carries the
   command name, the computed exit status/code, severity counts, a
   command-specific summary object, and the diagnostics array. *)

module Diag = Pg_diag.Diag
module Json = Pg_json.Json

let envelope ~command ?summary ?cls diagnostics =
  Diag.envelope ~tool:"gpgs" ~command ?summary ?cls diagnostics

let write_envelope w ~command ?summary ?cls diagnostics =
  Diag.write_envelope w ~tool:"gpgs" ~command ?summary ?cls diagnostics

let to_string json = Json.to_string ~indent:true json

(* ---- command-specific summaries ---- *)

let schema_summary (sch : Pg_schema.Schema.t) =
  let count f = Json.Int (List.length (f sch)) in
  [
    ("objects", count Pg_schema.Schema.object_names);
    ("interfaces", count Pg_schema.Schema.interface_names);
    ("unions", count Pg_schema.Schema.union_names);
    ("enums", count Pg_schema.Schema.enum_names);
    ("scalars", count Pg_schema.Schema.scalar_names);
    ("directives", count Pg_schema.Schema.directive_names);
  ]

let validate_summary (r : Pg_validation.Validate.report) =
  [
    ("engine", Json.String (Pg_validation.Validate.engine_name r.engine));
    ("mode", Json.String (Pg_validation.Validate.mode_name r.mode));
    ("nodes", Json.Int r.nodes_checked);
    ("edges", Json.Int r.edges_checked);
    ("complete", Json.Bool r.complete);
    ("nodes_scanned", Json.Int r.nodes_scanned);
    ("edges_scanned", Json.Int r.edges_scanned);
    ("violations", Json.Int (List.length r.violations));
  ]

let verdict_json = function
  | Pg_sat.Tableau.Satisfiable -> Json.Assoc [ ("verdict", Json.String "satisfiable") ]
  | Pg_sat.Tableau.Unsatisfiable -> Json.Assoc [ ("verdict", Json.String "unsatisfiable") ]
  | Pg_sat.Tableau.Unknown reason ->
    Json.Assoc [ ("verdict", Json.String "unknown"); ("reason", Json.String reason) ]

let sat_summary (r : Pg_sat.Satisfiability.report) =
  [
    ("alcqi", verdict_json r.alcqi);
    ("finite", verdict_json r.finite);
    ("witness", Json.Bool (r.witness <> None));
  ]

let check_summary sch (issues : Pg_schema.Consistency.issue list)
    (sat_reports : (string * Pg_sat.Satisfiability.report) list) =
  [
    ("schema", Json.Assoc (schema_summary sch));
    ("consistency_issues", Json.Int (List.length issues));
    ( "satisfiability",
      Json.Assoc
        (List.map (fun (ot, r) -> (ot, Json.Assoc (sat_summary r))) sat_reports) );
  ]

(* ---- streaming ingestion (pg_graph cannot depend on pg_diag, so the
   Stream -> Diag bridge lives here) ---- *)

let ingest_diagnostics ~file (o : _ Pg_graph.Stream.outcome) =
  (* IO-family diagnostics render as bare messages in text mode, so each
     message carries the file and record context itself *)
  let skipped =
    List.map
      (fun (f : Pg_graph.Stream.fault) ->
        Diag.error ~code:"IO002" ~subject:file
          (Printf.sprintf "%s: %s: skipped malformed record: %s" file f.subject f.message))
      o.faults
  in
  if o.budget_exhausted then
    skipped
    @ [
        Diag.error ~code:"IO003" ~subject:file
          (Printf.sprintf
             "%s: input error budget exhausted after %d malformed record(s); ingestion stopped at record %d"
             file (List.length o.faults) o.records);
      ]
  else skipped

let ingest_summary (o : _ Pg_graph.Stream.outcome) =
  [
    ("ingest_complete", Json.Bool o.complete);
    ("records", Json.Int o.records);
    ("records_skipped", Json.Int (List.length o.faults));
  ]

(* ---- batch runs ---- *)

let job_json (j : Pg_validation.Supervisor.job_report) =
  Json.Assoc
    [
      ("file", Json.String j.job);
      ("status", Json.String (Pg_validation.Supervisor.status_name j.job_status));
      ("attempts", Json.Int j.attempts);
      ("diagnostics", Json.Int (List.length j.diags));
    ]

let batch_summary (b : Pg_validation.Supervisor.batch) =
  [
    ("jobs", Json.List (List.map job_json b.jobs));
    ("completed", Json.Int b.completed);
    ("partial", Json.Int b.partial);
    ("crashed", Json.Int b.crashed);
    ("unreadable", Json.Int b.unreadable);
  ]

let diff_summary (changes : Pg_validation.Schema_diff.change list) =
  let count sev =
    List.length
      (List.filter (fun (c : Pg_validation.Schema_diff.change) -> c.severity = sev) changes)
  in
  [
    ("breaking", Json.Int (count Pg_validation.Schema_diff.Breaking));
    ("compatible", Json.Int (count Pg_validation.Schema_diff.Compatible));
  ]
