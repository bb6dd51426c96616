(** The machine-readable report contract of the gpgs CLI: one JSON
    envelope per command, shared between [bin/gpgs.ml] and the golden
    tests so the [--format json] output cannot drift from what the tests
    pin down. *)

val envelope :
  command:string ->
  ?summary:(string * Pg_json.Json.t) list ->
  ?cls:Pg_diag.Diag.Exit.cls ->
  Pg_diag.Diag.t list ->
  Pg_json.Json.t
(** {!Pg_diag.Diag.envelope} with [tool = "gpgs"]. *)

val write_envelope :
  Pg_json.Json.writer ->
  command:string ->
  ?summary:(string * Pg_json.Json.t) list ->
  ?cls:Pg_diag.Diag.Exit.cls ->
  Pg_diag.Diag.t list ->
  unit
(** {!Pg_diag.Diag.write_envelope} with [tool = "gpgs"]. *)

val to_string : Pg_json.Json.t -> string
(** Indented rendering — the exact bytes the CLI prints. *)

val schema_summary : Pg_schema.Schema.t -> (string * Pg_json.Json.t) list
val engine_name : Pg_validation.Validate.engine -> string
val mode_name : Pg_validation.Validate.mode -> string
val validate_summary : Pg_validation.Validate.report -> (string * Pg_json.Json.t) list
val verdict_json : Pg_sat.Tableau.verdict -> Pg_json.Json.t
val sat_summary : Pg_sat.Satisfiability.report -> (string * Pg_json.Json.t) list

val check_summary :
  Pg_schema.Schema.t ->
  Pg_schema.Consistency.issue list ->
  (string * Pg_sat.Satisfiability.report) list ->
  (string * Pg_json.Json.t) list

val ingest_diagnostics : file:string -> _ Pg_graph.Stream.outcome -> Pg_diag.Diag.t list
(** One [IO002] per skipped record, plus a trailing [IO003] when the
    error budget stopped ingestion early.  The [Stream] -> [Diag] bridge
    lives here because [pg_graph] sits below [pg_diag] in the library
    stack. *)

val ingest_summary : _ Pg_graph.Stream.outcome -> (string * Pg_json.Json.t) list
(** Summary fields merged into a command's envelope when streaming
    ingestion was used: [ingest_complete], [records], [records_skipped]. *)

val batch_summary : Pg_validation.Supervisor.batch -> (string * Pg_json.Json.t) list
(** The [gpgs batch] envelope summary: a [jobs] array (file, status,
    attempts, diagnostic count) plus per-status totals. *)

val diff_summary : Pg_validation.Schema_diff.change list -> (string * Pg_json.Json.t) list
