(** One validate pipeline for [gpgs validate], every [gpgs batch] job and
    the served [validate] op.

    The paper poses one Schema Validation Problem (Section 6.1); this
    module answers it the same way whoever asks.  {!run} owns, in order:
    the usage checks (answered before any file is read), the plan, the
    graph (PGF text, ingested strictly or fault-tolerantly, or a
    persisted snapshot), the engine call under the
    {!Pg_validation.Supervisor} firewall, and the report's diagnostics
    and summary.  The steps that differ between callers come in as a
    {!held} plan: the CLI compiles its own and freezes text straight
    against it ({!local}); the server lends a cached plan together with
    its lock, its snapshot cache, and a freeze that runs outside the
    lock and is rebased under it.  A caller then only renders the
    {!outcome} — as text, a JSON envelope, a batch job report or a
    served response — so their reports agree by construction. *)

type request = {
  snapshot : bool;  (** the graph file is a persisted snapshot, not PGF text *)
  engine : Pg_validation.Validate.engine;
  mode : Pg_validation.Validate.mode;
  domains : int option;
      (** default: all cores, except for a sharded check of a snapshot,
          which runs on one domain unless asked *)
  shards : int option;  (** sharded engine only; default: [domains] *)
  stream : bool;  (** fault-tolerant ingest; implied by the next two *)
  quarantine : string option;
  max_input_errors : int option;
  deadline_ms : float option;
  max_violations : int option;
  retries : int;  (** supervisor retries of transient failures *)
}
(** One validation as the [gpgs validate] flags describe it.  The graph
    file is {!run}'s own argument, so a batch runs one request over many
    graphs. *)

val budget_usage :
  ?deadline_ms:float -> ?max_violations:int -> ?retries:int -> unit -> string option
(** The first negative budget or retry count, as its [CLI001] message:
    ["--deadline-ms must be non-negative (got -1)"].  [gpgs check], [gpgs
    sat] and [gpgs serve]'s startup use it for their own flags. *)

val usage : request -> string option
(** The request's first usage error, as its [CLI001] message: a domain
    or shard count below 1, [--shards] off the sharded engine, a
    {!budget_usage} error, and the streaming flags with a snapshot. *)

type ingest = {
  ingest_diags : Pg_diag.Diag.t list;  (** [IO002]/[IO003] of a tolerant ingest *)
  ingest_summary : (string * Pg_json.Json.t) list;
  ingest_complete : bool;
}

val load_columns :
  stream:bool ->
  ?quarantine:string ->
  ?max_input_errors:int ->
  string ->
  (Pg_graph.Staging.t * ingest, string * Pg_diag.Diag.t list) result
(** Ingest a PGF file into staged columns, as {!run} does: strictly
    ({!Pg_graph.Pgf.load_columns}), or fault-tolerantly
    ({!Pg_graph.Stream.load_pgf}) when [stream] is set or either budget
    flag is given.  A file that cannot be read is its path and an
    [IO001] diagnostic.  [gpgs snapshot build] reads its graph
    through it. *)

type outcome =
  | Usage of string  (** a [CLI001] message; no file was read *)
  | Unreadable of string * Pg_diag.Diag.t list
      (** the schema or graph file that could not be loaded, and why *)
  | Done of { report : Pg_validation.Validate.report; attempts : int; ingest : ingest }
  | Crashed of { crash : Pg_validation.Supervisor.crash; graph : string; ingest : ingest }

type held = {
  plan : Pg_schema.Plan.t;
  exclusive : (unit -> outcome) -> outcome;
      (** runs the steps that intern into the plan's symbol table —
          loading a snapshot, rebasing a frozen graph — and the check *)
  freeze : Pg_graph.Staging.t -> unit -> Pg_graph.Snapshot.t;
      (** freezes ingested text outside [exclusive]; the returned thunk,
          run inside it, yields the snapshot against [plan] *)
  snapshot : string -> (Pg_graph.Snapshot.t, Pg_diag.Diag.t list) result;
      (** loads (or looks up) a snapshot file against [plan], inside
          [exclusive] *)
}
(** A compiled plan as its holder lends it to one request. *)

val local : Pg_schema.Plan.t -> held
(** A plan its caller owns outright: no lock, text frozen straight
    against the plan's symbol table, snapshots loaded with
    {!Pg_graph.Snapshot_io.load}. *)

type supervised = unit -> Pg_validation.Validate.report Pg_validation.Supervisor.outcome
(** The engine call under the supervisor, retries included. *)

val run :
  ?guard:
    (Pg_validation.Governor.t -> supervised ->
    Pg_validation.Validate.report Pg_validation.Supervisor.outcome) ->
  plan:(unit -> (held, string * Pg_diag.Diag.t list) result) ->
  request ->
  string ->
  outcome
(** [run ~plan req graph] validates the graph file [graph].  [plan] is
    called once the usage checks pass; its error names the file it could
    not load.  An unbudgeted request runs under the inert
    [Governor.make ()] (an active governor changes the report's scan
    counters); a budgeted one under a governor with a private
    cancellation flag.  [guard] wraps the supervised engine call with
    that governor (default: it just runs it); the server registers
    budgeted jobs with its watchdog and drain there.  Exceptions raised
    outside the engine call (an unreadable schema file, a failed freeze)
    propagate. *)

val diagnostics : outcome -> Pg_diag.Diag.t list
(** The report's diagnostics: ingest diagnostics first, then the
    violations ({!Pg_validation.Validate.diagnostics}) or the [VAL002]
    crash. *)

val summary : outcome -> (string * Pg_json.Json.t) list
(** The envelope summary: {!Diag_report.validate_summary} plus the
    ingest fields of a tolerant ingest; empty when nothing was checked. *)

val cls : outcome -> Pg_diag.Diag.Exit.cls option
(** [Some Input_error] when nothing was checked — whatever the
    diagnostics alone would classify to (a schema's consistency findings
    classify lower) — and [None] (classify the diagnostics) otherwise. *)

val job_report : string -> outcome -> Pg_validation.Supervisor.job_report
(** The outcome as the [gpgs batch] job of that name. *)
