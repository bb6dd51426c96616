(* The validate pipeline shared by the CLI, batch and the server (see
   validate_request.mli). *)

module Diag = Pg_diag.Diag
module Validate = Pg_validation.Validate
module Governor = Pg_validation.Governor
module Supervisor = Pg_validation.Supervisor
module Plan = Pg_schema.Plan
module Snapshot = Pg_graph.Snapshot

type request = {
  snapshot : bool;
  engine : Validate.engine;
  mode : Validate.mode;
  domains : int option;
  shards : int option;
  stream : bool;
  quarantine : string option;
  max_input_errors : int option;
  deadline_ms : float option;
  max_violations : int option;
  retries : int;
}

let budget_usage ?deadline_ms ?max_violations ?retries () =
  let negative flag got = Some (Printf.sprintf "%s must be non-negative (got %s)" flag got) in
  match (deadline_ms, max_violations, retries) with
  | Some d, _, _ when d < 0. -> negative "--deadline-ms" (Printf.sprintf "%g" d)
  | _, Some m, _ when m < 0 -> negative "--max-violations" (string_of_int m)
  | _, _, Some r when r < 0 -> negative "--retries" (string_of_int r)
  | _ -> None

(* --quarantine and --max-input-errors imply --stream. *)
let streaming ~stream ~quarantine ~max_input_errors =
  stream || quarantine <> None || max_input_errors <> None

(* A nonsensical count is a usage error up front, never a silent clamp;
   --shards only means something to the sharded engine. *)
let usage r =
  let at_least_one flag n = Some (Printf.sprintf "%s must be at least 1 (got %d)" flag n) in
  match r with
  | { domains = Some d; _ } when d < 1 -> at_least_one "--domains" d
  | { shards = Some s; _ } when s < 1 -> at_least_one "--shards" s
  | { shards = Some _; engine; _ } when engine <> Validate.Sharded ->
    Some "--shards applies to --engine sharded only"
  | _ -> (
    match
      budget_usage ?deadline_ms:r.deadline_ms ?max_violations:r.max_violations
        ~retries:r.retries ()
    with
    | Some _ as msg -> msg
    | None
      when r.snapshot
           && streaming ~stream:r.stream ~quarantine:r.quarantine
                ~max_input_errors:r.max_input_errors ->
      Some
        "--snapshot input is already frozen; the streaming ingestion flags apply to PGF text \
         only"
    | None -> None)

type ingest = {
  ingest_diags : Diag.t list;
  ingest_summary : (string * Pg_json.Json.t) list;
  ingest_complete : bool;
}

type outcome =
  | Usage of string
  | Unreadable of string * Diag.t list
  | Done of { report : Validate.report; attempts : int; ingest : ingest }
  | Crashed of { crash : Supervisor.crash; graph : string; ingest : ingest }

type held = {
  plan : Plan.t;
  exclusive : (unit -> outcome) -> outcome;
  freeze : Pg_graph.Staging.t -> unit -> Snapshot.t;
  snapshot : string -> (Snapshot.t, Diag.t list) result;
}

let local plan =
  let symtab = Plan.symtab plan in
  {
    plan;
    exclusive = (fun f -> f ());
    freeze =
      (fun columns ->
        let snap = Snapshot.freeze symtab columns in
        fun () -> snap);
    snapshot =
      (fun path ->
        Result.map_error
          (fun (e : Pg_graph.Snapshot_io.error) -> [ Diag.error ~code:e.code e.message ])
          (Pg_graph.Snapshot_io.load symtab path));
  }

type supervised = unit -> Validate.report Supervisor.outcome

(* The graph as every engine reads it: a snapshot frozen from the text,
   or a file loaded inside [exclusive]. *)
type graph = Frozen of (unit -> Snapshot.t) | Snapshot_file

let ( let* ) r f = match r with Ok v -> f v | Error (file, diags) -> Unreadable (file, diags)

let no_ingest = { ingest_diags = []; ingest_summary = []; ingest_complete = true }

let pgf_error path e =
  Error (path, [ Diag.error ~code:"IO001" (Format.asprintf "%a" Pg_graph.Pgf.pp_error e) ])

let load_columns ~stream ?quarantine ?max_input_errors path =
  if streaming ~stream ~quarantine ~max_input_errors then
    match Pg_graph.Stream.load_pgf ?max_errors:max_input_errors ?quarantine path with
    | Error e -> pgf_error path e
    | Ok o ->
      Ok
        ( o.graph,
          {
            ingest_diags = Diag_report.ingest_diagnostics ~file:path o;
            ingest_summary = Diag_report.ingest_summary o;
            ingest_complete = o.complete;
          } )
  else
    match Pg_graph.Pgf.load_columns path with
    | Error e -> pgf_error path e
    | Ok columns -> Ok (columns, no_ingest)

(* Ingest needs no plan, so it runs outside [exclusive]; so does the
   freeze of the ingested columns. *)
let ingest (r : request) held path =
  if r.snapshot then Ok (Snapshot_file, no_ingest)
  else
    Result.map
      (fun (columns, ingest) -> (Frozen (held.freeze columns), ingest))
      (load_columns ~stream:r.stream ?quarantine:r.quarantine
         ?max_input_errors:r.max_input_errors path)

(* The engine call.  A sharded check of a snapshot runs on one domain
   unless the request names more (and its shard count defaults to the
   domain count, as everywhere). *)
let checker (r : request) held path graph =
  let on_snapshot snap gov =
    let domains =
      if r.snapshot && r.engine = Validate.Sharded then Some (Option.value r.domains ~default:1)
      else r.domains
    in
    Validate.check_snapshot ~engine:r.engine ~mode:r.mode ?domains ?shards:r.shards ~gov
      held.plan snap
  in
  match graph with
  | Frozen snap -> Ok (on_snapshot (snap ()))
  | Snapshot_file -> (
    match held.snapshot path with Ok snap -> Ok (on_snapshot snap) | Error d -> Error (path, d))

(* An unbudgeted request runs under the inert governor: even a bare
   cancellation flag would switch the report's scan counters to the
   budgeted accounting.  A budgeted one owns a private flag, never one
   shared with other requests. *)
let governor r =
  match (r.deadline_ms, r.max_violations) with
  | None, None -> Governor.make ()
  | deadline_ms, max_violations ->
    Governor.make ?deadline_ms ?max_violations ~cancel:(Atomic.make false) ()

let run ?(guard = fun _ supervised -> supervised ()) ~plan (r : request) path =
  match usage r with
  | Some msg -> Usage msg
  | None ->
    let* held = plan () in
    let* graph, ingest = ingest r held path in
    held.exclusive (fun () ->
      let* check = checker r held path graph in
      let gov = governor r in
      let policy = Supervisor.policy ~retries:r.retries () in
      match guard gov (fun () -> Supervisor.supervise ~policy (fun () -> check gov)) with
      | Supervisor.Done (report, attempts) -> Done { report; attempts; ingest }
      | Supervisor.Crashed crash -> Crashed { crash; graph = path; ingest })

let diagnostics = function
  | Usage msg -> [ Diag.error ~code:"CLI001" msg ]
  | Unreadable (_, diags) -> diags
  | Done { report; ingest; _ } -> ingest.ingest_diags @ Validate.diagnostics report
  | Crashed { crash; graph; ingest } ->
    ingest.ingest_diags @ [ Supervisor.crash_diagnostic ~subject:graph crash ]

let summary = function
  | Usage _ | Unreadable _ -> []
  | Done { report; ingest; _ } -> Diag_report.validate_summary report @ ingest.ingest_summary
  | Crashed { ingest; _ } -> ingest.ingest_summary

let cls = function Usage _ | Unreadable _ -> Some Diag.Exit.Input_error | Done _ | Crashed _ -> None

let job_report job outcome =
  let diags = diagnostics outcome in
  match outcome with
  | Usage _ | Unreadable _ ->
    { Supervisor.job; job_status = Supervisor.Unreadable; attempts = 0; diags }
  | Done { report; attempts; ingest } ->
    let complete = report.Validate.complete && ingest.ingest_complete in
    { job; job_status = (if complete then Completed else Partial); attempts; diags }
  | Crashed { crash; _ } ->
    { job; job_status = Crashed_job; attempts = crash.Supervisor.crash_attempts; diags }
