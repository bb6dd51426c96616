(** Streaming fault-tolerant ingestion.

    Record-at-a-time readers for PGF and GraphML that build a graph
    from a fixed-size chunked buffer — the whole
    input is never materialized.  Malformed records are skipped and
    reported as {!fault}s (and optionally written to a quarantine file);
    ingestion stops early only when a configurable error budget is
    exhausted.  Partial graphs carry a [complete : bool] flag mirroring
    the validation governor's partial-result contract, so downstream
    consumers treat a truncated ingest exactly like a truncated
    validation run.

    The strict loaders ({!Pgf.load}, {!Graphml.load}) run the same
    record routines over the same chunked sources and stop at the first
    fault: {!Graphml.read} is {!Graphml.read_tolerant} with a zero error
    budget. *)

type source = Chunked.source

val of_channel : ?chunk_size:int -> in_channel -> source
val of_string : ?chunk_size:int -> string -> source

type fault = Chunked.fault = { record : int; subject : string; text : string; message : string }
(** A skipped record; see {!Chunked.fault}. *)

type 'g outcome = {
  graph : 'g;
      (** everything that parsed cleanly: {!Staging} columns for PGF, a
          {!Property_graph} for GraphML *)
  complete : bool;  (** no faults and no early stop *)
  faults : fault list;  (** skipped records, in document order *)
  budget_exhausted : bool;  (** stopped early: the error budget ran out *)
  records : int;  (** records encountered before stopping *)
}

val read_pgf :
  ?max_errors:int -> ?on_fault:(fault -> unit) -> source -> Staging.t outcome
(** Tolerant PGF ingestion.  One line is one record; a malformed line is
    skipped atomically (the graph is as if the line were absent), so a
    dropped [node] line also faults every later edge that references its
    handle.  [max_errors] is the error budget: [n] faults are tolerated,
    fault [n+1] is still reported and then ingestion stops with
    [budget_exhausted = true]; omitted means unlimited.  [on_fault] runs
    as each fault is found (the quarantine writers hook in here). *)

val read_graphml :
  ?max_errors:int ->
  ?on_fault:(fault -> unit) ->
  source ->
  (Property_graph.t outcome, Graphml.error) result
(** Tolerant GraphML ingestion over {!Graphml.read_tolerant}.  A record
    is one key/node/edge element; a document that ends before
    [</graphml>] is one fault, and the records before the cut are kept.
    Scanner-level XML errors are structural rather than record-local and
    remain fatal ([Error]). *)

val load_pgf :
  ?max_errors:int -> ?quarantine:string -> string -> (Staging.t outcome, Pgf.error) result
(** [load_pgf path] streams a PGF file through {!read_pgf}.
    [quarantine] names a file that receives the raw text of every
    skipped record, one per line; it is created lazily on the first
    fault (a clean ingest leaves no file behind) and committed through
    {!Durable} when the ingest completes, so a crash mid-ingest never
    leaves a torn quarantine file.  I/O failures are returned as
    [Error] with [line = 0], never raised. *)

val load_graphml :
  ?max_errors:int ->
  ?quarantine:string ->
  string ->
  (Property_graph.t outcome, Graphml.error) result
(** GraphML counterpart of {!load_pgf}. *)
