(** GraphML import/export, for exchanging Property Graphs with standard
    tooling (Gephi, yEd, Cytoscape).

    Nodes and edges carry their label in a [label] attribute; every
    property becomes a data key.  The four standard GraphML value types
    ([int], [double], [boolean], [string]) are used where they fit; [ID],
    enum and list values — and properties used at more than one type —
    are declared as [attr.type="string"] with a [pg.kind] extension
    attribute and rendered in PGF literal syntax, so the full value
    vocabulary round-trips: [parse (to_string g)] yields a graph equal to
    [g] up to re-numbering of ids (exactly equal when ids are dense and
    in insertion order).  Standard tools ignore [pg.kind] and read the
    string rendering.

    {!parse} covers the XML subset {!to_string} emits (it is an exchange
    format for this toolchain, not a general XML reader).  A property
    named [label] would collide with the label key and is not
    round-trippable. *)

type error = { message : string }

val pp_error : Format.formatter -> error -> unit

val to_string : Property_graph.t -> string
val save : string -> Property_graph.t -> unit
(** [save path g] writes [to_string g] to a file through {!Durable}:
    after a crash the file is absent, whole and old, or whole and new.
    @raise Unix.Unix_error or [Sys_error] if the write fails (the
    destination is then untouched). *)

val parse : string -> (Property_graph.t, error) result
(** Parse a GraphML document produced by {!to_string}: [read] of the
    text as one chunk.  Nodes receive fresh ids in document order. *)

val read : Chunked.source -> (Property_graph.t, error) result
(** Strict streaming parse of a chunked source: {!read_tolerant} with a
    zero error budget, so the first fault it finds is the error.  That
    is the first scan error or malformed record in document order; a
    document that ends inside a record or before [</graphml>] is an
    error; and since edge endpoints are resolved once the document has
    ended, an unknown endpoint is found after every other fault.  The
    chunk size is unobservable, and the window is bounded by the largest
    single XML construct plus one chunk. *)

val load : string -> (Property_graph.t, error) result
(** Like {!parse}, reading from a file through {!read}.  I/O failures
    are returned as [Error], never raised. *)

(** {2 Fault-tolerant streaming import} *)

val read_tolerant :
  ?max_skipped:int ->
  ?on_fault:(Chunked.fault -> unit) ->
  Chunked.source ->
  (Property_graph.t * Chunked.fault list * bool * int, error) result
(** Record-at-a-time import that skips malformed records instead of
    failing: each skipped record is reported as a {!Chunked.fault} (in
    document order, via [on_fault] as it is found) and the graph is
    built as if the record were absent — so dropping a node also faults
    every edge that references it.  A document that ends before
    [</graphml>] is one fault more, unless it ends inside a record,
    which that record's fault reports; the records before the cut are
    kept.  [max_skipped] is the error budget: the fault after the budget
    is still reported, then ingestion stops early and the third
    component of the result is [true].  The fourth component counts
    records encountered.  Holds only the open record in memory.
    Scanner-level XML errors are structural, not record-local, and stay
    fatal ([Error]). *)
