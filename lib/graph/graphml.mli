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
(** Parse a GraphML document produced by {!to_string}.  Nodes receive
    fresh ids in document order. *)

val read : Chunked.source -> (Property_graph.t, error) result
(** Strict streaming parse of a chunked source; equivalent to [parse] of
    the concatenated chunks.  The raw text is scanned incrementally (the
    window is bounded by the largest single XML construct plus one
    chunk); the event stream is buffered so that scan errors preempt
    semantic errors exactly as in {!parse}. *)

val load : string -> (Property_graph.t, error) result
(** Like {!parse}, reading from a file through {!read}.  I/O failures
    are returned as [Error], never raised. *)

(** {2 Fault-tolerant streaming import} *)

type fault = {
  f_record : int;  (** ordinal of the record (key/node/edge element), 1-based *)
  f_subject : string;  (** e.g. [node "n3"] *)
  f_raw : string;  (** raw text of the record up to the defect *)
  f_message : string;
}

val read_tolerant :
  ?max_skipped:int ->
  ?on_fault:(fault -> unit) ->
  Chunked.source ->
  (Property_graph.t * fault list * bool * int, error) result
(** Record-at-a-time import that skips malformed records instead of
    failing: each skipped record is reported as a {!fault} (in document
    order, via [on_fault] as it is found) and the graph is built as if
    the record were absent — so dropping a node also faults every edge
    that references it.  [max_skipped] is the error budget: the fault
    after the budget is still reported, then ingestion stops early and
    the third component of the result is [true].  The fourth component
    counts records encountered.  Holds only the open record in memory.
    Scanner-level XML errors are structural, not record-local, and stay
    fatal ([Error]). *)
