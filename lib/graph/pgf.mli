(** PGF — a plain-text serialization for Property Graphs.

    The paper's experiments need graphs to be stored, diffed, and fed to the
    CLI; GraphQL has no instance syntax and no JSON library is available
    offline, so we define a minimal line-oriented format:

    {v
    # a comment
    node n0 :User {id: @"u1", login: "alice", nicknames: ["al", "lissa"]}
    node n1 :UserSession {id: @"s1", startTime: "2019-06-30T09:00"}
    edge e0 n1 -> n0 :user {certainty: 0.9}
    v}

    Values use GraphQL literal syntax with one extension: [@"..."] denotes a
    value of the [ID] scalar type (so that printing and parsing round-trip;
    plain ["..."] is a [String]).  The identifiers [true], [false], [nan],
    [inf] (and [-inf]) are value keywords — non-finite floats round-trip,
    at the price that an enum symbol cannot carry those four names.  Node
    handles ([n0]) are arbitrary identifiers scoped to the document; edge
    handles are optional documentation and are re-numbered on input. *)

type error = { line : int; message : string }

val pp_error : Format.formatter -> error -> unit

(** {2 Columnar ingest}

    PGF text is scanned once, straight into {!Staging} columns, which
    {!Snapshot.freeze} turns into the compiled pipeline's snapshot.  The
    string-level readers below ({!parse}, {!read}, {!load}) are the same
    ingest followed by {!Staging.thaw}. *)

val parse_columns : string -> (Staging.t, error) result
(** Ingest a whole document, scanning the string in place.  Nodes get
    indexes (and ids) in document order, edges likewise. *)

val read_columns : Chunked.source -> (Staging.t, error) result
(** Strict streaming ingest of a chunked source.  Equivalent to
    [parse_columns] of the concatenated chunks, but holds at most one
    line plus one chunk of text in memory. *)

val load_columns : string -> (Staging.t, error) result
(** [load_columns path] streams a file through {!read_columns} from a
    fixed-size chunked buffer (the whole file is never held in memory).
    I/O failures (missing file, permissions) are returned as [Error]
    with [line = 0], never raised. *)

val parse : string -> (Property_graph.t, error) result
(** {!parse_columns}, thawed.  Nodes receive fresh ids in document
    order. *)

val read : Chunked.source -> (Property_graph.t, error) result
(** {!read_columns}, thawed. *)

val load : string -> (Property_graph.t, error) result
(** {!load_columns}, thawed. *)

(** {2 Record-at-a-time ingest}

    One PGF line is one record.  The readers above and the
    fault-tolerant {!Stream.read_pgf} are all folds of {!inc_line} over
    {!Chunked.iter_lines}, so slurped and streamed input is
    processed by the same code path. *)

type inc
(** A graph under construction: staging columns plus the document's
    node-handle table. *)

val inc_create : ?size:int -> unit -> inc
(** [size] is the length of the text to come, if known; it only sizes
    the staging buffers. *)

val inc_line : inc -> int -> string -> int -> int -> (bool, error) result
(** [inc_line b lineno s start stop] applies the raw input line
    [s.[start .. stop-1]].  [Ok true] when it was a record, [Ok false]
    for a blank or [#] comment line.  Atomic: on [Error] the graph under
    construction is unchanged, so a tolerant reader can skip the record
    and continue. *)

val inc_columns : inc -> Staging.t
(** The columns built so far (more lines may follow). *)

val print : Property_graph.t -> string
(** Serialize; [parse (print g)] succeeds and yields a graph {!Property_graph.equal}
    to [g] up to re-numbering of ids (exactly equal when ids are dense and
    in insertion order, as produced by {!Property_graph.add_node}). *)

val value_to_string : Value.t -> string
(** One value in PGF literal syntax (the right-hand side of a property). *)

val value_of_string : string -> (Value.t, error) result
(** Parse one value in PGF literal syntax; the whole string must be
    consumed.  [value_of_string (value_to_string v)] yields a value
    {!Value.equal} to [v] (bit-exact for finite floats, [nan] and the
    infinities; [-0.0] round-trips to [-0.0]). *)

val save : string -> Property_graph.t -> unit
(** [save path g] writes [print g] to a file through {!Durable}: after a
    crash the file is absent, whole and old, or whole and new.
    @raise Unix.Unix_error or [Sys_error] if the write fails (the
    destination is then untouched). *)
