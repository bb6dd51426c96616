(** Columnar staging: a graph as growable columns, on its way to a
    frozen {!Snapshot}.

    Every graph the compiled validation pipeline sees is assembled here
    first: the PGF ingest ({!Pgf}) appends one record at a time, and a
    persistent {!Property_graph} is fed in by {!of_graph}.
    {!Snapshot.freeze} then builds the CSR view from these columns — the
    one place CSR construction exists.  String-level consumers get a
    {!Property_graph} back by {!thaw}ing the columns.

    Nodes and edges live at dense indexes [0 .. n-1] / [0 .. m-1] in the
    order they were added; edge endpoints are node indexes.  Labels and
    property keys are ids of the staging area's own symbol table, in
    order of first use; {!Snapshot.freeze} translates them into the
    symbol table it freezes against. *)

exception Build_error of string
(** The graph fed to {!of_graph} is not a well-formed Property Graph:
    an edge endpoint is missing from the node set, or two nodes share an
    external id. *)

(** Substring-keyed name tables: dense ids for names, where looking up
    a name that is already known, given as a range of a byte buffer,
    allocates nothing.  The names are kept end to end in one byte
    arena, and each slot of the open-addressing table packs an id with
    its name's hash, so a lookup hashes once and reads a stored name
    only when the hashes agree.  The staging symbol table is one; the
    PGF reader keeps its node handles in another.  A table belongs to
    one ingest: it is not safe to share between domains. *)
module Names : sig
  type t

  val create : unit -> t
  val count : t -> int

  val name : t -> int -> string
  (** The name of an id below {!count}, as a fresh string. *)

  val find_sub : t -> Bytes.t -> int -> int -> int
  (** [find_sub t b pos len] is the id of [Bytes.sub_string b pos len],
      or [-1].  A miss remembers where the name would go. *)

  val add_missed : t -> Bytes.t -> int -> int -> int
  (** [add_missed t b pos len] registers the range that the last
      {!find_sub} on [t] missed, under the next id, in the slot that
      lookup found: no second hash or probe.  Nothing may have been added
      to [t] since that lookup.
      @raise Invalid_argument if the last lookup was not a miss. *)

  val intern_sub : t -> Bytes.t -> int -> int -> int
  (** {!find_sub}, registering a copy of the range when it is absent. *)

  val intern : t -> string -> int
end

type t = private {
  syms : Names.t;
  node_id : Column.t;  (** external ids *)
  node_label : Column.t;
  node_props : Props.builder;
  edge_id : Column.t;
  edge_label : Column.t;
  edge_src : Column.t;
  edge_tgt : Column.t;
  edge_props : Props.builder;
  pend : Props.pending;
}
(** One {!Column} entry per node or edge.  Properties are encoded as
    they are bound, into one {!Props} pool per element kind keyed by
    staging symbol ids. *)

val create : ?prop_bytes:int -> unit -> t
(** An empty staging area, with room for [prop_bytes] encoded property
    bytes per element kind before the first growth. *)

val node_count : t -> int
val edge_count : t -> int

val symbol : t -> string -> int
(** The staging id of a label or property key, allocated on first use. *)

val symbol_sub : t -> Bytes.t -> int -> int -> int
(** {!symbol} of [Bytes.sub_string b pos len], without allocating when
    the name is already known. *)

val symbol_name : t -> int -> string
val symbols : t -> int

val prop : t -> int -> Value.t -> unit
(** [prop t key v] encodes a property of the record about to be added
    by {!add_node} or {!add_edge}.  Binding a key again replaces the
    value: the last binding wins, as in {!Property_graph.add_node}.  The
    record's vector is sorted by key when the record is added. *)

val add_node : t -> id:int -> label:int -> unit
(** Append a node with the pending properties; its index is the node
    count before the call. *)

val add_edge : t -> id:int -> label:int -> src:int -> tgt:int -> unit
(** Append an edge between two staged node indexes, with the pending
    properties.
    @raise Invalid_argument if an endpoint is not a staged node. *)

val of_graph : Property_graph.t -> t
(** Stage a persistent graph: nodes and edges in id order, external ids
    kept.  @raise Build_error on dangling edge endpoints or duplicate
    node ids. *)

val thaw : t -> Property_graph.t
(** The staged graph as a persistent {!Property_graph}, its property
    values decoded, nodes and edges numbered by index (so a staged PGF
    document thaws to exactly the graph its records describe). *)

val pp : Format.formatter -> t -> unit
(** ["graph with N nodes, M edges"], as {!Property_graph.pp}. *)
