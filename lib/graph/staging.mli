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
    a name that is already known, given as a range of a larger string,
    allocates nothing.  The staging symbol table is one; the PGF reader
    keeps its node handles in another. *)
module Names : sig
  type t

  val create : unit -> t
  val count : t -> int

  val name : t -> int -> string
  (** The name of an id below {!count}. *)

  val find_sub : t -> string -> int -> int -> int
  (** [find_sub t s pos len] is the id of [String.sub s pos len], or
      [-1]. *)

  val add : t -> string -> int
  (** Register an absent name under the next id. *)

  val intern_sub : t -> string -> int -> int -> int
  (** {!find_sub}, registering a copy of the range when it is absent. *)

  val intern : t -> string -> int
end

type t = private {
  syms : Names.t;
  mutable n : int;
  mutable node_id : int array;  (** external ids *)
  mutable node_label : int array;
  node_props : Props.builder;
  mutable m : int;
  mutable edge_id : int array;
  mutable edge_label : int array;
  mutable edge_src : int array;
  mutable edge_tgt : int array;
  edge_props : Props.builder;
  pend : Props.pending;
}
(** The columns may be longer than [n] / [m] (they grow by doubling);
    only the first [n] / [m] entries are live.  Properties are encoded
    as they are bound, into one {!Props} pool per element kind keyed by
    staging symbol ids. *)

val create : ?nodes:int -> ?edges:int -> ?prop_bytes:int -> unit -> t
(** An empty staging area, with room for the given counts, and for
    [prop_bytes] encoded property bytes per element kind, before the
    first growth. *)

val node_count : t -> int
val edge_count : t -> int

val symbol : t -> string -> int
(** The staging id of a label or property key, allocated on first use. *)

val symbol_sub : t -> string -> int -> int -> int
(** {!symbol} of [String.sub s pos len], without allocating when the
    name is already known. *)

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
