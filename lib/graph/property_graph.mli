(** Property Graphs (Definition 2.1 of the paper, after Angles et al.).

    A Property Graph is a tuple [(V, E, rho, lambda, sigma)] where [V] is a
    finite set of nodes, [E] a finite set of edges disjoint from [V],
    [rho : E -> V x V] is total, [lambda : V u E -> Labels] is total, and
    [sigma : (V u E) x Props -> Values] is partial.

    The implementation is a persistent (immutable) structure; the ids of
    nodes and edges are abstract.  Disjointness of [V] and [E] is enforced
    structurally by giving nodes and edges distinct types.  Incidence
    indexes (outgoing/incoming edges per node) are maintained incrementally
    so that traversal is cheap for generators and validators. *)

type node
(** An element of [V]. *)

type edge
(** An element of [E]. *)

type t
(** A Property Graph. *)

val node_id : node -> int
(** A stable integer identifying the node within its graph. *)

val edge_id : edge -> int
(** A stable integer identifying the edge within its graph. *)

val node_of_id : t -> int -> node option
(** Inverse of {!node_id} for nodes present in the graph. *)

val edge_of_id : t -> int -> edge option

val empty : t
(** The graph with [V = E = {}]. *)

(** {1 Construction} *)

val add_node : t -> label:string -> ?props:(string * Value.t) list -> unit -> t * node
(** [add_node g ~label ~props ()] adds a fresh node with [lambda(v) = label]
    and [sigma(v, k) = x] for every [(k, x)] in [props].  Duplicate property
    names keep the last binding. *)

val add_edge :
  t -> label:string -> ?props:(string * Value.t) list -> node -> node -> t * edge
(** [add_edge g ~label src tgt] adds a fresh edge with [rho(e) = (src, tgt)].
    @raise Invalid_argument if either endpoint is not in the graph. *)

val set_node_prop : t -> node -> string -> Value.t -> t
(** Extends/overwrites [sigma] at [(v, name)].
    @raise Invalid_argument if the node is not in the graph. *)

val set_edge_prop : t -> edge -> string -> Value.t -> t

val remove_node_prop : t -> node -> string -> t
(** Removes [(v, name)] from the domain of [sigma]; no-op if absent. *)

val remove_edge_prop : t -> edge -> string -> t

val relabel_node : t -> node -> string -> t
(** Changes [lambda(v)]; used by fault injection.
    @raise Invalid_argument if the node is not in the graph. *)

val remove_edge : t -> edge -> t
(** Removes the edge; no-op if absent. *)

val remove_node : t -> node -> t
(** Removes the node and all incident edges; no-op if absent. *)

(** {1 Observation} *)

val mem_node : t -> node -> bool
val mem_edge : t -> edge -> bool

val node_count : t -> int
val edge_count : t -> int

val node_label : t -> node -> string
(** [lambda(v)]. @raise Not_found if absent. *)

val edge_label : t -> edge -> string
(** [lambda(e)]. @raise Not_found if absent. *)

val edge_ends : t -> edge -> node * node
(** [rho(e)]. @raise Not_found if absent. *)

val node_prop : t -> node -> string -> Value.t option
(** [sigma(v, name)], or [None] if [(v, name)] is outside [sigma]'s domain. *)

val edge_prop : t -> edge -> string -> Value.t option

val node_props : t -> node -> (string * Value.t) list
(** All properties of the node, sorted by name. *)

val edge_props : t -> edge -> (string * Value.t) list

val node_prop_count : t -> node -> int
(** [List.length (node_props g v)] without materializing the list. *)

val edge_prop_count : t -> edge -> int

val nodes : t -> node list
(** All nodes, in insertion order. *)

val edges : t -> edge list

val out_edges : t -> node -> edge list
(** Edges [e] with [rho(e) = (v, _)]. *)

val in_edges : t -> node -> edge list
(** Edges [e] with [rho(e) = (_, v)]. *)

val fold_nodes : (node -> 'a -> 'a) -> t -> 'a -> 'a
val fold_edges : (edge -> 'a -> 'a) -> t -> 'a -> 'a

val to_arrays : t -> node array * edge array
(** All nodes and all edges in insertion order, each snapshotted into a
    fresh array: one allocation per array, no per-element list cells.
    {!Staging.of_graph} stages a graph from them. *)

val equal : t -> t -> bool
(** Structural equality (same ids, labels, endpoints, and properties).
    This is not graph isomorphism. *)

val pp : Format.formatter -> t -> unit
(** A short human-readable summary ("graph with n nodes, m edges"). *)

val pp_full : Format.formatter -> t -> unit
(** Full listing of nodes and edges, in PGF syntax (see {!Pgf}). *)
