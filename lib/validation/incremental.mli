(** Incremental validation: maintain the strong-satisfaction violation set
    of Section 5 across graph updates without revalidating from scratch.

    A database enforcing an SDL schema validates on every write; full
    revalidation is linear (or worse) in the graph, while the region a
    single update can affect is small.  Theorem 1 makes every rule a
    first-order test on an element's bounded neighbourhood (DS7 on the
    nodes of one keyed type), so validating a region means validating
    its neighbourhood, with the same compiled kernels the batch engines
    run.

    {b Region.}  Per update, the elements whose violations can change.
    A property update changes only the verdicts of the rules that read
    properties — WS1, DS5, SS2 and DS7 on a node, WS2 and SS3 on an edge
    — and these report the element's properties or, for DS7, a pair of
    nodes; so its region is the updated element, and only those
    violations of it are replaced.  Any other update replaces every
    violation about its region: an added node; an added or removed edge
    with its endpoints (their DS4 and DS6 counts include it); a removed
    or relabeled node with its incident edges and their endpoints (their
    justification, target typing and counts read its label).

    {b Neighbourhood.}  The region's nodes with their properties and the
    DS7 candidates, the nodes that may share a key tuple with a region
    node.  For a property update, also the updated edge.  For any other
    update, also every edge incident to a region node; a region edge's
    endpoints are region nodes then, so its source's out segment and its
    target's in segment are there, where the kernels find the pair rules
    about it (WS4, DS1 and DS2 at the source, DS3 at the target).  Edges
    come with their endpoints and properties.  The neighbourhood is staged with
    the graph's own node and edge ids, frozen against the state's plan
    ({!Pg_graph.Snapshot.freeze}) and checked by
    {!Validate.check_snapshot} (strong, indexed).  The violations that
    involve the region replace the old ones; those about any other
    staged element are dropped, since the cut may have left out part of
    that element's own neighbourhood.

    {b Key index.}  A persistent map from key buckets to the ids of
    their nodes, a bucket being a hash of a key constraint and a node's
    key tuple.  Values hash by {!Pg_graph.Value.hash}, compatible with
    {!Pg_graph.Value.equal}, so nodes that agree on a key share a
    bucket: the bucket is the DS7 candidate set, and the DS7 kernel
    decides which candidates collide.  {!create} builds the map after
    the batch check; every update re-indexes the region's nodes, from
    the old graph and then the new one.

    {b Interning.}  Freezing a neighbourhood interns the names the plan
    has not seen (a new label or property key) into the state's plan, as
    the batch check in {!create} does.  A state and every state derived
    from it share that plan, so they are to be used from one domain at a
    time.

    Extensional equality with the batch engines after arbitrary update
    sequences is property-tested in [test/test_incremental.ml].

    The structure is persistent, like the graph itself. *)

type t

val create :
  ?env:Pg_schema.Values_w.env ->
  ?gov:Governor.t ->
  Pg_schema.Schema.t ->
  Pg_graph.Property_graph.t ->
  t
(** Validates the initial graph once (indexed engine).  [gov] (default
    {!Governor.unlimited}) bounds that initial batch validation; if it
    stops early, {!complete} is [false] and the maintained set is a
    subset of the true violation set — updates keep it locally exact
    for the touched regions, but unscanned violations stay unknown. *)

val graph : t -> Pg_graph.Property_graph.t

val schema : t -> Pg_schema.Schema.t

val violations : t -> Violation.t list
(** Normalized, equal to a fresh strong validation of {!graph}. *)

val is_valid : t -> bool
(** No known violations {e and} the initial validation was complete. *)

val complete : t -> bool
(** [false] iff the initial batch validation was cut short by its
    budget, making {!violations} a lower bound. *)

(** {1 Updates}

    Each operation returns the updated state; they mirror
    {!Pg_graph.Property_graph}. *)

val add_node :
  t -> label:string -> ?props:(string * Pg_graph.Value.t) list -> unit ->
  t * Pg_graph.Property_graph.node

val add_edge :
  t ->
  label:string ->
  ?props:(string * Pg_graph.Value.t) list ->
  Pg_graph.Property_graph.node ->
  Pg_graph.Property_graph.node ->
  t * Pg_graph.Property_graph.edge

val remove_edge : t -> Pg_graph.Property_graph.edge -> t
val remove_node : t -> Pg_graph.Property_graph.node -> t
val set_node_prop : t -> Pg_graph.Property_graph.node -> string -> Pg_graph.Value.t -> t
val remove_node_prop : t -> Pg_graph.Property_graph.node -> string -> t
val set_edge_prop : t -> Pg_graph.Property_graph.edge -> string -> Pg_graph.Value.t -> t
val remove_edge_prop : t -> Pg_graph.Property_graph.edge -> string -> t
val relabel_node : t -> Pg_graph.Property_graph.node -> string -> t
