(** Node-range partitions of a frozen {!Snapshot}: the shard abstraction
    the sharded validation engine runs on.

    {!make} cuts the node range [\[0, n)] into [shards] contiguous
    ranges, balanced by node-plus-out-degree weight, and computes the
    {e frontier}: the edges whose endpoints fall in different shards,
    plus the nodes incident to them.  Because every rule of the paper is
    a first-order check over a bounded neighbourhood (Theorem 1 places
    validation in AC0), a shard can be validated against only its own
    column slices; the frontier is exactly the state two shards share.

    Each {!shard} carries zero-copy [Bigarray.Array1.sub] views of the
    snapshot's node columns and of its CSR slice: the views alias the
    snapshot's storage (no bytes are copied), so a worker that touches
    only its shard's views touches only that shard's pages.

    A shard {e owns} the edges of its out-adjacency slice (every edge
    has exactly one source, so ownership is a partition of the edge
    set).  An owned edge is {e intra} when its target is also inside
    the shard, {e cross} otherwise; cross edges appear in
    {!frontier_edges}. *)

type shard = {
  index : int;
  node_lo : int;
  node_hi : int;  (** the shard's node range [\[node_lo, node_hi)] *)
  adj_lo : int;
  adj_hi : int;
      (** the owned slice of the snapshot's [out_adj],
          [= out_start.{node_lo} .. out_start.{node_hi}] *)
  node_id : Snapshot.ints;  (** sub-view of [node_id], length [node_hi - node_lo] *)
  node_label : Snapshot.ints;  (** sub-view of [node_label] *)
  out_start : Snapshot.ints;
      (** sub-view of [out_start], length [node_hi - node_lo + 1]; its
          values are absolute indexes into the snapshot's [out_adj] —
          subtract [adj_lo] to index the [out_adj] sub-view below
          (per-shard CSR rebasing) *)
  out_adj : Snapshot.ints;  (** sub-view of [out_adj], length [adj_hi - adj_lo] *)
}

type t

val make : Snapshot.t -> shards:int -> t
(** Cut the snapshot into [shards] contiguous node ranges (weights
    [1 + out-degree], greedy prefix cut) and compute the frontier in one
    pass over the edges.  Shards beyond the node count come out empty.
    @raise Invalid_argument if [shards < 1]. *)

val snapshot : t -> Snapshot.t
val shard_count : t -> int

val shard : t -> int -> shard
(** The [s]-th shard, [0 <= s < shard_count]. *)

val shard_of_node : t -> int -> int
(** The index of the shard containing node [i] (binary search over the
    cut points; empty shards are skipped). *)

val bounds_of_node : t -> int -> int * int
(** [(node_lo, node_hi)] of the shard containing node [i]. *)

val has_cross_out : t -> int -> bool
(** Does node [i] own at least one cross-shard (outgoing) edge? *)

val has_cross_in : t -> int -> bool
(** Does node [i] receive at least one edge from another shard? *)

val frontier_edges : t -> int array
(** Edge indexes with endpoints in different shards, ascending. *)

val frontier_out_nodes : t -> int array
(** Nodes with at least one cross-shard outgoing edge, ascending. *)

val frontier_in_nodes : t -> int array
(** Nodes with at least one cross-shard incoming edge, ascending. *)

val owned_edges : t -> int -> int array
(** The edge indexes owned by shard [s] (its [out_adj] slice), sorted
    ascending. *)
