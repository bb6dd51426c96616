(** Compiled per-rule validation kernels.

    A check first builds a {!ctx}: the compiled schema {!Pg_schema.Plan}
    plus the graph frozen into a {!Pg_graph.Snapshot} over the plan's
    symbol table.  Every rule of Section 5 then runs as pure integer
    comparisons — interned symbol equality, bitset subtype probes, run
    scans over the snapshot's sorted CSR segments — with strings
    materialized only for reported violations.

    Two consumption shapes share the same per-element rule bodies:

    - {e per-rule slice kernels} ([ws1] … [ss4], {!ds7_all}): each
      covers one rule over a sub-range of the node range [\[0, n)] or
      edge range [\[0, m)], except DS7, which groups all nodes.
      {!Indexed} runs full ranges sequentially; {!Parallel} runs them
      over node-range shards across domains.  Kernels only
      read the frozen context, so slices commute and
      {!Violation.normalize} yields the same report for any schedule.
    - {e fused passes} ({!node_pass}/{!edge_pass}): everything the rule
      set says about one element in a single visit — the {!Linear}
      engine's one-pass shape.

    These bodies are the only compiled implementation of the rules:
    {!Incremental} re-checks the region an update touched by freezing
    its neighbourhood into a small snapshot and running {!Indexed} on
    it; the string-level {!Naive} engine is the specification they are
    tested against. *)

type ctx = {
  plan : Pg_schema.Plan.t;
  snap : Pg_graph.Snapshot.t;
  env : Pg_schema.Values_w.env;
  gov : Governor.run;
      (** budget checkpointed by every kernel loop; {!Governor.no_run}
          (the default) restores the exact ungoverned code path *)
}

val ctx_of_snap :
  ?env:Pg_schema.Values_w.env ->
  ?gov:Governor.run ->
  Pg_schema.Plan.t ->
  Pg_graph.Snapshot.t ->
  ctx
(** Wrap a snapshot frozen against the plan's symbol table — by
    {!Pg_graph.Snapshot.build} or {!Pg_graph.Snapshot.freeze}, or mapped
    back from disk by {!Pg_graph.Snapshot_io.load}, which interns the
    snapshot's symbols into it on the way in.  The caller is responsible
    for that symbol discipline (freezing interns graph-only labels, so
    resolving graphs against a shared plan is sequential-only); the ctx
    is immutable and safe to share across domains (the governor run is
    [Atomic]-based).  [gov] defaults to {!Governor.no_run}: unlimited,
    unmetered. *)

type rule_set = { weak : bool; dirs : bool; strong : bool }
(** Which rule families a pass evaluates: WS1–WS4 ([weak]), DS1–DS7
    ([dirs]), SS1–SS4 ([strong]). *)

type kernel = ctx -> lo:int -> hi:int -> Violation.t list -> Violation.t list
(** One rule over the index range [\[lo, hi)] of its universe (nodes or
    edges), prepending violations to the accumulator. *)

(** {1 Per-rule slice kernels} *)

val ws1 : kernel
(** node properties are well-typed; universe: nodes *)

val ws2 : kernel
(** edge properties are well-typed; universe: edges *)

val ws3 : kernel
(** edge targets are subtype-correct; universe: edges *)

val ws4 : kernel
(** non-list fields justify at most one edge; universe: nodes *)

val ds1 : kernel
(** [@distinct]: no parallel edges; universe: nodes *)

val ds2 : kernel
(** [@noLoops]: no self-edges; universe: nodes *)

val ds3 : kernel
(** [@uniqueForTarget]: in-degree at most 1; universe: nodes *)

val ds4 : kernel
(** [@requiredForTarget]: a qualified incoming edge exists; universe: nodes *)

val ds56 : kernel
(** [@required] properties and edges; universe: nodes *)

val ss1 : kernel
(** node labels are object types; universe: nodes *)

val ss2 : kernel
(** node properties are declared attributes; universe: nodes *)

val ss3 : kernel
(** edge properties are declared arguments; universe: edges *)

val ss4 : kernel
(** edge labels are declared relationships; universe: edges *)

(** {1 Shard-local and frontier passes}

    The sharded engine family splits the rules by locality against a
    {!Pg_graph.Partition}: {!shard_local} evaluates everything about a
    shard that needs no other shard's state (WS1–WS4, SS1–SS2, DS5/DS6,
    intra-shard DS1–DS4 and the per-edge rules on owned intra edges),
    and {!frontier} evaluates the cross-shard complement (DS1 sub-runs
    with remote targets, DS3/DS4 for nodes with cross-shard in-edges,
    WS2/WS3/SS3/SS4 on the frontier edges).  Every rule instance is
    computed exactly once across the two, so the union — plus
    {!ds7_all} over the whole node range — normalizes to a report
    byte-identical to {!Indexed}'s for every shard count. *)

val shard_local :
  ctx -> Pg_graph.Partition.t -> int -> rule_set -> Violation.t list -> Violation.t list
(** The shard-local pass over shard [s]: its node range through the
    fused per-node body, then its owned intra edges through the shard's
    rebased CSR sub-view. *)

val frontier :
  ctx -> Pg_graph.Partition.t -> rule_set -> Violation.t list -> Violation.t list
(** The cross-shard pass, run once after every shard-local pass. *)

(** {1 Fused passes} *)

val node_pass : ctx -> rule_set -> int -> Violation.t list -> Violation.t list
(** All selected per-node rules on node [i], sharing one scan of the
    node's CSR segments (WS1, WS4, DS1–DS6, SS1, SS2). *)

val edge_pass : ctx -> rule_set -> int -> Violation.t list -> Violation.t list
(** All selected per-edge rules on edge [j] (WS2, WS3, SS3, SS4). *)

val ds7_all : ctx -> Violation.t list -> Violation.t list
(** Every [@key] constraint (DS7) over all nodes, one after the other.
    A key's candidates (the nodes of a subtype of its owner) are counted
    first, then grouped by their key tuple in an open-addressing table of
    node indexes, at most half full; one table, sized for the key with
    the most candidates, serves every key.  A tuple is hashed and
    compared where its values lie in the node pool
    ({!Pg_graph.Props.hash_canonical}, {!Pg_graph.Props.equal_canonical}),
    an absent attribute counting as a value of its own, so a node whose
    tuple is new allocates nothing; a node whose tuple is already in the
    table joins that group with one list cell.  Every group of two or
    more nodes yields its pairs.  Governed: checkpoints per node and
    notes the completed scans, and a stopped scan reports a subset of
    the full pairs. *)
