(** Compiled per-rule validation kernels.

    A check first builds a {!ctx}: the compiled schema {!Pg_schema.Plan}
    plus the graph frozen into a {!Pg_graph.Snapshot} over the plan's
    symbol table.  Every rule of Section 5 then runs as pure integer
    comparisons — interned symbol equality, bitset subtype probes, run
    scans over the snapshot's sorted CSR segments — with strings
    materialized only for reported violations.

    Two consumption shapes share the same per-element rule bodies:

    - {e per-rule slice kernels} ([ws1] … [ss4], {!ds7}): each covers one
      rule over a sub-range of the node range [\[0, n)] or edge range
      [\[0, m)].  {!Indexed} runs full ranges sequentially; {!Parallel}
      runs them over node-range shards across domains.  Kernels only
      read the frozen context, so slices commute and
      {!Violation.normalize} yields the same report for any schedule.
    - {e fused passes} ({!node_pass}/{!edge_pass}): everything the rule
      set says about one element in a single visit — the {!Linear}
      engine's one-pass shape. *)

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

val ds7 : ctx -> Pg_schema.Plan.key -> Violation.t list -> Violation.t list
(** One [@key] constraint over all nodes (DS7), grouping by a
    collision-free serialization of the key tuple.  Parallelized across
    constraints, not node slices. *)

val ds7_groups :
  ctx -> Pg_schema.Plan.key -> (string, int list) Hashtbl.t -> lo:int -> hi:int -> unit
(** DS7 phase 1: group the nodes of [\[lo, hi)] by their serialized key
    tuple into the given table.  The sharded engines run one call per
    shard (each into its own table) and merge by concatenating the
    tables' lists per key — group member order is irrelevant to phase
    2.  Governed: checkpoints per node and notes the completed scans. *)

val ds7_emit :
  ctx ->
  Pg_schema.Plan.key ->
  (string, int list) Hashtbl.t ->
  Violation.t list ->
  Violation.t list
(** DS7 phase 2: the pairwise violations of every group of two or more
    nodes.  Notes the fresh findings against the governor. *)

(** {1 Shard-local and frontier passes}

    The sharded engine family splits the rules by locality against a
    {!Pg_graph.Partition}: {!shard_local} evaluates everything about a
    shard that needs no other shard's state (WS1–WS4, SS1–SS2, DS5/DS6,
    intra-shard DS1–DS4 and the per-edge rules on owned intra edges),
    and {!frontier} evaluates the cross-shard complement (DS1 sub-runs
    with remote targets, DS3/DS4 for nodes with cross-shard in-edges,
    WS2/WS3/SS3/SS4 on the frontier edges).  Every rule instance is
    computed exactly once across the two, so the union — plus a
    two-phase DS7 via {!ds7_groups}/{!ds7_emit} — normalizes to a report
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
(** Every [@key] constraint in sequence. *)
