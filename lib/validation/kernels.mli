(** Compiled per-rule validation kernels.

    A check first builds a {!ctx}: the compiled schema {!Pg_schema.Plan}
    plus the graph frozen into a {!Pg_graph.Snapshot} over the plan's
    symbol table.  Every rule of Section 5 then runs as pure integer
    comparisons — interned symbol equality, bitset subtype probes, run
    scans over the snapshot's sorted CSR segments — with strings
    materialized only for reported violations.

    Each rule is a {e slice kernel} ([ws1] … [ss4]) over a sub-range of
    the node range [\[0, n)] or the edge range [\[0, m)], except DS7
    ({!ds7_all}), which groups all nodes.  Kernels only read the frozen
    context, so slices commute and {!Violation.normalize} yields the
    same report for any cut of the ranges.  {!Parallel} runs them over
    contiguous ranges: it is the one compiled schedule, behind every
    compiled engine name.

    These bodies are the only compiled implementation of the rules:
    {!Incremental} re-checks the region an update touched by freezing
    its neighbourhood into a small snapshot and running them on it; the
    string-level {!Naive} engine is the specification they are tested
    against. *)

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
(** Which rule families a check evaluates: WS1–WS4 ([weak]), DS1–DS7
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

(** {1 Key grouping} *)

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
