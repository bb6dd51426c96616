(** Validation façade: the Schema Validation Problem of Section 6.1.

    [check] evaluates the requested notion of satisfaction and returns a
    report; [conforms] answers the decision problem (does the graph
    {e strongly satisfy} the schema?).

    The compiled engines run on the compiled representation: the schema
    is compiled once into a {!Pg_schema.Plan} (interned symbols, bitset
    subtype matrix, per-label constraint tables) and the graph is frozen
    into a {!Pg_graph.Snapshot} (CSR adjacency over the same symbols).
    [Naive] reads Definition 2.1's graph as data ({!Naive.graph}), from a
    graph or from the same snapshot.  [check] compiles per call; to
    amortize compilation across many checks of the same schema,
    {!compile} once and use {!check_compiled}. *)

type engine =
  | Naive  (** string-level executable specification; quadratic pair rules *)
  | Linear  (** runs what [Indexed] runs; the report names [linear] *)
  | Indexed
      (** the compiled slice kernels over one range of the nodes and one
          of the edges, on the calling domain; near-linear *)
  | Parallel
      (** the compiled slice kernels over one range per domain, across
          OCaml 5 domains: [Sharded] with shards = domains *)
  | Sharded
      (** the compiled slice kernels over [shards] contiguous ranges,
          drained across [domains] domains ({!Parallel.check_sharded});
          the report is the same for every shard and domain count *)

type mode =
  | Weak  (** Definition 5.1: WS1–WS4 *)
  | Directives  (** Definition 5.2: DS1–DS7 *)
  | Strong  (** Definition 5.3: all fifteen rules *)

val engines : (string * engine) list
(** Every engine by the name the CLI, the wire protocol and the reports
    use, in the order the CLI lists them. *)

val modes : (string * mode) list
(** Every mode by its name, likewise. *)

val engine_name : engine -> string
val mode_name : mode -> string

type report = {
  violations : Violation.t list;  (** normalized: sorted, deduplicated *)
  nodes_checked : int;  (** nodes in the graph *)
  edges_checked : int;  (** edges in the graph *)
  complete : bool;
      (** [true] iff no budget checkpoint stopped the run: [violations]
          is the full answer.  A partial report's violations are a
          subset of the complete report's (same rule and subject; the
          retained message of a duplicate group can differ). *)
  nodes_scanned : int;
  edges_scanned : int;
      (** element visits completed before the run (if budgeted) stopped.
          Every engine visits an element once per applicable rule (the
          compiled ones once per rule per element, whatever the shard
          count), so a complete run reports more visits than elements;
          with no budget both equal the graph totals. *)
  mode : mode;
  engine : engine;
}

val compile : Pg_schema.Schema.t -> Pg_schema.Plan.t
(** Compile a schema once for reuse with {!check_compiled}
    ([Pg_schema.Plan.compile]). *)

val check_compiled :
  ?engine:engine ->
  ?mode:mode ->
  ?env:Pg_schema.Values_w.env ->
  ?domains:int ->
  ?shards:int ->
  ?gov:Governor.t ->
  Pg_schema.Plan.t ->
  Pg_graph.Property_graph.t ->
  report
(** {!check} against a precompiled plan.  [Naive] ignores the compiled
    tables and runs on the plan's schema over {!Naive.of_graph}; the
    compiled engines freeze the
    graph ({!Pg_graph.Snapshot.build}, before [gov] starts counting) and
    run {!check_snapshot}.  Reusing one plan across checks is
    sequential-only (freezing a graph interns its labels into the plan's
    symbol table); within a check the [Parallel] engine shares the plan
    across domains safely. *)

val check_snapshot :
  ?engine:engine ->
  ?mode:mode ->
  ?env:Pg_schema.Values_w.env ->
  ?domains:int ->
  ?shards:int ->
  ?gov:Governor.t ->
  Pg_schema.Plan.t ->
  Pg_graph.Snapshot.t ->
  report
(** {!check_compiled} over an already-frozen snapshot — typically one
    mapped back from disk by {!Pg_graph.Snapshot_io.load} against the
    plan's symbol table, which skips parsing and CSR construction
    entirely.  Every engine produces the report of validating the source
    graph, byte for byte; [Naive] reads the snapshot through
    {!Naive.of_snapshot} and the plan's symbol table, and needs no
    compiled tables. *)

val check_mapped :
  ?mode:mode ->
  ?env:Pg_schema.Values_w.env ->
  ?shards:int ->
  ?gov:Governor.t ->
  Pg_schema.Plan.t ->
  Pg_graph.Snapshot_io.mapped ->
  (report, Pg_graph.Snapshot_io.error) result
(** [check_snapshot ~engine:Sharded ~domains:1] over an
    {!Pg_graph.Snapshot_io.open_mapped} handle ([shards] defaults to
    [1]); it remains only for the benchmark replay.  The result type is
    the I/O layer's, but every I/O error was already answered when the
    file was opened: this returns [Ok]. *)

val check :
  ?engine:engine ->
  ?mode:mode ->
  ?env:Pg_schema.Values_w.env ->
  ?domains:int ->
  ?shards:int ->
  ?gov:Governor.t ->
  Pg_schema.Schema.t ->
  Pg_graph.Property_graph.t ->
  report
(** Defaults: [engine = Indexed], [mode = Strong].  [domains] (default:
    all cores) affects the [Parallel] and [Sharded] engines; [shards]
    (default: [domains]) only the [Sharded] one.

    [gov] (default {!Governor.unlimited}) bounds the run: on deadline
    expiry, violation-cap overflow or cancellation the engines stop at
    their next checkpoint and the report comes back with
    [complete = false].  With the unlimited budget every engine takes
    its exact pre-governor code path, so reports are byte-identical to
    an ungoverned build. *)

val conforms :
  ?engine:engine ->
  ?env:Pg_schema.Values_w.env ->
  ?domains:int ->
  Pg_schema.Schema.t ->
  Pg_graph.Property_graph.t ->
  bool
(** [true] iff the graph strongly satisfies the schema. *)

val weakly_satisfies :
  ?engine:engine ->
  ?env:Pg_schema.Values_w.env ->
  ?domains:int ->
  Pg_schema.Schema.t ->
  Pg_graph.Property_graph.t ->
  bool

val satisfies_directives :
  ?engine:engine ->
  ?env:Pg_schema.Values_w.env ->
  ?domains:int ->
  Pg_schema.Schema.t ->
  Pg_graph.Property_graph.t ->
  bool

val violated_rules : report -> Violation.rule list
(** The distinct rules violated, in rule order. *)

val diagnostics : report -> Pg_diag.Diag.t list
(** The report as unified diagnostics: every violation (code = rule
    name), preceded by a [VAL001] budget diagnostic when
    [complete = false]. *)

val pp_report : Format.formatter -> report -> unit
