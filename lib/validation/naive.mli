(** The reference validation engine: a direct transcription of the
    first-order formulas in the proof of Theorem 1.

    Its input is the graph of Definition 2.1, (V, E, rho, lambda, sigma),
    as plain data: {!of_graph} reads it from a {!Pg_graph.Property_graph},
    {!of_snapshot} from a frozen, loaded or rebased {!Pg_graph.Snapshot},
    so this oracle reads the representation the compiled engines read.
    Every rule is implemented with the nested quantifiers of its statement
    in Section 5, entirely at the string level ([Schema] lookups,
    [Subtype.named], [Values_w.mem]) — rules that quantify over pairs of
    edges or nodes (WS4, DS1, DS3, DS7) run in quadratic time.  This
    engine is the executable specification and deliberately shares no code
    with the compiled {!Kernels} path or {!Pg_schema.Plan}; the plan-based
    engines must agree with it (property-tested), and the benchmark
    [validation_scaling] measures the gap.

    [gov] (default {!Governor.no_run}) adds a budget checkpoint per
    visited graph element — an inactive run leaves the specification
    path untouched; a stopped one returns the violations found so far.
    The violation cap is counted per visited element, like the compiled
    engines. *)

type node = {
  id : int;
  label : string;  (** lambda(v) *)
  props : (string * Pg_graph.Value.t) list;  (** sigma(v, _), sorted by name *)
}

type edge = {
  id : int;
  label : string;  (** lambda(e) *)
  src : node;
  tgt : node;  (** rho(e) = (src, tgt) *)
  props : (string * Pg_graph.Value.t) list;  (** sigma(e, _), sorted by name *)
}

type graph = { nodes : node list; edges : edge list }
(** V and E, each in its source's order: insertion order for a graph,
    index order for a snapshot (the same order for a snapshot built
    from that graph). *)

val of_graph : Pg_graph.Property_graph.t -> graph

val of_snapshot : Pg_graph.Symtab.t -> Pg_graph.Snapshot.t -> graph
(** The snapshot's graph, its labels and property names read through the
    symbol table it is frozen against (a plan's table, for a snapshot
    loaded or rebased onto that plan). *)

val weak :
  ?env:Pg_schema.Values_w.env ->
  ?gov:Governor.run ->
  Pg_schema.Schema.t ->
  graph ->
  Violation.t list
(** Rules WS1–WS4 (Definition 5.1), normalized. *)

val directives :
  ?env:Pg_schema.Values_w.env ->
  ?gov:Governor.run ->
  Pg_schema.Schema.t ->
  graph ->
  Violation.t list
(** Rules DS1–DS7 (Definition 5.2), normalized. *)

val strong_extra : ?gov:Governor.run -> Pg_schema.Schema.t -> graph -> Violation.t list
(** Rules SS1–SS4 (Definition 5.3), normalized. *)
