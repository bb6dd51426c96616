(** Schema-enforced GraphQL mutations over Property Graphs.

    This closes the loop the paper's Section 3.6 opens: with a schema
    acting as integrity constraints, writes arriving through a GraphQL API
    must be rejected when they would invalidate the graph.  The module
    derives mutation fields from the schema by convention and executes
    them against {!Pg_validation.Incremental} state, so each update is
    checked in time proportional to the touched neighbourhood.  Validation is
    transactional with commit-time semantics: the root fields of one
    mutation operation execute in order (so a later field can reference a
    node created by an earlier one, and an intermediate state may be
    temporarily incomplete), and the {e final} state must strongly satisfy
    the schema — otherwise the whole mutation fails with the violations
    and the caller keeps the unchanged prior state.

    Generated mutation fields, for each object type [T] with a declared
    single-property scalar key [k] (keys are how GraphQL identifies
    Property Graph nodes):

    - [createT(k: ..., attr: ..., ...)] — create a node with the given
      attribute properties; returns the node.
    - [deleteT(k: ...)] — remove the node (and its incident edges);
      returns [true], or [false] when no node matched.
    - [setTAttr(k: ..., value: ...)] — set one attribute property (with
      [value: null] removing it); returns the node.
    - [linkTField(from: ..., to: ..., edge args...)] — add an [f]-labeled
      edge from the [T] node with key [from] to the target node with key
      [to] (the target object type must be keyed too; for union or
      interface targets a [toType: String!] argument selects the concrete
      type when more than one target type is keyed).
    - [unlinkTField(from: ..., to: ...)] — remove the matching edges;
      returns the number removed.

    Keyless object types get only [createT]; their nodes cannot be
    addressed afterwards.  A key argument matches a node's key property
    as the query lookups match it ({!Executor.json_matches_value}), so
    [5] and ["5"] both address the node [createT(id: 5)] made for an
    [ID] key, and a key the graph holds in another form its type
    accepts is found when given in that form (an [ID] stored as the
    [String] ["p1"] or the [Int] [7], addressed as ["p1"] or [7]).

    A successful execution returns the response data {e and} the updated
    incremental state, ready for the next operation. *)

type error = {
  path : string list;
  message : string;
  violations : Pg_validation.Violation.t list;
      (** non-empty when the mutation was rejected by validation *)
}

val pp_error : Format.formatter -> error -> unit

val execute :
  ?variables:(string * Pg_json.Json.t) list ->
  Pg_validation.Incremental.t ->
  string ->
  (Pg_json.Json.t * Pg_validation.Incremental.t, error) result
(** [execute state text] parses [text] as a single [mutation { ... }]
    operation and runs its root fields left to right, transactionally. *)
