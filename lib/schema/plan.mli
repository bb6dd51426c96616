(** The compiled validation plan: a schema with every name the rules of
    Section 5 consult resolved to an interned id, the named-subtype
    relation precomputed as a bitset matrix, and the directive constraint
    tables grouped per owning label.

    Compile once per schema ({!compile}), then share read-only: engines
    resolve a graph against the plan by freezing it into a
    {!Pg_graph.Snapshot} over the same symbol table.  Symbols below
    {!n_types} are the schema's type universe (covered by the subtype
    matrix); later symbols are field/argument/property names and
    graph-only labels, which are subtypes of nothing — matching
    [Subtype.named] for names outside the schema.

    Reusing one plan across checks is sequential-only: freezing a graph
    interns new labels into the plan's symbol table.  Within a single
    check the plan is frozen before kernels run, so sharing across the
    {!Parallel} engine's domains is safe. *)

type arg_info = { ai_type_str : string; ai_mem : Values_w.checker }

type field_info = {
  fi_field : int;  (** interned field name *)
  fi_name : string;
  fi_type_str : string;  (** [Wrapped.to_string] of the field type *)
  fi_attr : bool;  (** attribute definition (scalar-like basetype)? *)
  fi_list : bool;
  fi_base : int;  (** interned basetype; always below {!n_types} *)
  fi_mem : Values_w.checker;
  fi_args : (int * arg_info) array;  (** sorted by interned argument name *)
}

type field_constraint = {
  fc_owner : int;
  fc_owner_name : string;
  fc_field : int;
  fc_field_name : string;
  fc_info : field_info;
}

type key = {
  key_owner : int;
  key_owner_name : string;
  key_fields : string list;  (** as declared, for messages *)
  key_attrs : int array;  (** the attribute-typed key fields, interned *)
  key_attr_names : string array;
}

type t

val compile : Schema.t -> t

val of_schema : Schema.t -> t
(** The documented lowering entry point of the frontend-neutral core
    (alias of {!compile}): every schema frontend — SDL ([Of_ast]),
    PG-Schema ([Pg_pgschema.Lower]), or a programmatic builder —
    produces a {!Schema.t}, and this is the only way schemas reach the
    engines.  Nothing below this point knows which surface language the
    schema came from. *)

val schema : t -> Schema.t
val symtab : t -> Pg_graph.Symtab.t

val n_types : t -> int

val find : t -> string -> int option
(** Interned id of a name, without interning ([None] if never seen). *)

val name : t -> int -> string
(** Reverse lookup, for diagnostics. *)

val is_sub : t -> int -> int -> bool
(** [is_sub plan l u] decides [l ⊑S u] ([Subtype.named]).  [u] must be a
    schema type symbol (below {!n_types}); [l] may be any symbol. *)

val is_object : t -> int -> bool
(** Is the symbol the name of an object type (SS1)? *)

val is_open : t -> int -> bool
(** Is the symbol the name of an [@open] object type?  Compiled
    {!Schema.is_open}: nodes of an open type keep their WS1 typing of
    declared properties but are exempt from SS2 (undeclared properties
    are allowed). *)

val no_field : field_info
(** What {!field} returns for an undeclared field: a shared sentinel,
    told apart with [==].  It is neither an attribute nor a list and
    declares no arguments. *)

val field : t -> int -> int -> field_info
(** [field plan l f]: the declaration of field [f] on object or interface
    type [l] — the compiled [Schema.type_f] — or {!no_field}.  A lookup
    allocates nothing. *)

val no_arg : arg_info
(** What {!arg} returns for an undeclared argument, told apart with
    [==]. *)

val arg : field_info -> int -> arg_info
(** Compiled [Schema.arg_type], or {!no_arg}. *)

val required_at : t -> int -> field_constraint array
(** The [@required] constraints applying to nodes labelled [l]
    (those with [l ⊑ owner]): the DS5/DS6 work list. *)

val required_tgt_at : t -> int -> field_constraint array
(** The [@requiredForTarget] constraints whose target basetype [l] is a
    subtype of: the DS4 work list. *)

val distinct_at : t -> int -> field_constraint array
(** The [@distinct] constraints applying to source label [l] (DS1). *)

val no_loops_at : t -> int -> field_constraint array
(** The [@noLoops] constraints applying to source label [l] (DS2). *)

val unique_tgt : t -> field_constraint array
(** All [@uniqueForTarget] constraints (DS3 filters by source label per
    edge group; the target label is unconstrained). *)

val keys : t -> key array
(** All [@key] constraints (DS7). *)
