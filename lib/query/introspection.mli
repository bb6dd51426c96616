(** GraphQL introspection (spec Section 4), over the API-extended schema.

    GraphQL tooling (GraphiQL, client code generators) discovers a
    service's capabilities through the [__schema] and [__type] meta-fields.
    This module answers them for a Property Graph schema {e as extended} by
    {!Pg_schema.Api_extension} — i.e. the schema a GraphQL server over the
    graph would expose, with the [Query] root type, key-lookup fields and
    inverse fields included.

    Supported selection surface (the subset used by common tooling):

    - [__schema { queryType types directives }];
    - [__type(name: ...)];
    - on a type object: [kind], [name], [description], [fields { name
      description args type }], [interfaces], [possibleTypes],
      [enumValues { name }], [inputFields], [ofType], and [__typename];
    - on field/argument objects: [name], [description], [type],
      [args], [defaultValue];
    - wrapping types render as the usual [NON_NULL]/[LIST] chains with
      [ofType].

    Unknown meta-selections resolve to [null] rather than failing, so
    newer clients degrade gracefully. *)

val schema_field :
  Pg_schema.Schema.t -> Query_ast.selection list -> (Pg_json.Json.t, string) result
(** Resolve a [__schema { ... }] selection. *)

val type_field :
  Pg_schema.Schema.t -> name:string -> Query_ast.selection list -> (Pg_json.Json.t, string) result
(** Resolve [__type(name: ...) { ... }]; [Ok Null] for unknown names. *)
