(** GraphQL SDL schemas for Property Graphs — umbrella API.

    This module re-exports the subsystem libraries under one namespace and
    provides the one-line entry points most applications need:

    {[
      let schema = Graphql_pg.schema_of_string_exn sdl_text in
      let graph = Graphql_pg.graph_of_pgf_exn pgf_text in
      assert (Graphql_pg.conforms schema graph);
      match Graphql_pg.satisfiable schema "User" with ...
    ]}

    Subsystems:
    - {!Diag} and {!Diag_registry} (the unified diagnostic model with
      stable codes) plus {!Diag_report} (the CLI's machine-readable
      report envelope) and {!Json} (the shared JSON representation),
    - {!Sdl} (lexer/parser/printer for the GraphQL SDL) and {!Pgschema}
      (the PG-Schema frontend: its own lexer/recovering parser and the
      lowering onto the shared schema IR), with {!Frontend} selecting
      between them by name or file extension,
    - {!Value}, {!Property_graph}, {!Builder}, {!Pgf}, {!Stats}, plus the
      compiled representations {!Symtab} (string interner), {!Staging}
      (the growable columns every ingest fills), {!Snapshot}
      (frozen off-heap CSR view) and {!Snapshot_io} (persisted binary
      snapshots with mmap loading), and the streaming fault-tolerant
      ingestion layer
      {!Chunked}/{!Stream} (the Property Graph substrate),
    - {!Wrapped}, {!Schema}, {!Subtype}, {!Values_w}, {!Consistency},
      {!Of_ast}, {!To_sdl}, {!Api_extension}, and the compiled validation
      {!Plan} (the formal schema model of Section 4),
    - {!Violation}, {!Validate} (+ engines {!Naive}, the fused {!Linear},
      the per-rule {!Indexed}, the multicore {!Parallel} — the latter
      three consume one compiled plan — and the update-driven
      {!Incremental}, with {!Governor} budgets and the {!Supervisor} job
      runner) (the validation semantics of Section 5), and
      {!Validate_request}, the one validate pipeline behind [gpgs
      validate], [gpgs batch] and the server,
    - {!Cnf}, {!Dpll}, {!Alcqi}, {!Tableau}, {!Translate}, {!Counting},
      {!Model_search}, {!Reduction}, {!Satisfiability} (the satisfiability
      analysis of Section 6),
    - {!Json}, {!Query_ast}, {!Query_parser}, {!Executor} (a GraphQL query
      engine over conforming Property Graphs — Section 3.6's natural next
      step),
    - {!Angles_schema}, {!Angles_validate}, {!Angles_of_graphql} (the
      baseline model of Section 2.1),
    - {!Social}, {!Corruption}, {!Schema_gen}, {!Instance_gen}, {!Ksat}
      (workload generators). *)

module Diag = Pg_diag.Diag
module Diag_registry = Pg_diag.Registry
module Diag_report = Diag_report
module Validate_request = Validate_request

module Sdl = struct
  module Source = Pg_sdl.Source
  module Token = Pg_sdl.Token
  module Lexer = Pg_sdl.Lexer
  module Ast = Pg_sdl.Ast
  module Parser = Pg_sdl.Parser
  module Printer = Pg_sdl.Printer
  module Lint = Pg_sdl.Lint
end

module Ir_values = Pg_ir.Values

module Pgschema = struct
  module Token = Pg_pgschema.Token
  module Lexer = Pg_pgschema.Lexer
  module Ast = Pg_pgschema.Ast
  module Parser = Pg_pgschema.Parser
  module Printer = Pg_pgschema.Printer
  module Lower = Pg_pgschema.Lower
  module To_pgschema = Pg_pgschema.To_pgschema
end

module Frontend = Frontend

module Value = Pg_graph.Value
module Property_graph = Pg_graph.Property_graph
module Builder = Pg_graph.Builder
module Pgf = Pg_graph.Pgf
module Graphml = Pg_graph.Graphml
module Chunked = Pg_graph.Chunked
module Stream = Pg_graph.Stream
module Retry = Pg_graph.Retry
module Fault = Pg_fault.Fault
module Durable = Pg_graph.Durable
module Stats = Pg_graph.Stats
module Symtab = Pg_graph.Symtab
module Staging = Pg_graph.Staging
module Snapshot = Pg_graph.Snapshot
module Snapshot_io = Pg_graph.Snapshot_io
module Props = Pg_graph.Props
module Partition = Pg_graph.Partition
module Wrapped = Pg_schema.Wrapped
module Schema = Pg_schema.Schema
module Subtype = Pg_schema.Subtype
module Values_w = Pg_schema.Values_w
module Consistency = Pg_schema.Consistency
module Of_ast = Pg_schema.Of_ast
module To_sdl = Pg_schema.To_sdl
module Api_extension = Pg_schema.Api_extension
module Schema_doc = Pg_schema.Schema_doc
module Plan = Pg_schema.Plan
module Governor = Pg_validation.Governor
module Supervisor = Pg_validation.Supervisor
module Violation = Pg_validation.Violation
module Validate = Pg_validation.Validate
module Naive = Pg_validation.Naive
module Linear = Pg_validation.Linear
module Indexed = Pg_validation.Indexed
module Parallel = Pg_validation.Parallel
module Incremental = Pg_validation.Incremental
module Schema_diff = Pg_validation.Schema_diff
module Cnf = Pg_sat.Cnf
module Dpll = Pg_sat.Dpll
module Alcqi = Pg_sat.Alcqi
module Tableau = Pg_sat.Tableau
module Translate = Pg_sat.Translate
module Counting = Pg_sat.Counting
module Model_search = Pg_sat.Model_search
module Reduction = Pg_sat.Reduction
module Satisfiability = Pg_sat.Satisfiability
module Angles_schema = Pg_angles.Angles_schema
module Angles_validate = Pg_angles.Angles_validate
module Angles_of_graphql = Pg_angles.Of_graphql
module Angles_of_pgschema = Pg_angles.Of_pgschema
module Neo4j_ddl = Pg_angles.Neo4j_ddl
module Json = Pg_json.Json
module Query_ast = Pg_query.Query_ast
module Query_parser = Pg_query.Query_parser
module Executor = Pg_query.Executor
module Mutation = Pg_query.Mutation
module Social = Pg_gen.Social
module Corruption = Pg_gen.Corruption
module Schema_gen = Pg_gen.Schema_gen
module Pgschema_gen = Pg_gen.Pgschema_gen
module Instance_gen = Pg_gen.Instance_gen
module Ksat = Pg_gen.Ksat

(* ------------------------------------------------------------------ *)
(* One-line entry points.                                               *)

let schema_of_string = Of_ast.parse
let schema_of_string_exn = Of_ast.parse_exn
let schema_to_string = To_sdl.to_string

let graph_of_pgf text =
  Result.map_error (fun e -> Format.asprintf "%a" Pgf.pp_error e) (Pgf.parse text)

let graph_of_pgf_exn text =
  match graph_of_pgf text with Ok g -> g | Error msg -> invalid_arg msg

let graph_to_pgf = Pgf.print

let validate ?engine ?env ?domains schema graph =
  Validate.check ?engine ?env ?domains schema graph

let conforms ?engine ?env ?domains schema graph =
  Validate.conforms ?engine ?env ?domains schema graph

let satisfiable ?fuel ?max_nodes schema object_type =
  Satisfiability.satisfiable ?fuel ?max_nodes schema object_type

let unsatisfiable_types ?fuel ?max_nodes schema =
  Satisfiability.unsatisfiable_types ?fuel ?max_nodes schema

let query ?operation ?variables schema graph text =
  Executor.run ?operation ?variables schema graph text

let mutate ?variables state text = Mutation.execute ?variables state text
