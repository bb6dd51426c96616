(* Test runner: every module contributes a named alcotest suite. *)

let () =
  Alcotest.run "graphql_pg"
    [
      ("value", Test_value.suite);
      ("property_graph", Test_property_graph.suite);
      ("lexer", Test_lexer.suite);
      ("parser", Test_parser.suite);
      ("printer", Test_printer.suite);
      ("lint", Test_lint.suite);
      ("pgf", Test_pgf.suite);
      ("wrapped", Test_wrapped.suite);
      ("schema", Test_schema.suite);
      ("subtype", Test_subtype.suite);
      ("values_w", Test_values_w.suite);
      ("consistency", Test_consistency.suite);
      ("of_ast", Test_of_ast.suite);
      ("validation", Test_validation.suite);
      ("engines", Test_engines.suite);
      ("cnf_dpll", Test_cnf_dpll.suite);
      ("alcqi_tableau", Test_alcqi_tableau.suite);
      ("tableau_diff", Test_tableau_diff.suite);
      ("satisfiability", Test_satisfiability.suite);
      ("paper_examples", Test_paper_examples.suite);
      ("angles", Test_angles.suite);
      ("api_extension", Test_api_extension.suite);
      ("gen", Test_gen.suite);
      ("json", Test_json.suite);
      ("query", Test_query.suite);
      ("query_prop", Test_query_prop.suite);
      ("incremental", Test_incremental.suite);
      ("schema_diff", Test_schema_diff.suite);
      ("schema_doc", Test_schema_doc.suite);
      ("cli_formats", Test_cli_formats.suite);
      ("diag", Test_diag.suite);
      ("roundtrip", Test_roundtrip.suite);
      ("fuzz", Test_fuzz.suite);
      ("repair", Test_repair.suite);
      ("mutation", Test_mutation.suite);
      ("neo4j", Test_neo4j.suite);
      ("introspection", Test_introspection.suite);
      ("governor", Test_governor.suite);
      ("recovery", Test_recovery.suite);
      ("frontends", Test_frontends.suite);
      ("pgschema", Test_pgschema.suite);
      ("stream", Test_stream.suite);
      ("snapshot_io", Test_snapshot_io.suite);
      ("sharded", Test_sharded.suite);
      ("server", Test_server.suite);
      ("validate_req", Test_validate_request.suite);
      ("fault", Test_fault.suite);
    ]
