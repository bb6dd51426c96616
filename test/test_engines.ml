(* Differential and fault-injection testing of the validation engines.

   - Naive, Linear, Indexed and Parallel must agree on arbitrary
     (schema, graph) pairs, including garbage graphs (fuzz) and graphs
     with nodes/edges removed after generation (exercises id-sparse
     universes).
   - Conformant graphs generated from random schemas must validate.
   - Every Corruption mutator must make its targeted rule fire, in all
     engines.
   - All five engines — the string-level Naive oracle, the three compiled
     plan consumers (Linear, Indexed, Parallel) and Incremental — must
     produce byte-identical normalized reports, messages included.
   - Float key properties with nan and -0.0 must group consistently in
     DS7 across all engines.
   - Naive must read a snapshot as the graph it was frozen from: built,
     written and loaded back, or rebased onto another symbol table. *)

module G = Graphql_pg.Property_graph
module Value = Graphql_pg.Value
module Val = Graphql_pg.Validate
module Vi = Graphql_pg.Violation
module Schema_gen = Graphql_pg.Schema_gen
module Instance_gen = Graphql_pg.Instance_gen
module Corruption = Graphql_pg.Corruption

let check_bool = Alcotest.(check bool)

(* Four-way agreement.  Parallel runs with 2 domains so that sharding,
   cross-domain merging and normalization are actually exercised even on
   single-core CI hosts. *)
let engines_agree sch g =
  let naive = (Val.check ~engine:Val.Naive sch g).Val.violations in
  let linear = (Val.check ~engine:Val.Linear sch g).Val.violations in
  let indexed = (Val.check ~engine:Val.Indexed sch g).Val.violations in
  let parallel = (Val.check ~engine:Val.Parallel ~domains:2 sch g).Val.violations in
  List.equal Vi.equal naive linear
  && List.equal Vi.equal linear indexed
  && List.equal Vi.equal indexed parallel

(* All five engines must render the same normalized report byte for byte:
   the compiled kernels and the incremental revalidator emit the same
   message strings as the string-level specification. *)
let reports_byte_identical sch g =
  let of_engine engine =
    List.map Vi.to_string (Val.check ~engine sch g).Val.violations
  in
  let naive = of_engine Val.Naive in
  let incremental =
    List.map Vi.to_string (Graphql_pg.Incremental.violations (Graphql_pg.Incremental.create sch g))
  in
  List.for_all
    (List.equal String.equal naive)
    [
      of_engine Val.Linear;
      of_engine Val.Indexed;
      List.map Vi.to_string
        (Val.check ~engine:Val.Parallel ~domains:2 sch g).Val.violations;
      incremental;
    ]

let seeded_rng seed = Random.State.make [| seed; 0xBEEF |]

(* Naive over the graph and over three snapshots of it — frozen with
   [Snapshot.build], written and loaded back with [Snapshot_io.load],
   and rebased onto a second plan's symbol table, which holds decoy
   names first so that the graph's names get other ids — must render
   the same report byte for byte, in every mode, unbudgeted and under
   violation caps. *)
let naive_reads_snapshots sch g =
  let module Snapshot = Graphql_pg.Snapshot in
  let module Sio = Graphql_pg.Snapshot_io in
  let module Plan = Graphql_pg.Plan in
  let plan = Val.compile sch and other = Val.compile sch in
  List.iter
    (fun name -> ignore (Graphql_pg.Symtab.intern (Plan.symtab other) name))
    [ "zz"; "aa"; "p0" ];
  let built = Snapshot.build (Plan.symtab plan) g in
  let rebased = Snapshot.rebase ~src:(Plan.symtab plan) (Plan.symtab other) built in
  let path = Filename.temp_file "gpgs_naive" ".snap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let st = Graphql_pg.Symtab.create () in
      let loaded =
        match Sio.write st (Snapshot.build st g) path with
        | Error e -> Alcotest.failf "write: %a" Sio.pp_error e
        | Ok () -> (
          match Sio.load (Plan.symtab plan) path with
          | Ok snap -> snap
          | Error e -> Alcotest.failf "load: %a" Sio.pp_error e)
      in
      List.for_all
        (fun mode ->
          List.for_all
            (fun max_violations ->
              let gov () =
                match max_violations with
                | None -> Graphql_pg.Governor.unlimited
                | Some m -> Graphql_pg.Governor.make ~max_violations:m ()
              in
              let rendered r = Format.asprintf "%a" Val.pp_report r in
              let on plan snap =
                rendered (Val.check_snapshot ~engine:Val.Naive ~mode ~gov:(gov ()) plan snap)
              in
              let reference = rendered (Val.check ~engine:Val.Naive ~mode ~gov:(gov ()) sch g) in
              List.for_all (String.equal reference)
                [ on plan built; on plan loaded; on other rebased ])
            [ None; Some 1; Some 3; Some 7 ])
        [ Val.Weak; Val.Directives; Val.Strong ])

(* Remove roughly 1/8 of the nodes and edges of a generated graph, so the
   surviving id spaces are sparse (ids are no longer contiguous and the
   arrays snapshotted by the engines skip holes). *)
let decimate rng g =
  let g =
    List.fold_left
      (fun g e -> if Random.State.int rng 8 = 0 then G.remove_edge g e else g)
      g (G.edges g)
  in
  List.fold_left
    (fun g v -> if Random.State.int rng 8 = 0 then G.remove_node g v else g)
    g (G.nodes g)

let prop_engines_agree_on_fuzz =
  QCheck2.Test.make ~name:"Naive = Linear = Indexed = Parallel on fuzz graphs" ~count:150
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = seeded_rng seed in
      let sch = Schema_gen.random_schema rng in
      let g = Instance_gen.fuzz rng sch ~max_nodes:10 in
      engines_agree sch g)

let prop_engines_agree_on_social =
  QCheck2.Test.make ~name:"all five engines agree on corrupted social graphs"
    ~count:10
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let sch = Graphql_pg.Social.schema () in
      let g = Graphql_pg.Social.generate ~seed ~persons:30 () in
      let g = Graphql_pg.Social.corrupt_uniformly ~seed ~rate:0.1 sch g in
      engines_agree sch g && reports_byte_identical sch g)

let prop_engines_agree_on_decimated =
  QCheck2.Test.make ~name:"engines agree on graphs with removed nodes/edges"
    ~count:40
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let sch = Graphql_pg.Social.schema () in
      let g = Graphql_pg.Social.generate ~seed ~persons:20 () in
      let g = decimate (seeded_rng seed) g in
      engines_agree sch g && reports_byte_identical sch g)

let prop_naive_reads_snapshots_of_fuzz =
  QCheck2.Test.make ~name:"naive reads snapshots of fuzz graphs as the graphs" ~count:100
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = seeded_rng seed in
      let sch = Schema_gen.random_schema rng in
      naive_reads_snapshots sch (Instance_gen.fuzz rng sch ~max_nodes:10))

let prop_naive_reads_snapshots_of_social =
  QCheck2.Test.make ~name:"naive reads snapshots of corrupted social graphs" ~count:10
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let sch = Graphql_pg.Social.schema () in
      let g = Graphql_pg.Social.generate ~seed ~persons:30 () in
      naive_reads_snapshots sch (Graphql_pg.Social.corrupt_uniformly ~seed ~rate:0.1 sch g))

let prop_naive_reads_snapshots_of_decimated =
  QCheck2.Test.make ~name:"naive reads snapshots of graphs with sparse ids" ~count:20
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let sch = Graphql_pg.Social.schema () in
      let g = Graphql_pg.Social.generate ~seed ~persons:20 () in
      naive_reads_snapshots sch (decimate (seeded_rng seed) g))

let prop_conformant_graphs_validate =
  QCheck2.Test.make ~name:"Instance_gen.conformant graphs strongly satisfy" ~count:40
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = seeded_rng seed in
      let sch = Schema_gen.random_schema rng in
      match Instance_gen.conformant ~target_nodes:20 sch with
      | Some g -> Val.conforms sch g && engines_agree sch g
      | None -> true (* all object types unsatisfiable within bounds: fine *))

(* DS7 with tricky floats: nan = nan and -0.0 = 0.0 under Value.equal, so
   two nodes whose key property is nan (or -0.0 vs 0.0) collide.  The
   parallel engine groups keys by a serialized form, which must agree with
   Value.equal on these edge cases. *)
let float_key_schema () =
  Graphql_pg.schema_of_string_exn
    "type P @key(fields: [\"x\"]) { x: Float }"

let float_key_values =
  [ Some (Value.Float Float.nan);
    Some (Value.Float (-0.0));
    Some (Value.Float 0.0);
    Some (Value.Float 1.5);
    Some (Value.Int 3);
    None (* property absent *) ]

let prop_engines_agree_on_float_keys =
  QCheck2.Test.make ~name:"engines agree on nan/-0.0 float keys (DS7)" ~count:60
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = seeded_rng seed in
      let sch = float_key_schema () in
      let n = 4 + Random.State.int rng 6 in
      let g = ref G.empty in
      for _ = 1 to n do
        let props =
          match List.nth float_key_values (Random.State.int rng 6) with
          | Some v -> [ ("x", v) ]
          | None -> []
        in
        let g', _ = G.add_node !g ~label:"P" ~props () in
        g := g'
      done;
      engines_agree sch !g && reports_byte_identical sch !g)

let test_float_key_collisions () =
  let sch = float_key_schema () in
  let add g props = fst (G.add_node g ~label:"P" ~props ()) in
  (* nan vs nan collides; -0.0 vs 0.0 collides; nan vs 0.0 does not *)
  let g = add (add G.empty [ ("x", Value.Float Float.nan) ]) [ ("x", Value.Float Float.nan) ] in
  let fired engine = List.mem Vi.DS7 (Val.violated_rules (Val.check ~engine sch g)) in
  check_bool "nan/nan fires DS7 (naive)" true (fired Val.Naive);
  check_bool "nan/nan fires DS7 (indexed)" true (fired Val.Indexed);
  check_bool "nan/nan fires DS7 (parallel)" true (fired Val.Parallel);
  let g2 = add (add G.empty [ ("x", Value.Float (-0.0)) ]) [ ("x", Value.Float 0.0) ] in
  let fired2 engine = List.mem Vi.DS7 (Val.violated_rules (Val.check ~engine sch g2)) in
  check_bool "-0.0/0.0 fires DS7 (naive)" true (fired2 Val.Naive);
  check_bool "-0.0/0.0 fires DS7 (parallel)" true (fired2 Val.Parallel);
  let g3 = add (add G.empty [ ("x", Value.Float Float.nan) ]) [ ("x", Value.Float 0.0) ] in
  let fired3 engine = List.mem Vi.DS7 (Val.violated_rules (Val.check ~engine sch g3)) in
  check_bool "nan/0.0 does not fire DS7 (naive)" false (fired3 Val.Naive);
  check_bool "nan/0.0 does not fire DS7 (parallel)" false (fired3 Val.Parallel)

(* fault injection: per-rule mutators *)
let corruption_case rule =
  let name = Printf.sprintf "corruption fires %s" (Vi.rule_name rule) in
  QCheck2.Test.make ~name ~count:25
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let sch = Graphql_pg.Social.schema () in
      let g = Graphql_pg.Social.generate ~seed:(seed mod 97) ~persons:12 () in
      let rng = seeded_rng seed in
      match Corruption.mutate rule sch rng g with
      | None -> QCheck2.assume_fail () (* mutator not applicable on this graph *)
      | Some g' ->
        let report = Val.check ~engine:Val.Indexed sch g' in
        let fired = List.mem rule (Val.violated_rules report) in
        fired && engines_agree sch g')

let test_mutate_any_always_invalidates () =
  let sch = Graphql_pg.Social.schema () in
  let g = Graphql_pg.Social.generate ~persons:15 () in
  let rng = seeded_rng 5 in
  for _ = 1 to 20 do
    match Corruption.mutate_any sch rng g with
    | Some (rule, g') ->
      let report = Val.check sch g' in
      check_bool
        (Printf.sprintf "mutation %s invalidates" (Vi.rule_name rule))
        true
        (List.mem rule (Val.violated_rules report))
    | None -> Alcotest.fail "no mutator applicable on a rich graph"
  done

let suite =
  [
    QCheck_alcotest.to_alcotest prop_engines_agree_on_fuzz;
    QCheck_alcotest.to_alcotest prop_engines_agree_on_social;
    QCheck_alcotest.to_alcotest prop_engines_agree_on_decimated;
    QCheck_alcotest.to_alcotest prop_naive_reads_snapshots_of_fuzz;
    QCheck_alcotest.to_alcotest prop_naive_reads_snapshots_of_social;
    QCheck_alcotest.to_alcotest prop_naive_reads_snapshots_of_decimated;
    QCheck_alcotest.to_alcotest prop_conformant_graphs_validate;
    QCheck_alcotest.to_alcotest prop_engines_agree_on_float_keys;
    Alcotest.test_case "DS7 float key edge cases" `Quick test_float_key_collisions;
  ]
  @ List.map (fun rule -> QCheck_alcotest.to_alcotest (corruption_case rule)) Vi.all_rules
  @ [ Alcotest.test_case "mutate_any invalidates" `Quick test_mutate_any_always_invalidates ]
