(* Validation tests: every rule of Section 5 (WS1-WS4, DS1-DS7, SS1-SS4),
   exercised positively and negatively through both engines. *)

module G = Graphql_pg.Property_graph
module V = Graphql_pg.Value
module Val = Graphql_pg.Validate
module Vi = Graphql_pg.Violation

let check_bool = Alcotest.(check bool)

let schema = Graphql_pg.schema_of_string_exn

(* run both engines, assert they agree, and return the violated rules *)
let rules_of sch g =
  let naive = Val.check ~engine:Val.Naive sch g in
  let indexed = Val.check ~engine:Val.Indexed sch g in
  check_bool "engines agree" true
    (List.equal Vi.equal naive.Val.violations indexed.Val.violations);
  Val.violated_rules indexed

let violates rule sch g = List.mem rule (rules_of sch g)
let conforms sch g = rules_of sch g = []

let base =
  schema
    {|
type A {
  name: String! @required
  score: Float
  tags: [String!]
  single: B
  many(weight: Float certainty: Float!): [B]
}
type B {
  id: ID!
}
|}

let ab ?(a_props = [ ("name", V.String "a") ]) () =
  let g, a = G.add_node G.empty ~label:"A" ~props:a_props () in
  let g, b = G.add_node g ~label:"B" () in
  (g, a, b)

let test_conformant () =
  let g, a, b = ab () in
  let g, _ = G.add_edge g ~label:"single" a b in
  let g, e = G.add_edge g ~label:"many" ~props:[ ("weight", V.Float 1.0) ] a b in
  ignore e;
  check_bool "conforms" true (conforms base g)

let test_ws1 () =
  let g, a, _ = ab () in
  let g = G.set_node_prop g a "score" (V.String "high") in
  check_bool "ill-typed scalar" true (violates Vi.WS1 base g);
  let g2, a2, _ = ab () in
  let g2 = G.set_node_prop g2 a2 "tags" (V.String "not-a-list") in
  check_bool "atom for list" true (violates Vi.WS1 base g2);
  let g3, a3, _ = ab () in
  let g3 = G.set_node_prop g3 a3 "tags" (V.List [ V.String "x"; V.Int 1 ]) in
  check_bool "bad element" true (violates Vi.WS1 base g3);
  let g4, a4, _ = ab () in
  let g4 = G.set_node_prop g4 a4 "tags" (V.List [ V.String "x" ]) in
  check_bool "good list fine" false (violates Vi.WS1 base g4)

let test_ws2 () =
  let g, a, b = ab () in
  let g, _ = G.add_edge g ~label:"many" ~props:[ ("weight", V.String "heavy") ] a b in
  check_bool "ill-typed edge property" true (violates Vi.WS2 base g);
  check_bool "only WS2 (and nothing else)" true (rules_of base g = [ Vi.WS2 ])

let test_ws3 () =
  let g, a, _ = ab () in
  let g, a2 = G.add_node g ~label:"A" ~props:[ ("name", V.String "a2") ] () in
  let g, _ = G.add_edge g ~label:"single" a a2 in
  check_bool "wrong target type" true (violates Vi.WS3 base g)

let test_ws4 () =
  let g, a, b = ab () in
  let g, b2 = G.add_node g ~label:"B" () in
  let g, _ = G.add_edge g ~label:"single" a b in
  let g, _ = G.add_edge g ~label:"single" a b2 in
  check_bool "two edges on non-list field" true (violates Vi.WS4 base g);
  (* list fields allow several *)
  let g2, a2, b2' = ab () in
  let g2, c = G.add_node g2 ~label:"B" () in
  let g2, _ = G.add_edge g2 ~label:"many" a2 b2' in
  let g2, _ = G.add_edge g2 ~label:"many" a2 c in
  check_bool "list field many edges fine" false (violates Vi.WS4 base g2)

(* --- directive rules --- *)

let directed =
  schema
    {|
type A {
  x: ID
  rel: [B] @distinct
  self: [A] @noLoops
  one: [B] @uniqueForTarget
  must: B @required
}
type B @key(fields: ["k"]) {
  k: ID
  back: [A] @requiredForTarget
}
|}

let test_ds1 () =
  let g, a = G.add_node G.empty ~label:"A" () in
  let g, b = G.add_node g ~label:"B" () in
  let g, _ = G.add_edge g ~label:"rel" a b in
  let g, _ = G.add_edge g ~label:"rel" a b in
  check_bool "parallel @distinct edges" true (violates Vi.DS1 directed g);
  let g2, a2 = G.add_node G.empty ~label:"A" () in
  let g2, b2 = G.add_node g2 ~label:"B" () in
  let g2, b3 = G.add_node g2 ~label:"B" () in
  let g2, _ = G.add_edge g2 ~label:"rel" a2 b2 in
  let g2, _ = G.add_edge g2 ~label:"rel" a2 b3 in
  check_bool "different targets fine" false (violates Vi.DS1 directed g2)

let test_ds2 () =
  let g, a = G.add_node G.empty ~label:"A" () in
  let g, _ = G.add_edge g ~label:"self" a a in
  check_bool "loop on @noLoops" true (violates Vi.DS2 directed g);
  let g2, a2 = G.add_node G.empty ~label:"A" () in
  let g2, a3 = G.add_node g2 ~label:"A" () in
  let g2, _ = G.add_edge g2 ~label:"self" a2 a3 in
  check_bool "non-loop fine" false (violates Vi.DS2 directed g2)

let test_ds3 () =
  let g, a1 = G.add_node G.empty ~label:"A" () in
  let g, a2 = G.add_node g ~label:"A" () in
  let g, b = G.add_node g ~label:"B" () in
  let g, _ = G.add_edge g ~label:"one" a1 b in
  let g, _ = G.add_edge g ~label:"one" a2 b in
  check_bool "two incoming on @uniqueForTarget" true (violates Vi.DS3 directed g);
  let g2, a1' = G.add_node G.empty ~label:"A" () in
  let g2, b1 = G.add_node g2 ~label:"B" () in
  let g2, b2 = G.add_node g2 ~label:"B" () in
  let g2, _ = G.add_edge g2 ~label:"one" a1' b1 in
  let g2, _ = G.add_edge g2 ~label:"one" a1' b2 in
  check_bool "different targets fine" false (violates Vi.DS3 directed g2)

let test_ds4 () =
  (* every A needs an incoming "back" edge from a B *)
  let g, _ = G.add_node G.empty ~label:"A" () in
  check_bool "missing incoming @requiredForTarget" true (violates Vi.DS4 directed g);
  let g2, a = G.add_node G.empty ~label:"A" () in
  let g2, b = G.add_node g2 ~label:"B" () in
  let g2, _ = G.add_edge g2 ~label:"back" b a in
  check_bool "incoming present" false (violates Vi.DS4 directed g2)

let test_ds5 () =
  let sch = schema "type A { p: String @required q: [Int] @required }" in
  let g, _ =
    G.add_node G.empty ~label:"A" ~props:[ ("q", V.List [ V.Int 1 ]) ] ()
  in
  check_bool "missing required property" true (violates Vi.DS5 sch g);
  let g2, _ =
    G.add_node G.empty ~label:"A" ~props:[ ("p", V.String "x"); ("q", V.List []) ] ()
  in
  check_bool "empty list for required list" true (violates Vi.DS5 sch g2);
  let g3, _ =
    G.add_node G.empty ~label:"A"
      ~props:[ ("p", V.String "x"); ("q", V.List [ V.Int 1 ]) ]
      ()
  in
  check_bool "both present" false (violates Vi.DS5 sch g3)

let test_ds6 () =
  let g, a = G.add_node G.empty ~label:"A" () in
  let g, b = G.add_node g ~label:"B" () in
  let g, _ = G.add_edge g ~label:"back" b a in
  (* A lacks its required "must" edge *)
  check_bool "missing required edge" true (violates Vi.DS6 directed g);
  let g2, _ = G.add_edge g ~label:"must" a b in
  check_bool "edge present" false (violates Vi.DS6 directed (fst (G.add_edge g2 ~label:"back" b a)))

let test_ds7 () =
  let sch = schema {|type B @key(fields: ["k"]) { k: ID }|} in
  let g, _ = G.add_node G.empty ~label:"B" ~props:[ ("k", V.Id "same") ] () in
  let g, _ = G.add_node g ~label:"B" ~props:[ ("k", V.Id "same") ] () in
  check_bool "key collision" true (violates Vi.DS7 sch g);
  let g2, _ = G.add_node G.empty ~label:"B" ~props:[ ("k", V.Id "x") ] () in
  let g2, _ = G.add_node g2 ~label:"B" ~props:[ ("k", V.Id "y") ] () in
  check_bool "distinct keys" false (violates Vi.DS7 sch g2);
  (* both-absent counts as agreement (Definition 5.2 as written) *)
  let g3, _ = G.add_node G.empty ~label:"B" () in
  let g3, _ = G.add_node g3 ~label:"B" () in
  check_bool "both absent collide" true (violates Vi.DS7 sch g3);
  (* one absent, one present: no agreement *)
  let g4, _ = G.add_node G.empty ~label:"B" ~props:[ ("k", V.Id "x") ] () in
  let g4, _ = G.add_node g4 ~label:"B" () in
  check_bool "absent vs present differ" false (violates Vi.DS7 sch g4)

let test_ds7_multi_field () =
  let sch = schema {|type B @key(fields: ["k1", "k2"]) { k1: ID k2: Int }|} in
  let g, _ =
    G.add_node G.empty ~label:"B" ~props:[ ("k1", V.Id "x"); ("k2", V.Int 1) ] ()
  in
  let g, _ =
    G.add_node g ~label:"B" ~props:[ ("k1", V.Id "x"); ("k2", V.Int 2) ] ()
  in
  check_bool "second field separates" false (violates Vi.DS7 sch g);
  let g2, _ =
    G.add_node G.empty ~label:"B" ~props:[ ("k1", V.Id "x"); ("k2", V.Int 1) ] ()
  in
  let g2, _ =
    G.add_node g2 ~label:"B" ~props:[ ("k1", V.Id "x"); ("k2", V.Int 1) ] ()
  in
  check_bool "full agreement collides" true (violates Vi.DS7 sch g2)

let test_ds_on_interface () =
  (* constraints declared on an interface field apply to implementations *)
  let sch =
    schema
      {|
interface I { rel: [B] @distinct }
type A implements I { rel: [B] }
type B { x: Int }
|}
  in
  let g, a = G.add_node G.empty ~label:"A" () in
  let g, b = G.add_node g ~label:"B" () in
  let g, _ = G.add_edge g ~label:"rel" a b in
  let g, _ = G.add_edge g ~label:"rel" a b in
  check_bool "interface constraint applies to implementation" true (violates Vi.DS1 sch g)

(* --- strong satisfaction --- *)

let test_ss1 () =
  let g, _ = G.add_node G.empty ~label:"Ghost" () in
  check_bool "unknown label" true (violates Vi.SS1 base g);
  let sch = schema "interface I { x: Int }\ntype A implements I { x: Int }" in
  let g2, _ = G.add_node G.empty ~label:"I" () in
  check_bool "interface label not allowed" true (violates Vi.SS1 sch g2)

let test_ss2 () =
  let g, a, _ = ab () in
  let g = G.set_node_prop g a "bogus" (V.Int 1) in
  check_bool "undeclared property" true (violates Vi.SS2 base g);
  (* a relationship field name used as a property is not justified *)
  let g2, a2, _ = ab () in
  let g2 = G.set_node_prop g2 a2 "single" (V.Int 1) in
  check_bool "relationship name as property" true (violates Vi.SS2 base g2)

let test_ss3 () =
  let g, a, b = ab () in
  let g, _ = G.add_edge g ~label:"many" ~props:[ ("bogus", V.Int 1) ] a b in
  check_bool "undeclared edge property" true (violates Vi.SS3 base g)

let test_ss4 () =
  let g, a, b = ab () in
  let g, _ = G.add_edge g ~label:"bogusEdge" a b in
  check_bool "undeclared edge label" true (violates Vi.SS4 base g);
  (* an attribute field name used as an edge is not justified *)
  let g2, a2, b2 = ab () in
  let g2, _ = G.add_edge g2 ~label:"score" a2 b2 in
  check_bool "attribute name as edge" true (violates Vi.SS4 base g2)

let test_weak_vs_strong () =
  let g, a, b = ab () in
  let g, _ = G.add_edge g ~label:"bogusEdge" a b in
  (* unjustified edges pass weak satisfaction but fail strong *)
  check_bool "weak ok" true (Val.weakly_satisfies base g);
  check_bool "strong fails" false (Val.conforms base g)

let test_modes_partition_rules () =
  let g, a, b = ab ~a_props:[] () in
  let g = G.set_node_prop g a "score" (V.Bool true) in
  let g, _ = G.add_edge g ~label:"bogusEdge" a b in
  let weak = Val.check ~mode:Val.Weak base g in
  let dir = Val.check ~mode:Val.Directives base g in
  let strong = Val.check ~mode:Val.Strong base g in
  check_bool "weak sees WS1" true (Val.violated_rules weak = [ Vi.WS1 ]);
  check_bool "directives sees DS5 (missing name)" true (Val.violated_rules dir = [ Vi.DS5 ]);
  check_bool "strong sees all" true
    (Val.violated_rules strong = [ Vi.WS1; Vi.DS5; Vi.SS4 ])

let test_empty_graph_conforms () =
  check_bool "empty graph strongly satisfies" true (Val.conforms base G.empty);
  (* ... unless a @requiredForTarget exists? no: it quantifies over nodes *)
  check_bool "empty graph vs directives" true (Val.conforms directed G.empty)

let test_report_counts () =
  let g, a, b = ab () in
  let g, _ = G.add_edge g ~label:"single" a b in
  let r = Val.check base g in
  Alcotest.(check int) "nodes counted" 2 r.Val.nodes_checked;
  Alcotest.(check int) "edges counted" 1 r.Val.edges_checked

(* The subject text of every constructor, pinned literally; property
   names print as OCaml string literals. *)
let test_subject_text () =
  let check = Alcotest.(check string) in
  check "node" "node n3" (Vi.subject_to_string (Vi.Node 3));
  check "edge" "edge e0" (Vi.subject_to_string (Vi.Edge 0));
  check "node property" {|property "age" of node n12|}
    (Vi.subject_to_string (Vi.Node_property (12, "age")));
  check "edge property" {|property "since" of edge e7|}
    (Vi.subject_to_string (Vi.Edge_property (7, "since")));
  check "escaped property name" {|property "a\"b\\c\233\n" of node n1|}
    (Vi.subject_to_string (Vi.Node_property (1, "a\"b\\c\xe9\n")));
  check "escaped edge property name" {|property "\t\"" of edge e2|}
    (Vi.subject_to_string (Vi.Edge_property (2, "\t\"")));
  check "node pair" "nodes n5 and n4" (Vi.subject_to_string (Vi.Node_pair (5, 4)));
  check "edge pair" "edges e8 and e9" (Vi.subject_to_string (Vi.Edge_pair (8, 9)));
  check "in a violation's text"
    {|[WS2] property "x\"" of edge e3: m (edge properties must be of the required type)|}
    (Vi.to_string (Vi.make Vi.WS2 (Vi.Edge_property (3, "x\"")) "m"))

let suite =
  [
    Alcotest.test_case "conformant graph" `Quick test_conformant;
    Alcotest.test_case "WS1 node property types" `Quick test_ws1;
    Alcotest.test_case "WS2 edge property types" `Quick test_ws2;
    Alcotest.test_case "WS3 target types" `Quick test_ws3;
    Alcotest.test_case "WS4 non-list multiplicity" `Quick test_ws4;
    Alcotest.test_case "DS1 @distinct" `Quick test_ds1;
    Alcotest.test_case "DS2 @noLoops" `Quick test_ds2;
    Alcotest.test_case "DS3 @uniqueForTarget" `Quick test_ds3;
    Alcotest.test_case "DS4 @requiredForTarget" `Quick test_ds4;
    Alcotest.test_case "DS5 required property" `Quick test_ds5;
    Alcotest.test_case "DS6 required edge" `Quick test_ds6;
    Alcotest.test_case "DS7 keys" `Quick test_ds7;
    Alcotest.test_case "DS7 multi-field keys" `Quick test_ds7_multi_field;
    Alcotest.test_case "directives via interfaces" `Quick test_ds_on_interface;
    Alcotest.test_case "SS1 node labels justified" `Quick test_ss1;
    Alcotest.test_case "SS2 node properties justified" `Quick test_ss2;
    Alcotest.test_case "SS3 edge properties justified" `Quick test_ss3;
    Alcotest.test_case "SS4 edges justified" `Quick test_ss4;
    Alcotest.test_case "weak vs strong" `Quick test_weak_vs_strong;
    Alcotest.test_case "modes partition the rules" `Quick test_modes_partition_rules;
    Alcotest.test_case "empty graph" `Quick test_empty_graph_conforms;
    Alcotest.test_case "report counts" `Quick test_report_counts;
    Alcotest.test_case "violation subject text" `Quick test_subject_text;
  ]
