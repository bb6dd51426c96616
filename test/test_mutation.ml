(* Schema-enforced GraphQL mutations: successful writes, rejected writes
   (with the violating rule reported), and transactionality. *)

module J = Graphql_pg.Json
module Inc = Graphql_pg.Incremental
module Mu = Graphql_pg.Mutation
module G = Graphql_pg.Property_graph
module V = Graphql_pg.Value
module Vi = Graphql_pg.Violation

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let schema =
  Graphql_pg.schema_of_string_exn
    {|
type Person @key(fields: ["id"]) {
  id: ID! @required
  name: String! @required
  age: Int
  boss: Person
  knows(since: Int!): [Person] @distinct @noLoops
}
type Tag @key(fields: ["label"]) {
  label: String! @required
  applied: [Person] @uniqueForTarget
}
|}

let fresh () = Inc.create schema G.empty

let run ?variables state text =
  match Mu.execute ?variables state text with
  | Ok (data, state') -> (data, state')
  | Error e -> Alcotest.failf "mutation failed: %a" Mu.pp_error e

let run_err state text =
  match Mu.execute state text with
  | Ok _ -> Alcotest.fail "expected rejection"
  | Error e -> e

let test_create () =
  let data, state =
    run (fresh ())
      {|mutation { createPerson(id: "p1", name: "Ada", age: 36) { id name age __typename } }|}
  in
  let p = J.member "createPerson" data in
  check_bool "id" true (J.member "id" p = J.String "p1");
  check_bool "name" true (J.member "name" p = J.String "Ada");
  check_bool "age" true (J.member "age" p = J.Int 36);
  check_bool "typename" true (J.member "__typename" p = J.String "Person");
  check_int "one node" 1 (G.node_count (Inc.graph state));
  check_bool "state valid" true (Inc.is_valid state)

let test_create_rejected_missing_required () =
  let e = run_err (fresh ()) {|mutation { createPerson(id: "p1") { id } }|} in
  check_bool "violations reported" true
    (List.exists (fun v -> v.Vi.rule = Vi.DS5) e.Mu.violations)

let test_create_rejected_duplicate_key () =
  let _, state = run (fresh ()) {|mutation { createPerson(id: "p1", name: "A") { id } }|} in
  let e = run_err state {|mutation { createPerson(id: "p1", name: "B") { id } }|} in
  check_bool "DS7 reported" true (List.exists (fun v -> v.Vi.rule = Vi.DS7) e.Mu.violations);
  check_int "state unchanged" 1 (G.node_count (Inc.graph state))

let test_create_rejects_bad_value () =
  let e = run_err (fresh ()) {|mutation { createPerson(id: "p1", name: "A", age: "old") { id } }|} in
  check_bool "coercion error" true (e.Mu.violations = [])

let two_people () =
  let _, state = run (fresh ()) {|mutation { createPerson(id: "p1", name: "A") { id } }|} in
  let _, state = run state {|mutation { createPerson(id: "p2", name: "B") { id } }|} in
  state

let test_link_and_unlink () =
  let state = two_people () in
  let data, state =
    run state
      {|mutation { linkPersonKnows(from: "p1", to: "p2", since: 2020) { id knows { id } } }|}
  in
  check_bool "edge visible" true
    (J.member "knows" (J.member "linkPersonKnows" data)
    = J.List [ J.Assoc [ ("id", J.String "p2") ] ]);
  (* the edge carries its mandatory property *)
  let g = Inc.graph state in
  let e = List.hd (G.edges g) in
  check_bool "edge property stored" true (G.edge_prop g e "since" = Some (V.Int 2020));
  (* duplicate link violates @distinct *)
  let e2 =
    run_err state {|mutation { linkPersonKnows(from: "p1", to: "p2", since: 2021) { id } }|}
  in
  check_bool "DS1" true (List.exists (fun v -> v.Vi.rule = Vi.DS1) e2.Mu.violations);
  (* self link violates @noLoops *)
  let e3 =
    run_err state {|mutation { linkPersonKnows(from: "p1", to: "p1", since: 2021) { id } }|}
  in
  check_bool "DS2" true (List.exists (fun v -> v.Vi.rule = Vi.DS2) e3.Mu.violations);
  (* unlink removes it *)
  let data, state = run state {|mutation { unlinkPersonKnows(from: "p1", to: "p2") }|} in
  check_bool "one removed" true (J.member "unlinkPersonKnows" data = J.Int 1);
  check_int "no edges left" 0 (G.edge_count (Inc.graph state))

let test_ws4_on_non_list () =
  let state = two_people () in
  let _, state = run state {|mutation { linkPersonBoss(from: "p1", to: "p2") { id } }|} in
  let _, state' = run state {|mutation { createPerson(id: "p3", name: "C") { id } }|} in
  let e = run_err state' {|mutation { linkPersonBoss(from: "p1", to: "p3") { id } }|} in
  check_bool "WS4" true (List.exists (fun v -> v.Vi.rule = Vi.WS4) e.Mu.violations)

let test_set_and_remove () =
  let state = two_people () in
  let data, state =
    run state {|mutation { setPersonAge(id: "p1", value: 30) { id age } }|}
  in
  check_bool "set" true (J.member "age" (J.member "setPersonAge" data) = J.Int 30);
  let data, state = run state {|mutation { setPersonAge(id: "p1", value: null) { age } }|} in
  check_bool "removed" true (J.member "age" (J.member "setPersonAge" data) = J.Null);
  (* removing a required property is rejected *)
  let e = run_err state {|mutation { setPersonName(id: "p1", value: null) { id } }|} in
  check_bool "DS5" true (List.exists (fun v -> v.Vi.rule = Vi.DS5) e.Mu.violations)

let test_delete () =
  let state = two_people () in
  let data, state = run state {|mutation { deletePerson(id: "p2") }|} in
  check_bool "deleted" true (J.member "deletePerson" data = J.Bool true);
  check_int "one left" 1 (G.node_count (Inc.graph state));
  let data, _ = run state {|mutation { deletePerson(id: "nobody") }|} in
  check_bool "missing gives false" true (J.member "deletePerson" data = J.Bool false)

(* An Int given for an ID key is coerced to the ID its node was created
   with, whichever form later mutations address the node by. *)
let test_int_id_keys () =
  let _, state = run (fresh ()) {|mutation { createPerson(id: 5, name: "A") { id } }|} in
  let _, state = run state {|mutation { createPerson(id: "6", name: "B") { id } }|} in
  let data, state = run state {|mutation { setPersonName(id: 5, value: "C") { name } }|} in
  check_bool "set by 5" true (J.member "name" (J.member "setPersonName" data) = J.String "C");
  let _, state =
    run state {|mutation { linkPersonKnows(from: "5", to: 6, since: 2020) { id } }|}
  in
  let data, state = run state {|mutation { unlinkPersonKnows(from: 5, to: "6") }|} in
  check_bool "unlink by 5" true (J.member "unlinkPersonKnows" data = J.Int 1);
  (match Graphql_pg.Executor.run schema (Inc.graph state) {|{ personById(id: 5) { name } }|} with
  | Ok data ->
    check_bool "query lookup by 5" true
      (J.member "name" (J.member "personById" data) = J.String "C")
  | Error msg -> Alcotest.failf "query failed: %s" msg);
  let data, state = run state {|mutation { deletePerson(id: "5") }|} in
  check_bool "delete by \"5\"" true (J.member "deletePerson" data = J.Bool true);
  check_int "one left" 1 (G.node_count (Inc.graph state))

(* valuesW(ID) also holds String and Int values, so a graph built
   outside the mutation plane may store its ID keys in those forms; the
   lookups still find them. *)
let test_keys_in_other_forms () =
  let person id name g =
    fst (G.add_node g ~label:"Person" ~props:[ ("id", id); ("name", V.String name) ] ())
  in
  let state = Inc.create schema (G.empty |> person (V.String "p1") "A" |> person (V.Int 7) "B") in
  check_bool "valid" true (Inc.is_valid state);
  let data, state = run state {|mutation { setPersonName(id: "p1", value: "C") { name } }|} in
  check_bool "set p1" true (J.member "name" (J.member "setPersonName" data) = J.String "C");
  let data, state = run state {|mutation { setPersonName(id: 7, value: "D") { name } }|} in
  check_bool "set 7" true (J.member "name" (J.member "setPersonName" data) = J.String "D");
  let _, state = run state {|mutation { linkPersonKnows(from: "p1", to: 7, since: 1) { id } }|} in
  let _, state = run state {|mutation { linkPersonKnows(from: 7, to: "p1", since: 2) { id } }|} in
  let data, state = run state {|mutation { unlinkPersonKnows(from: "p1", to: 7) }|} in
  check_bool "unlink p1 -> 7" true (J.member "unlinkPersonKnows" data = J.Int 1);
  let data, state = run state {|mutation { unlinkPersonKnows(from: 7, to: "p1") }|} in
  check_bool "unlink 7 -> p1" true (J.member "unlinkPersonKnows" data = J.Int 1);
  let data, state = run state {|mutation { deletePerson(id: "p1") }|} in
  check_bool "delete p1" true (J.member "deletePerson" data = J.Bool true);
  let data, state = run state {|mutation { deletePerson(id: 7) }|} in
  check_bool "delete 7" true (J.member "deletePerson" data = J.Bool true);
  check_int "none left" 0 (G.node_count (Inc.graph state))

let test_delete_cascades_safely () =
  (* deleting a tag target is fine; deleting a person with a unique tag
     keeps validity because edges cascade *)
  let state = two_people () in
  let _, state = run state {|mutation { createTag(label: "vip") { label } }|} in
  let _, state = run state {|mutation { linkTagApplied(from: "vip", to: "p1") { label } }|} in
  let _, state = run state {|mutation { deletePerson(id: "p1") }|} in
  check_bool "still valid" true (Inc.is_valid state)

let test_transactionality () =
  (* second field fails: the whole mutation is rejected, state unchanged *)
  let state = two_people () in
  match
    Mu.execute state
      {|mutation {
  a: createPerson(id: "p3", name: "C") { id }
  b: createPerson(id: "p1", name: "Dup") { id }
}|}
  with
  | Ok _ -> Alcotest.fail "expected rejection"
  | Error _ -> check_int "state unchanged" 2 (G.node_count (Inc.graph state))

let test_variables () =
  let data, _ =
    run (fresh ())
      ~variables:[ ("pid", J.String "p9"); ("n", J.String "Niner") ]
      {|mutation M($pid: ID!, $n: String!) { createPerson(id: $pid, name: $n) { id name } }|}
  in
  check_bool "vars" true
    (J.member "name" (J.member "createPerson" data) = J.String "Niner")

let test_invalid_initial_state () =
  let g, _ = G.add_node G.empty ~label:"Ghost" () in
  let state = Inc.create schema g in
  match Mu.execute state {|mutation { createPerson(id: "x", name: "y") { id } }|} with
  | Ok _ -> Alcotest.fail "expected rejection"
  | Error e -> check_bool "pre-existing violations reported" true (e.Mu.violations <> [])

let suite =
  [
    Alcotest.test_case "create" `Quick test_create;
    Alcotest.test_case "create rejected: missing required" `Quick
      test_create_rejected_missing_required;
    Alcotest.test_case "create rejected: duplicate key" `Quick
      test_create_rejected_duplicate_key;
    Alcotest.test_case "create rejected: bad value" `Quick test_create_rejects_bad_value;
    Alcotest.test_case "link / unlink" `Quick test_link_and_unlink;
    Alcotest.test_case "WS4 on non-list link" `Quick test_ws4_on_non_list;
    Alcotest.test_case "set / remove property" `Quick test_set_and_remove;
    Alcotest.test_case "delete" `Quick test_delete;
    Alcotest.test_case "delete cascades" `Quick test_delete_cascades_safely;
    Alcotest.test_case "transactionality" `Quick test_transactionality;
    Alcotest.test_case "variables" `Quick test_variables;
    Alcotest.test_case "invalid initial state" `Quick test_invalid_initial_state;
    Alcotest.test_case "Int arguments address ID keys" `Quick test_int_id_keys;
    Alcotest.test_case "keys stored in other forms" `Quick test_keys_in_other_forms;
  ]
