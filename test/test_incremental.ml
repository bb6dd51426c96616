(* Incremental validation: unit behaviour and differential testing against
   the batch engines over random update sequences. *)

module G = Graphql_pg.Property_graph
module V = Graphql_pg.Value
module Inc = Graphql_pg.Incremental
module Val = Graphql_pg.Validate
module Vi = Graphql_pg.Violation

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let schema =
  Graphql_pg.schema_of_string_exn
    {|
type A @key(fields: ["k"]) {
  k: ID
  name: String! @required
  single: B
  many: [B] @distinct
  self: [A] @noLoops
}
type B {
  owner: [A] @requiredForTarget @uniqueForTarget
}
|}

(* the incremental state must always agree with a fresh batch validation,
   byte for byte: region-based revalidation may not change which message
   survives normalization *)
let consistent_with sch t =
  let batch = (Val.check ~engine:Val.Indexed sch (Inc.graph t)).Val.violations in
  List.equal String.equal
    (List.map Vi.to_string (Inc.violations t))
    (List.map Vi.to_string batch)

let assert_consistent t = check_bool "incremental = batch" true (consistent_with schema t)

let rules t = List.sort_uniq compare (List.map (fun v -> v.Vi.rule) (Inc.violations t))

let test_lifecycle () =
  let t = Inc.create schema G.empty in
  check_bool "empty valid" true (Inc.is_valid t);
  (* a bare A node misses its required name; as a B-target nothing yet *)
  let t, a = Inc.add_node t ~label:"A" () in
  assert_consistent t;
  check_bool "DS5 fires" true (List.mem Vi.DS5 (rules t));
  let t = Inc.set_node_prop t a "name" (V.String "a") in
  assert_consistent t;
  (* A still needs an incoming owner edge (@requiredForTarget on B.owner) *)
  check_bool "DS4 pending" true (List.mem Vi.DS4 (rules t));
  let t, b = Inc.add_node t ~label:"B" () in
  assert_consistent t;
  let t, e = Inc.add_edge t ~label:"owner" b a in
  assert_consistent t;
  ignore e;
  check_bool "valid now" true (Inc.is_valid t);
  (* duplicate incoming owner violates @uniqueForTarget *)
  let t, b2 = Inc.add_node t ~label:"B" () in
  let t, e2 = Inc.add_edge t ~label:"owner" b2 a in
  assert_consistent t;
  check_bool "DS3 fires" true (List.mem Vi.DS3 (rules t));
  let t = Inc.remove_edge t e2 in
  assert_consistent t;
  check_bool "DS3 repaired" true (not (List.mem Vi.DS3 (rules t)));
  ignore b2;
  (* remove the node cascading its edges *)
  let t = Inc.remove_node t b in
  assert_consistent t;
  ignore b

let test_key_updates () =
  let t = Inc.create schema G.empty in
  let t, a1 = Inc.add_node t ~label:"A" ~props:[ ("k", V.Id "x"); ("name", V.String "n") ] () in
  let t, a2 = Inc.add_node t ~label:"A" ~props:[ ("k", V.Id "x"); ("name", V.String "n") ] () in
  assert_consistent t;
  check_bool "key collision" true (List.mem Vi.DS7 (rules t));
  let t = Inc.set_node_prop t a2 "k" (V.Id "y") in
  assert_consistent t;
  check_bool "collision repaired" true (not (List.mem Vi.DS7 (rules t)));
  let t = Inc.remove_node_prop t a1 "k" in
  let t = Inc.remove_node_prop t a2 "k" in
  assert_consistent t;
  (* both absent collide again (Definition 5.2 as written) *)
  check_bool "absent-absent collision" true (List.mem Vi.DS7 (rules t))

let test_relabel () =
  let t = Inc.create schema G.empty in
  let t, a = Inc.add_node t ~label:"A" ~props:[ ("name", V.String "n") ] () in
  let t, b = Inc.add_node t ~label:"B" () in
  let t, _ = Inc.add_edge t ~label:"owner" b a in
  let t, _ = Inc.add_edge t ~label:"single" a b in
  assert_consistent t;
  (* relabeling b invalidates the owner edge's justification and the
     single edge's target typing *)
  let t = Inc.relabel_node t b "Ghost" in
  assert_consistent t;
  check_bool "SS1 + WS3" true
    (List.mem Vi.SS1 (rules t) && List.mem Vi.WS3 (rules t));
  let t = Inc.relabel_node t b "B" in
  assert_consistent t;
  check_bool "repaired" true (not (List.mem Vi.SS1 (rules t)))

let test_edge_props () =
  let sch =
    Graphql_pg.schema_of_string_exn
      "type A { rel(w: Float!): [B] }\ntype B { x: Int }"
  in
  let t = Inc.create sch G.empty in
  let t, a = Inc.add_node t ~label:"A" () in
  let t, b = Inc.add_node t ~label:"B" () in
  let t, e = Inc.add_edge t ~label:"rel" a b in
  let t = Inc.set_edge_prop t e "w" (V.String "heavy") in
  check_bool "WS2" true (List.mem Vi.WS2 (rules t));
  let t = Inc.set_edge_prop t e "w" (V.Float 1.0) in
  check_bool "repaired" true (Inc.is_valid t);
  let t = Inc.set_edge_prop t e "junk" (V.Int 1) in
  check_bool "SS3" true (List.mem Vi.SS3 (rules t));
  let t = Inc.remove_edge_prop t e "junk" in
  check_bool "valid" true (Inc.is_valid t);
  let batch = (Val.check sch (Inc.graph t)).Val.violations in
  check_int "batch agrees" 0 (List.length batch)

(* A property update re-checks only the rules that read properties; the
   rules about the element's label and edges keep their verdicts. *)
let test_property_updates () =
  let t = Inc.create schema G.empty in
  let t, a = Inc.add_node t ~label:"A" ~props:[ ("name", V.String "a") ] () in
  let t, b = Inc.add_node t ~label:"B" () in
  let t, owner = Inc.add_edge t ~label:"owner" b a in
  let t, many = Inc.add_edge t ~label:"many" a b in
  let t, _ = Inc.add_edge t ~label:"many" a b in
  let t, _ = Inc.add_edge t ~label:"self" a a in
  let t = Inc.set_node_prop t a "name" (V.String "a2") in
  assert_consistent t;
  let t = Inc.set_node_prop t b "zzz" (V.Int 1) in
  assert_consistent t;
  let t = Inc.set_edge_prop t owner "zzz" (V.Int 1) in
  assert_consistent t;
  let t = Inc.set_edge_prop t many "zzz" (V.Int 1) in
  assert_consistent t;
  let t = Inc.remove_edge_prop (Inc.remove_edge_prop t owner "zzz") many "zzz" in
  assert_consistent t;
  let t = Inc.remove_node_prop t b "zzz" in
  assert_consistent t;
  check_bool "the parallel pair and the loop remain" true (rules t = [ Vi.DS1; Vi.DS2 ])

(* [@open] on about half the object types of a generated schema; the
   annotation goes last in the [type ... {] header line *)
let open_some rng sdl =
  "directive @open on OBJECT\n\n"
  ^ String.concat "\n"
      (List.map
         (fun line ->
           if String.starts_with ~prefix:"type " line && Random.State.bool rng then
             String.sub line 0 (String.length line - 2) ^ " @open {"
           else line)
         (String.split_on_char '\n' sdl))

(* differential: random update sequences stay consistent with batch *)
let prop_random_updates =
  QCheck2.Test.make ~name:"incremental = batch over random update sequences" ~count:60
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 0xD1FF |] in
      let sch =
        Graphql_pg.schema_of_string_exn
          (open_some rng (Graphql_pg.Schema_gen.random_sdl rng))
      in
      let module S = Graphql_pg.Schema in
      (* labels: every kind of type name, plus one the schema lacks *)
      let labels =
        S.object_names sch @ S.interface_names sch @ S.union_names sch @ S.enum_names sch
        @ [ "Int"; "Ghost" ]
      in
      (* property names: every field and argument name, plus an undeclared one *)
      let names =
        List.sort_uniq String.compare
          ("zzz"
          :: List.concat_map
               (fun ty ->
                 List.concat_map
                   (fun (f, (fd : S.field)) -> f :: List.map fst fd.S.fd_args)
                   (S.fields sch ty))
               (S.object_names sch @ S.interface_names sch))
      in
      let values =
        [
          V.Int 1; V.String "s"; V.List [ V.Int 1 ]; V.Bool true; V.List []; V.Enum "RED";
          V.Float 0.5; V.Id "x";
        ]
      in
      let t = ref (Inc.create sch G.empty) in
      let step () =
        let g = Inc.graph !t in
        let nodes = G.nodes g in
        let pick l = List.nth l (Random.State.int rng (List.length l)) in
        let props () =
          List.init (Random.State.int rng 3) (fun _ -> (pick names, pick values))
        in
        match Random.State.int rng 11 with
        | 0 | 1 ->
          let t', _ = Inc.add_node !t ~label:(pick labels) ~props:(props ()) () in
          t := t'
        | 2 when nodes <> [] ->
          let label, v, u =
            match G.edges g with
            | _ :: _ as edges when Random.State.bool rng ->
              (* a parallel twin of an existing edge *)
              let e = pick edges in
              let v, u = G.edge_ends g e in
              (G.edge_label g e, v, u)
            | _ ->
              let v = pick nodes and u = pick nodes in
              (pick (List.map fst (S.fields sch (G.node_label g v)) @ [ "junk" ]), v, u)
          in
          let t', _ = Inc.add_edge !t ~label ~props:(props ()) v u in
          t := t'
        | 3 when nodes <> [] -> t := Inc.set_node_prop !t (pick nodes) (pick names) (pick values)
        | 4 when nodes <> [] -> t := Inc.remove_node_prop !t (pick nodes) (pick names)
        | 5 when G.edges g <> [] -> t := Inc.remove_edge !t (pick (G.edges g))
        | 6 when nodes <> [] -> t := Inc.remove_node !t (pick nodes)
        | 7 when nodes <> [] -> t := Inc.relabel_node !t (pick nodes) (pick labels)
        | 8 when G.edges g <> [] ->
          t := Inc.set_edge_prop !t (pick (G.edges g)) (pick names) (pick values)
        | 9 when G.edges g <> [] ->
          t := Inc.remove_edge_prop !t (pick (G.edges g)) (pick names)
        | 10 ->
          (* later updates start from a state created over a whole graph *)
          t := Inc.create sch g
        | _ -> ()
      in
      let ok = ref true in
      for _ = 1 to 80 do
        step ();
        if not (consistent_with sch !t) then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "lifecycle" `Quick test_lifecycle;
    Alcotest.test_case "key updates" `Quick test_key_updates;
    Alcotest.test_case "relabel" `Quick test_relabel;
    Alcotest.test_case "edge properties" `Quick test_edge_props;
    Alcotest.test_case "property updates" `Quick test_property_updates;
    QCheck_alcotest.to_alcotest prop_random_updates;
  ]
