(* JSON printer/parser for the GraphQL response format. *)

module J = Graphql_pg.Json

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let test_printing () =
  check_string "compact" {|{"a":1,"b":[true,null],"c":"x"}|}
    (J.to_string (J.Assoc [ ("a", J.Int 1); ("b", J.List [ J.Bool true; J.Null ]); ("c", J.String "x") ]));
  check_string "empty containers" {|{"a":[],"b":{}}|}
    (J.to_string (J.Assoc [ ("a", J.List []); ("b", J.Assoc []) ]));
  check_string "escapes" {|"a\"b\\c\nd"|} (J.to_string (J.String "a\"b\\c\nd"));
  check_string "float" "1.5" (J.to_string (J.Float 1.5));
  check_string "integral float keeps point" "2.0" (J.to_string (J.Float 2.0))

let test_parsing () =
  let ok src = match J.of_string src with Ok v -> v | Error e -> Alcotest.failf "%s" e in
  check_bool "object" true
    (J.equal (ok {|{"a": 1, "b": [true, false], "s": "x"}|})
       (J.Assoc [ ("a", J.Int 1); ("b", J.List [ J.Bool true; J.Bool false ]); ("s", J.String "x") ]));
  check_bool "nested" true
    (J.equal (ok {|[[1], {"x": null}]|})
       (J.List [ J.List [ J.Int 1 ]; J.Assoc [ ("x", J.Null) ] ]));
  check_bool "numbers" true (J.equal (ok "-2.5e2") (J.Float (-250.0)));
  check_bool "unicode escape" true (J.equal (ok {|"é"|}) (J.String "\xc3\xa9"));
  check_bool "errors: trailing" true (Result.is_error (J.of_string "1 2"));
  check_bool "errors: bad literal" true (Result.is_error (J.of_string "nil"));
  check_bool "errors: unterminated" true (Result.is_error (J.of_string "[1, 2"))

let test_accessors () =
  let v = J.Assoc [ ("xs", J.List [ J.Int 10; J.Int 20 ]) ] in
  check_bool "member + index" true (J.index 1 (J.member "xs" v) = J.Int 20);
  check_bool "missing member" true (J.member "nope" v = J.Null);
  check_bool "index out of range" true (J.index 5 (J.member "xs" v) = J.Null)

let test_of_property_value () =
  let module V = Graphql_pg.Value in
  check_bool "id becomes string" true (J.of_property_value (V.Id "u1") = J.String "u1");
  check_bool "enum becomes string" true (J.of_property_value (V.Enum "RED") = J.String "RED");
  check_bool "list" true
    (J.of_property_value (V.List [ V.Int 1; V.Bool false ]) = J.List [ J.Int 1; J.Bool false ])

(* The printer's bytes, pinned literally: every escape, the float
   spellings, containers in both modes, and one full diagnostic. *)
let test_escape_pins () =
  check_string "control bytes"
    {|"\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\u0008\t\n\u000B\u000C\r\u000E\u000F\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017\u0018\u0019\u001A\u001B\u001C\u001D\u001E\u001F"|}
    (J.to_string (J.String (String.init 32 Char.chr)));
  check_string "quote, backslash, DEL, UTF-8"
    "\"q\\\"b\\\\d\x7fe\xc3\xa9j\xe6\x97\xa5s\xf0\x9f\x98\x80\""
    (J.to_string (J.String "q\"b\\d\x7fe\xc3\xa9j\xe6\x97\xa5s\xf0\x9f\x98\x80"));
  check_string "escaped keys"
    {|{"k\"\n\\":"\u0001"}|}
    (J.to_string (J.Assoc [ ("k\"\n\\", J.String "\001") ]));
  check_string "escaped keys, indented" "{\n  \"k\\t\": \"/\"\n}"
    (J.to_string ~indent:true (J.Assoc [ ("k\t", J.String "/") ]))

let test_float_pins () =
  let f x = J.to_string (J.Float x) in
  check_string "nan" "null" (f Float.nan);
  check_string "negative zero" "-0.0" (f (-0.0));
  check_string "zero" "0.0" (f 0.0);
  check_string "0.1" "0.1" (f 0.1);
  check_string "a third" "0.33333333333333331" (f (1.0 /. 3.0));
  check_string "below 1e15" "999999999999999.0" (f 999999999999999.0);
  check_string "below -1e15" "-999999999999999.0" (f (-999999999999999.0));
  check_string "1e15" "1e+15" (f 1e15);
  check_string "-1e15" "-1e+15" (f (-1e15));
  check_string "1e16 + 2" "10000000000000002" (f 10000000000000002.0);
  check_string "large" "1.2345678901234568e+17" (f 123456789012345678.0);
  check_string "small" "1.5e-07" (f 1.5e-7);
  check_string "in a list" "[null,-0.0,0.1]" (J.to_string (J.List [ J.Float Float.nan; J.Float (-0.0); J.Float 0.1 ]))

let nested =
  J.Assoc
    [
      ("a", J.List []);
      ("b", J.Assoc []);
      ("c", J.List [ J.Int 1; J.Assoc [ ("d", J.Null) ]; J.List [ J.List [] ] ]);
      ("e", J.Assoc [ ("f", J.List [ J.Bool true; J.Bool false; J.Int (-7) ]) ]);
    ]

let test_container_pins () =
  check_string "empty list" "[]" (J.to_string ~indent:true (J.List []));
  check_string "empty object" "{}" (J.to_string ~indent:true (J.Assoc []));
  check_string "nested, compact" {|{"a":[],"b":{},"c":[1,{"d":null},[[]]],"e":{"f":[true,false,-7]}}|}
    (J.to_string nested);
  check_string "nested, indented"
    {|{
  "a": [],
  "b": {},
  "c": [
    1,
    {
      "d": null
    },
    [
      []
    ]
  ],
  "e": {
    "f": [
      true,
      false,
      -7
    ]
  }
}|}
    (J.to_string ~indent:true nested)

let pinned_diag =
  let module D = Graphql_pg.Diag in
  let pos line column offset = { D.line; column; offset } in
  let sp = D.span (pos 2 3 10) (pos 2 7 14) in
  D.error ~code:"WS1" ~span:sp ~subject:"property \"age\" of node n3"
    ~related:[ (Some (D.span (pos 1 1 0) (pos 1 5 4)), "declared here"); (None, "no span") ]
    "value \"x\" is not\tan Int"

let test_diag_pins () =
  let module D = Graphql_pg.Diag in
  check_string "diagnostic, compact"
    {|{"code":"WS1","severity":"error","span":{"start":{"line":2,"column":3,"offset":10},"end":{"line":2,"column":7,"offset":14}},"subject":"property \"age\" of node n3","message":"value \"x\" is not\tan Int","related":[{"span":{"start":{"line":1,"column":1,"offset":0},"end":{"line":1,"column":5,"offset":4}},"message":"declared here"},{"span":null,"message":"no span"}]}|}
    (J.to_string (D.to_json pinned_diag));
  check_string "envelope, indented"
    {|{
  "tool": "gpgs",
  "command": "validate",
  "status": "findings",
  "exit": 1,
  "counts": {
    "errors": 1,
    "warnings": 0,
    "infos": 0
  },
  "summary": {
    "nodes": 3
  },
  "diagnostics": [
    {
      "code": "WS1",
      "severity": "error",
      "span": {
        "start": {
          "line": 2,
          "column": 3,
          "offset": 10
        },
        "end": {
          "line": 2,
          "column": 7,
          "offset": 14
        }
      },
      "subject": "property \"age\" of node n3",
      "message": "value \"x\" is not\tan Int",
      "related": [
        {
          "span": {
            "start": {
              "line": 1,
              "column": 1,
              "offset": 0
            },
            "end": {
              "line": 1,
              "column": 5,
              "offset": 4
            }
          },
          "message": "declared here"
        },
        {
          "span": null,
          "message": "no span"
        }
      ]
    }
  ]
}|}
    (J.to_string ~indent:true
       (D.envelope ~tool:"gpgs" ~command:"validate" ~summary:[ ("nodes", J.Int 3) ] [ pinned_diag ]))

(* property: print/parse round-trip *)
let json_gen =
  let open QCheck2.Gen in
  sized
  @@ fix (fun self n ->
         let atom =
           oneof
             [
               return J.Null;
               map (fun b -> J.Bool b) bool;
               map (fun i -> J.Int i) small_signed_int;
               map (fun f -> J.Float f) (float_bound_inclusive 1000.0);
               map (fun s -> J.String s) (small_string ~gen:printable);
             ]
         in
         if n <= 1 then atom
         else
           oneof
             [
               atom;
               map (fun l -> J.List l) (list_size (int_bound 4) (self (n / 3)));
               map
                 (fun l -> J.Assoc (List.mapi (fun i v -> (Printf.sprintf "k%d" i, v)) l))
                 (list_size (int_bound 4) (self (n / 3)));
             ])

let prop_round_trip =
  QCheck2.Test.make ~name:"JSON print/parse round-trip" ~count:300 json_gen (fun v ->
      match J.of_string (J.to_string v) with Ok v' -> J.equal v v' | Error _ -> false)

let prop_round_trip_indent =
  QCheck2.Test.make ~name:"JSON pretty print/parse round-trip" ~count:200 json_gen (fun v ->
      match J.of_string (J.to_string ~indent:true v) with
      | Ok v' -> J.equal v v'
      | Error _ -> false)

(* Any bytes in strings and keys, and the floats the printer spells
   specially. *)
let any_json_gen =
  let open QCheck2.Gen in
  let str = string_size ~gen:char (int_bound 12) in
  let special = oneofl [ Float.nan; Float.infinity; Float.neg_infinity; -0.0; 1e15; 0.1 ] in
  sized
  @@ fix (fun self n ->
         let atom =
           oneof
             [
               return J.Null;
               map (fun b -> J.Bool b) bool;
               map (fun i -> J.Int i) int;
               map (fun f -> J.Float f) (oneof [ float; special ]);
               map (fun s -> J.String s) str;
             ]
         in
         if n <= 1 then atom
         else
           oneof
             [
               atom;
               map (fun l -> J.List l) (list_size (int_bound 4) (self (n / 3)));
               map (fun l -> J.Assoc l) (list_size (int_bound 4) (pair str (self (n / 3))));
             ])

(* Stream through a writer whose buffer holds [size] bytes, checking that
   no flush hands over more. *)
let stream_through ~size ~indent emit =
  let b = Buffer.create 64 in
  let w =
    J.writer ~indent (Bytes.create size) (fun bytes off len ->
      if len > size || len < 1 then Alcotest.failf "flush of %d bytes" len;
      Buffer.add_subbytes b bytes off len)
  in
  emit w;
  J.flush w;
  Buffer.contents b

let prop_small_buffers =
  QCheck2.Test.make ~name:"writer through 1-17 byte buffers = to_string" ~count:400
    QCheck2.Gen.(triple (int_range 1 17) bool any_json_gen)
    (fun (size, indent, v) ->
      String.equal (stream_through ~size ~indent (fun w -> J.write w v)) (J.to_string ~indent v))

let diag_gen =
  let module D = Graphql_pg.Diag in
  let open QCheck2.Gen in
  let str = string_size ~gen:char (int_bound 10) in
  let pos = map3 (fun line column offset -> { D.line; column; offset }) nat nat nat in
  let span = map2 D.span pos pos in
  let codes = List.map (fun (e : Graphql_pg.Diag_registry.entry) -> e.code) Graphql_pg.Diag_registry.all in
  map
    (fun (((code, severity), (span, subject)), (message, related)) ->
      D.make ~code ~severity ?span ?subject ~related message)
    (pair
       (pair (pair (oneofl codes) (oneofl D.[ Error; Warning; Info ])) (pair (opt span) (opt str)))
       (pair str (list_size (int_bound 3) (pair (opt span) str))))

let prop_streamed_envelope =
  let module D = Graphql_pg.Diag in
  QCheck2.Test.make ~name:"streamed envelope = envelope tree" ~count:200
    QCheck2.Gen.(
      quad (int_range 1 40) bool
        (list_size (int_bound 12) diag_gen)
        (list_size (int_bound 3) (pair (string_size ~gen:printable (int_bound 6)) any_json_gen)))
    (fun (size, indent, ds, summary) ->
      let streamed =
        stream_through ~size ~indent (fun w ->
          D.write_envelope w ~tool:"gpgs" ~command:"validate" ~summary ds)
      in
      String.equal streamed
        (J.to_string ~indent (D.envelope ~tool:"gpgs" ~command:"validate" ~summary ds)))

let test_non_finite_floats () =
  check_string "infinity" "null" (J.to_string (J.Float Float.infinity));
  check_string "negative infinity" "null" (J.to_string (J.Float Float.neg_infinity));
  check_string "in an object" "{\n  \"a\": null,\n  \"b\": null\n}"
    (J.to_string ~indent:true
       (J.Assoc [ ("a", J.Float Float.infinity); ("b", J.Float Float.neg_infinity) ]))

(* `gpgs query` of a property that overflows to infinity prints JSON
   that reads back. *)
let test_query_infinity_reads_back () =
  let dir = Filename.dirname Sys.executable_name in
  let file suffix text =
    let path = Filename.temp_file "gpgs_inf" suffix in
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    path
  in
  let sch =
    file ".graphql" "type Item @key(fields: [\"name\"]) {\n  name: String! @required\n  score: Float\n}\n"
  in
  let pgf =
    file ".pgf"
      "node n0 :Item {name: \"a\", score: 1e999}\nnode n1 :Item {name: \"b\", score: -1e999}\n"
  in
  let out = Filename.temp_file "gpgs_inf" ".json" in
  let code =
    Sys.command
      (Printf.sprintf "%s query %s %s '{ allItem { name score } }' > %s"
         (Filename.quote (Filename.concat dir "../bin/gpgs.exe"))
         (Filename.quote sch) (Filename.quote pgf) (Filename.quote out))
  in
  let text = In_channel.with_open_bin out In_channel.input_all in
  List.iter Sys.remove [ sch; pgf; out ];
  Alcotest.(check int) "exit" 0 code;
  match J.of_string text with
  | Error e -> Alcotest.failf "query output is not JSON (%s): %s" e text
  | Ok v ->
    check_bool "scores read back as null" true
      (J.equal v
         (J.Assoc
            [
              ( "allItem",
                J.List
                  [
                    J.Assoc [ ("name", J.String "a"); ("score", J.Null) ];
                    J.Assoc [ ("name", J.String "b"); ("score", J.Null) ];
                  ] );
            ]))

let suite =
  [
    Alcotest.test_case "printing" `Quick test_printing;
    Alcotest.test_case "parsing" `Quick test_parsing;
    Alcotest.test_case "accessors" `Quick test_accessors;
    Alcotest.test_case "of_property_value" `Quick test_of_property_value;
    QCheck_alcotest.to_alcotest prop_round_trip;
    QCheck_alcotest.to_alcotest prop_round_trip_indent;
    Alcotest.test_case "escape pins" `Quick test_escape_pins;
    Alcotest.test_case "float pins" `Quick test_float_pins;
    Alcotest.test_case "container pins" `Quick test_container_pins;
    Alcotest.test_case "diagnostic pins" `Quick test_diag_pins;
    QCheck_alcotest.to_alcotest prop_small_buffers;
    QCheck_alcotest.to_alcotest prop_streamed_envelope;
    Alcotest.test_case "non-finite floats print null" `Quick test_non_finite_floats;
    Alcotest.test_case "query output with infinity reads back" `Quick
      test_query_infinity_reads_back;
  ]
