(* PGF serialization tests, including a qcheck round-trip. *)

module G = Graphql_pg.Property_graph
module V = Graphql_pg.Value
module Pgf = Graphql_pg.Pgf
module Staging = Graphql_pg.Staging
module Snapshot = Graphql_pg.Snapshot
module Symtab = Graphql_pg.Symtab
module Stream = Graphql_pg.Stream

let check_bool = Alcotest.(check bool)

let parse_ok src =
  match Pgf.parse src with
  | Ok g -> g
  | Error e -> Alcotest.failf "PGF error: %a" Pgf.pp_error e

let parse_fails src = match Pgf.parse src with Ok _ -> false | Error _ -> true

let test_basic () =
  let g =
    parse_ok
      {|# a comment
node a :User {id: @"u1", login: "alice", nicknames: ["al"], age: 33, score: 1.5, ok: true}
node b :UserSession
edge e a -> b :session
edge b -> a :owner {weight: 0.5, color: RED}
|}
  in
  Alcotest.(check int) "nodes" 2 (G.node_count g);
  Alcotest.(check int) "edges" 2 (G.edge_count g);
  let a = List.hd (G.nodes g) in
  check_bool "id value" true (G.node_prop g a "id" = Some (V.Id "u1"));
  check_bool "string value" true (G.node_prop g a "login" = Some (V.String "alice"));
  check_bool "list value" true (G.node_prop g a "nicknames" = Some (V.List [ V.String "al" ]));
  check_bool "int value" true (G.node_prop g a "age" = Some (V.Int 33));
  check_bool "float value" true (G.node_prop g a "score" = Some (V.Float 1.5));
  check_bool "bool value" true (G.node_prop g a "ok" = Some (V.Bool true));
  let e2 = List.nth (G.edges g) 1 in
  check_bool "enum edge prop" true (G.edge_prop g e2 "color" = Some (V.Enum "RED"))

let test_edge_handle_optional () =
  let g = parse_ok "node a :A\nnode b :B\nedge x a -> b :r\nedge a -> b :r" in
  Alcotest.(check int) "both edges" 2 (G.edge_count g)

let test_errors () =
  check_bool "unknown handle" true (parse_fails "node a :A\nedge a -> zz :r");
  check_bool "duplicate handle" true (parse_fails "node a :A\nnode a :B");
  check_bool "bad keyword" true (parse_fails "vertex a :A");
  check_bool "missing label" true (parse_fails "node a");
  check_bool "trailing junk" true (parse_fails "node a :A junk");
  check_bool "unterminated string" true (parse_fails "node a :A {x: \"oops}");
  check_bool "unterminated props" true (parse_fails "node a :A {x: 1")

(* The exact error of every PGF error class, as [Pgf.pp_error] renders
   it.  Slurp ([parse]), file streaming ([load]) and the tolerant reader
   ([Stream.read_pgf], which reports the line as a fault and keeps the
   message) must all agree with this table byte for byte. *)
let error_table =
  [
    (* both handles unknown: the target is named (right-to-left lookup) *)
    ("node a :A\nedge x -> y :r", 2, {|unknown node handle "y"|});
    ("node a :A\nedge a -> zz :r", 2, {|unknown node handle "zz"|});
    ("node a :A\nnode a :B", 2, {|duplicate node handle "a"|});
    ("node a :A\nnode a :B junk", 2, {|duplicate node handle "a"|});
    ("vertex a :A", 1, {|expected 'node' or 'edge', found "vertex"|});
    ("node a", 1, "expected ':', found end of line");
    ("node a :", 1, "expected identifier, found end of line");
    ("node 1 :A", 1, "expected identifier, found '1'");
    ("node a :A junk", 1, "trailing characters");
    ("edge a b c :r", 1, "expected '->'");
    ("node a :A {x: \"oops}", 1, "unterminated string literal");
    ("node a :A {x: \"oops\\", 1, "unterminated escape");
    ("node a :A {x: \"\\q\"}", 1, "invalid escape \\q");
    ("node a :A {x: 1", 1, "expected '}', found end of line");
    ("node a :A {x 1}", 1, "expected ':', found '1'");
    ("node a :A {x: [1, 2}", 1, "expected ']', found '}'");
    ("node a :A {x: \"\\u1_2f\"}", 1, "malformed \\u escape");
    ("node a :A {x: \"\\u-012\"}", 1, "malformed \\u escape");
    ("node a :A {x: \"\\u0x1f\"}", 1, "malformed \\u escape");
    ("node a :A {x: \"\\u00gg\"}", 1, "malformed \\u escape");
    ("node a :A {x: \"\\u12\"}", 1, "malformed \\u escape");
    ("node a :A {x: \"\\u12", 1, "truncated \\u escape");
    ("node a :A {x: \"\\u0100\"}", 1, "\\u escape above \\u00FF is not supported by PGF");
    ("node a :A {x: -}", 1, {|malformed integer "-"|});
    ("node a :A {x: 99999999999999999999}", 1, {|malformed integer "99999999999999999999"|});
    ("node a :A {x: 1e}", 1, {|malformed float "1e"|});
    ("node a :A {x: -.}", 1, {|malformed float "-."|});
    ("node a :A {x: -foo}", 1, "unknown numeric literal -foo");
    ("node a :A {x: }", 1, "expected a value, found '}'");
    ("node a :A {x:", 1, "expected a value, found end of line");
    (* String.trim strips a leading or trailing form feed or CR, but the
       token scanner only skips blanks, tabs and CRs inside the line *)
    ("node a\x0c:A", 1, "expected ':', found '\\012'");
    ("node a :A\n\x0cnode a :B\r", 2, {|duplicate node handle "a"|});
  ]

let expected_text line message = Printf.sprintf "PGF parse error at line %d: %s" line message
let error_text e = Format.asprintf "%a" Pgf.pp_error e

let test_exact_errors () =
  List.iter
    (fun (src, line, message) ->
      let expected = expected_text line message in
      (match Pgf.parse src with
      | Ok _ -> Alcotest.failf "parse accepted %S" src
      | Error e -> Alcotest.(check string) ("parse " ^ String.escaped src) expected (error_text e));
      let path = Filename.temp_file "gpgs_pgf" ".pgf" in
      let oc = open_out_bin path in
      output_string oc src;
      close_out oc;
      let loaded = Pgf.load path in
      Sys.remove path;
      (match loaded with
      | Ok _ -> Alcotest.failf "load accepted %S" src
      | Error e -> Alcotest.(check string) ("load " ^ String.escaped src) expected (error_text e));
      let o = Stream.read_pgf (Stream.of_string src) in
      match List.rev o.Stream.faults with
      | [] -> Alcotest.failf "tolerant reader accepted %S" src
      | f :: _ ->
        Alcotest.(check string)
          ("stream " ^ String.escaped src)
          expected
          (error_text { Pgf.line = f.Stream.record; message = f.message }))
    error_table

(* What String.trim strips is not an error: a form feed or CR at either
   end of a record, and blank-only lines. *)
let test_trimmed_ends () =
  let g = parse_ok "\x0cnode a :A\x0c\r\n  \t\nnode b :B {x: 1}\r\n\x0c\n\redge a -> b :r\x0c" in
  Alcotest.(check int) "nodes" 2 (G.node_count g);
  Alcotest.(check int) "edges" 1 (G.edge_count g)

let test_escapes () =
  let g = parse_ok {|node a :A {s: "line\nbreak \"quoted\" back\\slash"}|} in
  let a = List.hd (G.nodes g) in
  check_bool "escapes decoded" true
    (G.node_prop g a "s" = Some (V.String "line\nbreak \"quoted\" back\\slash"))

let test_unicode_escapes () =
  let g = parse_ok {|node a :A {s: "\u0041\u00e9\u00FF"}|} in
  let a = List.hd (G.nodes g) in
  check_bool "hex digits decoded" true
    (G.node_prop g a "s" = Some (V.String "A\xe9\xff"));
  (* int_of_string would accept OCaml numeric-literal syntax inside the
     four escape characters; the decoder must not *)
  check_bool "underscore rejected" true (parse_fails {|node a :A {s: "\u1_2f"}|});
  check_bool "sign rejected" true (parse_fails {|node a :A {s: "\u-012"}|});
  check_bool "0x prefix rejected" true (parse_fails {|node a :A {s: "\u0x1f"}|});
  check_bool "non-hex rejected" true (parse_fails {|node a :A {s: "\u00gg"}|});
  check_bool "above U+00FF rejected" true (parse_fails {|node a :A {s: "\u0100"}|})

let test_print_parse_round_trip () =
  let g = G.empty in
  let g, a =
    G.add_node g ~label:"User"
      ~props:
        [
          ("id", V.Id "u\"1");
          ("names", V.List [ V.String "a"; V.Enum "X"; V.Int 3 ]);
          ("pi", V.Float 3.25);
          ("neg", V.Int (-7));
          ("flag", V.Bool false);
        ]
      ()
  in
  let g, b = G.add_node g ~label:"Thing" () in
  let g, _ = G.add_edge g ~label:"r" ~props:[ ("w", V.Float 0.5) ] a b in
  let reparsed = parse_ok (Pgf.print g) in
  check_bool "round-trip equal" true (G.equal g reparsed)

(* qcheck: print/parse round-trips on random graphs *)
let graph_gen =
  let open QCheck2.Gen in
  let atom =
    oneof
      [
        map (fun i -> V.Int i) small_signed_int;
        (* the full range: integers too long for the scanner's fast path *)
        map (fun i -> V.Int i) int;
        map (fun f -> V.Float f) (float_bound_inclusive 1000.0);
        oneofl [ V.Float Float.nan; V.Float Float.infinity; V.Float Float.neg_infinity ];
        map (fun s -> V.String s) (small_string ~gen:printable);
        (* every byte: quotes, backslashes and control characters print
           as escapes, the latter as \u00XX *)
        map (fun s -> V.String s) (small_string ~gen:char);
        map (fun b -> V.Bool b) bool;
        map (fun s -> V.Id s) (small_string ~gen:printable);
        map (fun i -> V.Enum (Printf.sprintf "E%d" (abs i))) small_signed_int;
      ]
  in
  let value = oneof [ atom; map (fun l -> V.List l) (list_size (int_bound 3) atom) ] in
  let label = map (fun i -> Printf.sprintf "L%d" (abs i mod 5)) small_signed_int in
  let props = list_size (int_bound 3) (pair (map (fun i -> Printf.sprintf "p%d" (abs i mod 6)) small_signed_int) value) in
  let* n = int_range 1 8 in
  let* node_specs = list_repeat n (pair label props) in
  let* edge_specs =
    list_size (int_bound 12) (tup4 (int_bound (n - 1)) (int_bound (n - 1)) label props)
  in
  return
    (let g = ref G.empty in
     let nodes =
       List.map
         (fun (label, props) ->
           let g', v = G.add_node !g ~label ~props () in
           g := g';
           v)
         node_specs
     in
     let nodes = Array.of_list nodes in
     List.iter
       (fun (i, j, label, props) ->
         let g', _ = G.add_edge !g ~label ~props nodes.(i) nodes.(j) in
         g := g')
       edge_specs;
     !g)

let prop_round_trip =
  QCheck2.Test.make ~name:"PGF print/parse round-trip" ~count:200 graph_gen (fun g ->
      match Pgf.parse (Pgf.print g) with Ok g' -> G.equal g g' | Error _ -> false)

(* [n] distinct node handles: identifiers of 1 to 40 bytes over letters,
   digits and '_', many around one 8-byte word long, many sharing a
   long prefix, so the handle table meets more than one shape of name. *)
let handles rng n =
  let ident_start = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_" in
  let ident_char = ident_start ^ "0123456789" in
  let pick set = set.[Random.State.int rng (String.length set)] in
  let word len = String.init len (fun i -> pick (if i = 0 then ident_start else ident_char)) in
  let tail len = String.init len (fun _ -> pick ident_char) in
  let shape () =
    match Random.State.int rng 4 with
    | 0 -> word (1 + Random.State.int rng 40)
    | 1 -> word (7 + Random.State.int rng 3)
    | 2 -> "shared_prefix_" ^ tail (Random.State.int rng 20)
    | _ -> "n" ^ tail (Random.State.int rng 8)
  in
  let used = Hashtbl.create (2 * n) in
  Array.init n (fun _ ->
      let rec fresh () =
        let h = shape () in
        if Hashtbl.mem used h then fresh ()
        else begin
          Hashtbl.add used h ();
          h
        end
      in
      fresh ())

(* [g] as a PGF document in the syntax's less common forms: comment and
   blank lines between records, CRLF line ends, edges with and without
   a handle, empty property maps, properties in any order, and shadowed
   bindings (an earlier binding of a key that the last one overrides).
   Node handles are spelled through a random injective map.  It
   describes exactly [g], whose ids must be dense. *)
let document rng g =
  let handle = handles rng (G.node_count g) in
  let buf = Buffer.create 256 in
  let coin () = Random.State.bool rng in
  let eol () = Buffer.add_string buf (if coin () then "\r\n" else "\n") in
  let aside () =
    match Random.State.int rng 6 with
    | 0 ->
      Buffer.add_string buf "# aside";
      eol ()
    | 1 ->
      Buffer.add_string buf " \t";
      eol ()
    | _ -> ()
  in
  let props ps =
    (* bindings come sorted by name; the document need not keep that *)
    let ps =
      List.map snd (List.sort compare (List.map (fun p -> (Random.State.bits rng, p)) ps))
    in
    let ps = match ps with (k, _) :: _ when coin () -> (k, V.Enum "Shadowed") :: ps | _ -> ps in
    if ps <> [] || coin () then begin
      Buffer.add_string buf " {";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          Printf.bprintf buf "%s: %s" k (Pgf.value_to_string v))
        ps;
      Buffer.add_char buf '}'
    end
  in
  aside ();
  List.iter
    (fun v ->
      Printf.bprintf buf "node %s :%s" handle.(G.node_id v) (G.node_label g v);
      props (G.node_props g v);
      eol ();
      aside ())
    (G.nodes g);
  List.iter
    (fun e ->
      let src, tgt = G.edge_ends g e in
      if coin () then Printf.bprintf buf "edge e%d " (G.edge_id e) else Buffer.add_string buf "edge ";
      Printf.bprintf buf "%s -> %s :%s" handle.(G.node_id src) handle.(G.node_id tgt)
        (G.edge_label g e);
      props (G.edge_props g e);
      eol ();
      aside ())
    (G.edges g);
  Buffer.contents buf

let document_gen = QCheck2.Gen.(pair graph_gen (int_bound 1_000_000))
let rng seed = Random.State.make [| seed; 0x9F |]

let prop_thaw =
  QCheck2.Test.make ~name:"PGF ingest thaws to the graph it describes" ~count:200 document_gen
    (fun (g, seed) ->
      match Pgf.parse_columns (document (rng seed) g) with
      | Ok columns -> G.equal g (Staging.thaw columns)
      | Error _ -> false)

let ints (a : Snapshot.ints) = List.init (Bigarray.Array1.dim a) (fun i -> a.{i})

(* column by column, labels compared as names; the property pools have
   their own differential below *)
let same_snapshot st1 (a : Snapshot.t) st2 (b : Snapshot.t) =
  let names st col = List.map (Symtab.name st) (ints col) in
  a.n = b.n && a.m = b.m
  && List.for_all2
       (fun x y -> ints x = ints y)
       [ a.node_id; a.edge_id; a.edge_src; a.edge_tgt; a.out_start; a.out_adj; a.in_start; a.in_adj ]
       [ b.node_id; b.edge_id; b.edge_src; b.edge_tgt; b.out_start; b.out_adj; b.in_start; b.in_adj ]
  && names st1 a.node_label = names st2 b.node_label
  && names st1 a.edge_label = names st2 b.edge_label

let prop_columns =
  QCheck2.Test.make ~name:"frozen PGF columns == Snapshot.build of the graph" ~count:200
    document_gen (fun (g, seed) ->
      match Pgf.parse_columns (document (rng seed) g) with
      | Error _ -> false
      | Ok columns ->
        let st1 = Symtab.create () and st2 = Symtab.create () in
        same_snapshot st1 (Snapshot.freeze st1 columns) st2 (Snapshot.build st2 g))

(* The property pools of a snapshot read back exactly [g]'s properties,
   by name, through every accessor: decoded bindings, [find] of each
   key, and [length].  Four snapshots of one document must agree with
   [g]: the frozen columns, the file written from them and loaded into a
   table that already holds other names, that loaded snapshot written
   and loaded again (its mapped pools re-sorted under the new ids), and
   a copy rebased onto yet another table. *)
let pools_match g st (snap : Snapshot.t) =
  let module Props = Graphql_pg.Props in
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) in
  let matches pool i expected =
    let got = sorted (List.map (fun (k, v) -> (Symtab.name st k, v)) (Props.bindings pool i)) in
    Props.length pool i = List.length expected
    && List.equal (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && V.equal v1 v2) got expected
    && List.for_all
         (fun (k, v) ->
           match Symtab.find st k with
           | Some id ->
             let pos = Props.find pool i id in
             pos >= 0 && V.equal (Props.value pool pos) v
           | None -> false)
         expected
  in
  List.for_all Fun.id
    (List.mapi (fun i v -> matches snap.node_props i (G.node_props g v)) (G.nodes g))
  && List.for_all Fun.id
       (List.mapi (fun j e -> matches snap.edge_props j (G.edge_props g e)) (G.edges g))

let seeded_symtab () =
  let st = Symtab.create () in
  List.iter (fun name -> ignore (Symtab.intern st name)) [ "p5"; "zz"; "L3"; "p0"; "aa" ];
  st

let prop_pools =
  QCheck2.Test.make ~name:"frozen, loaded and rebased pools read back the graph" ~count:200
    graph_gen (fun g ->
      match Pgf.parse_columns (Pgf.print g) with
      | Error _ -> false
      | Ok columns ->
        let st = Symtab.create () in
        let snap = Snapshot.freeze st columns in
        let path = Filename.temp_file "gpgs_pools" ".snap" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let through_file st snap =
              let into = seeded_symtab () in
              match Graphql_pg.Snapshot_io.write st snap path with
              | Error _ -> None
              | Ok () ->
                Option.map (fun l -> (into, l))
                  (Result.to_option (Graphql_pg.Snapshot_io.load into path))
            in
            let rebased_st = seeded_symtab () in
            let rebased = Snapshot.rebase ~src:st rebased_st snap in
            pools_match g st snap
            && pools_match g rebased_st rebased
            &&
            match through_file st snap with
            | None -> false
            | Some (loaded_st, loaded) -> (
              pools_match g loaded_st loaded
              &&
              match through_file loaded_st loaded with
              | Some (st2, again) -> pools_match g st2 again
              | None -> false)))

(* The in-place key form DS7 groups by.  On a heap pool and on the
   mapped pool of a snapshot file, [equal_canonical] of two encoded
   values is [Value.equal] of their decodings, and equal values hash
   equally.  The values come from a small set of edge cases (nans,
   signed zeros, infinities, an Int beside a Float, a String, an Id and
   an Enum with equal bytes, empty and nested lists), so that many
   pairs are equal. *)
let key_value_gen =
  let open QCheck2.Gen in
  let atom =
    oneofl
      [
        V.Float Float.nan;
        V.Float (Float.neg Float.nan);
        V.Float (Int64.float_of_bits 0x7ff8000000000123L);
        V.Float 0.0;
        V.Float (-0.0);
        V.Float Float.infinity;
        V.Float Float.neg_infinity;
        V.Float 1.0;
        V.Int 1;
        V.Int 0;
        V.Int (-1);
        V.String "a";
        V.Id "a";
        V.Enum "a";
        V.String "";
        V.Id "";
        V.String "ab";
        V.Bool true;
        V.Bool false;
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then atom
      else
        frequency
          [ (3, atom); (1, map (fun l -> V.List l) (list_size (int_bound 3) (self (depth - 1)))) ])
    3

let prop_key_form =
  let module Props = Graphql_pg.Props in
  QCheck2.Test.make ~name:"in-place key form agrees with Value.equal" ~count:100
    QCheck2.Gen.(list_size (int_range 1 40) (pair key_value_gen key_value_gen))
    (fun pairs ->
      let add g v = fst (G.add_node g ~label:"A" ~props:[ ("k", v) ] ()) in
      let g = List.fold_left (fun g (a, b) -> add (add g a) b) G.empty pairs in
      (* element 2x holds the first value of pair x, 2x + 1 the second *)
      let agrees st (snap : Snapshot.t) =
        let pool = snap.node_props and k = Option.get (Symtab.find st "k") in
        List.for_all Fun.id
          (List.mapi
             (fun x _ ->
               let pa = Props.find pool (2 * x) k and pb = Props.find pool ((2 * x) + 1) k in
               let equal = V.equal (Props.value pool pa) (Props.value pool pb) in
               let ha = Props.hash_canonical pool pa and hb = Props.hash_canonical pool pb in
               Props.equal_canonical pool pa pb = equal
               && ha >= 0
               && ((not equal) || ha = hb))
             pairs)
      in
      let st = Symtab.create () in
      let snap = Snapshot.build st g in
      let path = Filename.temp_file "gpgs_keys" ".snap" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          agrees st snap
          &&
          match Graphql_pg.Snapshot_io.write st snap path with
          | Error _ -> false
          | Ok () -> (
            let into = Symtab.create () in
            match Graphql_pg.Snapshot_io.load into path with
            | Ok mapped -> agrees into mapped
            | Error _ -> false)))

(* Record-level damage: the strict slurp fails exactly at the first line
   the tolerant streaming reader skips, with the same message, and the
   tolerant graph is the slurp of the document without the skipped
   lines (a skipped record leaves no trace). *)
let prop_corrupted_lines =
  QCheck2.Test.make ~name:"slurp and tolerant stream fault the same line" ~count:200
    QCheck2.Gen.(triple graph_gen (int_bound 1_000_000) (int_bound 2))
    (fun (g, seed, kind) ->
      let rng = rng seed in
      let mutate =
        match kind with
        | 0 -> Graphql_pg.Corruption.garble_record
        | 1 -> Graphql_pg.Corruption.drop_record
        | _ -> Graphql_pg.Corruption.duplicate_record
      in
      match mutate rng (document rng g) with
      | None -> true
      | Some (_, bad) -> (
        let o = Stream.read_pgf (Graphql_pg.Chunked.of_string ~chunk_size:(1 + (seed mod 17)) bad) in
        let skipped = List.map (fun (f : Stream.fault) -> f.record) o.Stream.faults in
        let kept =
          String.concat "\n"
            (List.mapi
               (fun i l -> if List.mem (i + 1) skipped then "" else l)
               (String.split_on_char '\n' bad))
        in
        let same_graph () =
          match Pgf.parse_columns kept with
          | Ok columns -> G.equal (Staging.thaw columns) (Staging.thaw o.Stream.graph)
          | Error _ -> false
        in
        match (Pgf.parse_columns bad, o.Stream.faults) with
        | Ok _, [] -> same_graph ()
        | Error e, f :: _ ->
          e.Pgf.line = f.Stream.record && e.Pgf.message = f.Stream.message && same_graph ()
        | Ok _, _ :: _ | Error _, [] -> false))

(* 70 000 handles, so the handle table has grown many times: every edge
   resolves to the node its handle names, and past the last growth a
   duplicate and an unknown handle each give their exact message at
   their line, slurped and read in chunks. *)
let test_grown_handle_table () =
  let n = 70_000 in
  let handle = handles (rng n) n in
  let buf = Buffer.create (64 * n) in
  Array.iter (fun h -> Printf.bprintf buf "node %s :N\n" h) handle;
  let src k = k * 7919 mod n in
  for k = 0 to n - 1 do
    Printf.bprintf buf "edge %s -> %s :r\n" handle.(src k) handle.(k)
  done;
  let clean = Buffer.contents buf in
  (match Pgf.parse_columns clean with
  | Error e -> Alcotest.failf "clean document: %a" Pgf.pp_error e
  | Ok columns ->
    let snap = Snapshot.freeze (Symtab.create ()) columns in
    Alcotest.(check int) "nodes" n snap.n;
    Alcotest.(check int) "edges" n snap.m;
    for k = 0 to n - 1 do
      if snap.edge_src.{k} <> src k || snap.edge_tgt.{k} <> k then
        Alcotest.failf "edge %d joins %d -> %d, not %d -> %d" k snap.edge_src.{k}
          snap.edge_tgt.{k} (src k) k
    done);
  let unknown = "unknown_handle_" ^ string_of_int n in
  if Array.mem unknown handle then Alcotest.fail "the unknown handle is in use";
  let last = (2 * n) + 1 in
  List.iter
    (fun (tail, message) ->
      let text = clean ^ tail in
      let expected = expected_text last message in
      List.iter
        (fun (how, result) ->
          match result with
          | Ok _ -> Alcotest.failf "%s accepted %S" how tail
          | Error e -> Alcotest.(check string) (how ^ " " ^ String.escaped tail) expected (error_text e))
        [
          ("parse", Pgf.parse_columns text);
          ("read", Pgf.read_columns (Graphql_pg.Chunked.of_string ~chunk_size:4093 text));
        ])
    [
      ( Printf.sprintf "node %s :M\n" handle.(n / 3),
        Printf.sprintf {|duplicate node handle "%s"|} handle.(n / 3) );
      ( Printf.sprintf "edge %s -> %s :r\n" handle.(5) unknown,
        Printf.sprintf {|unknown node handle "%s"|} unknown );
    ]

(* Two domains each ingest their own document 20 times while this one
   ingests a third: every result thaws to the graph a sequential ingest
   of its document gives, so no scanner or handle-table state is shared
   between ingests. *)
let test_two_ingests_at_once () =
  let docs =
    Array.init 3 (fun k -> document (rng k) (Graphql_pg.Social.generate ~seed:k ~persons:150 ()))
  in
  let columns text =
    match Pgf.parse_columns text with
    | Ok c -> c
    | Error e -> Alcotest.failf "ingest: %a" Pgf.pp_error e
  in
  let expected = Array.map (fun text -> Staging.thaw (columns text)) docs in
  let run k () = List.init 20 (fun _ -> Pgf.parse_columns docs.(k)) in
  let d1 = Domain.spawn (run 1) and d2 = Domain.spawn (run 2) in
  let r0 = run 0 () in
  let results = [| r0; Domain.join d1; Domain.join d2 |] in
  Array.iteri
    (fun k runs ->
      List.iteri
        (fun i r ->
          match r with
          | Error e -> Alcotest.failf "document %d, run %d: %a" k i Pgf.pp_error e
          | Ok c ->
            if not (G.equal expected.(k) (Staging.thaw c)) then
              Alcotest.failf "document %d, run %d thaws to another graph" k i)
        runs)
    results

let suite =
  [
    Alcotest.test_case "basics" `Quick test_basic;
    Alcotest.test_case "edge handle optional" `Quick test_edge_handle_optional;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "exact error messages" `Quick test_exact_errors;
    Alcotest.test_case "trimmed record ends" `Quick test_trimmed_ends;
    Alcotest.test_case "escapes" `Quick test_escapes;
    Alcotest.test_case "unicode escapes" `Quick test_unicode_escapes;
    Alcotest.test_case "print/parse round-trip" `Quick test_print_parse_round_trip;
    QCheck_alcotest.to_alcotest prop_round_trip;
    QCheck_alcotest.to_alcotest prop_thaw;
    QCheck_alcotest.to_alcotest prop_columns;
    QCheck_alcotest.to_alcotest prop_pools;
    QCheck_alcotest.to_alcotest prop_key_form;
    QCheck_alcotest.to_alcotest prop_corrupted_lines;
    Alcotest.test_case "handle table grown past 70 000" `Quick test_grown_handle_table;
    Alcotest.test_case "two ingests at once" `Quick test_two_ingests_at_once;
  ]
