(* Persisted binary snapshots: round-trip fidelity and corruption safety.

   - qcheck: build -> write -> mmap-reopen must produce byte-identical
     normalized validation reports across all five engines (Naive and
     Incremental on the source graph as oracles, the compiled engines on
     both the in-memory snapshot path and the reopened file).
   - Reopening into a *different* plan's symbol table (the symbol remap
     path) must not change the report either.
   - Corrupted files — truncation, bad magic, random byte damage,
     checksum flips, hostile headers resealed with a valid checksum —
     must come back as IO004/IO005 errors, never exceptions.            *)

module G = Graphql_pg.Property_graph
module Val = Graphql_pg.Validate
module Vi = Graphql_pg.Violation
module Snapshot = Graphql_pg.Snapshot
module Sio = Graphql_pg.Snapshot_io
module Symtab = Graphql_pg.Symtab
module Plan = Graphql_pg.Plan
module Schema_gen = Graphql_pg.Schema_gen
module Instance_gen = Graphql_pg.Instance_gen
module Corruption = Graphql_pg.Corruption

let check_bool = Alcotest.(check bool)

let seeded_rng seed = Random.State.make [| seed; 0x5AFE |]

let decimate rng g =
  let g =
    List.fold_left
      (fun g e -> if Random.State.int rng 8 = 0 then G.remove_edge g e else g)
      g (G.edges g)
  in
  List.fold_left
    (fun g v -> if Random.State.int rng 8 = 0 then G.remove_node g v else g)
    g (G.nodes g)

let with_temp_file f =
  let path = Filename.temp_file "gpgs_snap_test" ".snap" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let write_exn st snap path =
  match Sio.write st snap path with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write failed: %a" Sio.pp_error e

let load_exn st path =
  match Sio.load st path with
  | Ok snap -> snap
  | Error e -> Alcotest.failf "load failed: %a" Sio.pp_error e

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* The snapshot written from a fresh symtab, reopened into the compiled
   plan's table (exercising the symbol remap), must make every engine
   tell the same story, byte for byte. *)
let reports_identical_through_file sch g =
  with_temp_file (fun path ->
      let st = Symtab.create () in
      write_exn st (Snapshot.build st g) path;
      let plan = Val.compile sch in
      let reopened = load_exn (Plan.symtab plan) path in
      let reference =
        List.map Vi.to_string (Val.check ~engine:Val.Naive sch g).Val.violations
      in
      let incremental =
        List.map Vi.to_string
          (Graphql_pg.Incremental.violations (Graphql_pg.Incremental.create sch g))
      in
      let on_snapshot engine =
        List.map Vi.to_string (Val.check_snapshot ~engine plan reopened).Val.violations
      in
      let on_graph engine =
        List.map Vi.to_string (Val.check ~engine sch g).Val.violations
      in
      List.for_all
        (List.equal String.equal reference)
        [
          incremental;
          on_graph Val.Linear;
          on_snapshot Val.Linear;
          on_snapshot Val.Indexed;
          List.map Vi.to_string
            (Val.check_snapshot ~engine:Val.Parallel ~domains:2 plan reopened).Val.violations;
        ])

let prop_roundtrip_byte_identical =
  QCheck2.Test.make
    ~name:"build -> write -> mmap-reopen: all five engines byte-identical" ~count:60
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = seeded_rng seed in
      let sch = Schema_gen.random_schema rng in
      let g = decimate rng (Instance_gen.fuzz rng sch ~max_nodes:12) in
      reports_identical_through_file sch g)

let prop_conformant_roundtrip =
  QCheck2.Test.make ~name:"conformant instances stay clean through the file" ~count:40
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = seeded_rng seed in
      let sch = Schema_gen.random_schema rng in
      match Instance_gen.conformant ~seed ~target_nodes:10 sch with
      | None -> true
      | Some g -> reports_identical_through_file sch g)

(* A report with real violations survives the trip (social graph against
   the movies-style foreign schema would need example files; instead
   corrupt a conformant social instance). *)
let test_social_roundtrip () =
  let sch = Graphql_pg.Social.schema () in
  let g = Graphql_pg.Social.generate ~persons:40 () in
  check_bool "clean social graph round-trips" true (reports_identical_through_file sch g);
  let corrupted = Graphql_pg.Social.corrupt_uniformly ~seed:3 ~rate:0.1 sch g in
  check_bool "corrupted social graph round-trips" true
    (reports_identical_through_file sch corrupted)

(* ---- corruption of the file itself ---- *)

let social_snapshot_file k =
  let g = Graphql_pg.Social.generate ~persons:10 () in
  with_temp_file (fun path ->
      let st = Symtab.create () in
      write_exn st (Snapshot.build st g) path;
      k path)

let load_err path =
  match Sio.load (Symtab.create ()) path with
  | Ok _ -> None
  | Error e -> Some e

let test_truncation () =
  social_snapshot_file (fun path ->
      let whole = read_file path in
      let rng = seeded_rng 11 in
      for _ = 1 to 20 do
        write_file path (Corruption.truncate_text rng whole);
        match load_err path with
        | Some e -> check_bool "truncation -> IO004" true (e.Sio.code = "IO004")
        | None -> Alcotest.fail "truncated snapshot loaded"
      done)

let test_bad_magic () =
  social_snapshot_file (fun path ->
      let whole = read_file path in
      write_file path ("XGPSNAPX" ^ String.sub whole 8 (String.length whole - 8));
      match load_err path with
      | Some e -> check_bool "bad magic -> IO004" true (e.Sio.code = "IO004")
      | None -> Alcotest.fail "bad-magic snapshot loaded")

(* Any single damaged byte must be caught: by the checksum (IO005)
   normally, or by a header check (IO004) when the damage hits the
   header fields the loader reads before checksumming. *)
let test_byte_flips () =
  social_snapshot_file (fun path ->
      let whole = read_file path in
      let rng = seeded_rng 13 in
      for _ = 1 to 40 do
        write_file path (Corruption.flip_byte rng whole);
        match load_err path with
        | Some e ->
          check_bool "byte flip -> IO004/IO005" true
            (e.Sio.code = "IO004" || e.Sio.code = "IO005")
        | None -> Alcotest.fail "damaged snapshot loaded"
      done)

let test_checksum_flip () =
  social_snapshot_file (fun path ->
      let whole = read_file path in
      (* flip a bit of the stored checksum itself *)
      let b = Bytes.of_string whole in
      let last = Bytes.length b - 1 in
      Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0x01));
      write_file path (Bytes.to_string b);
      match load_err path with
      | Some e -> check_bool "checksum flip -> IO005" true (e.Sio.code = "IO005")
      | None -> Alcotest.fail "checksum-flipped snapshot loaded")

(* Patch bytes, then reseal with a fresh valid checksum, so the checks
   *behind* the checksum are reached. *)
let patch_and_reseal whole ~pos ~value =
  let b = Bytes.of_string whole in
  Bytes.set_int64_le b pos (Int64.of_int value);
  let body = Bytes.sub_string b 0 (Bytes.length b - 8) in
  Bytes.set_int64_le b (Bytes.length b - 8) (Sio.checksum body);
  Bytes.to_string b

let test_unsupported_version () =
  social_snapshot_file (fun path ->
      let whole = read_file path in
      write_file path (patch_and_reseal whole ~pos:8 ~value:99);
      match load_err path with
      | Some e ->
        check_bool "future version -> IO004" true (e.Sio.code = "IO004");
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
          go 0
        in
        check_bool "message names the version" true (contains e.Sio.message "99")
      | None -> Alcotest.fail "future-version snapshot loaded")

let test_hostile_counts () =
  social_snapshot_file (fun path ->
      let whole = read_file path in
      (* node count inflated beyond the stored sections *)
      write_file path (patch_and_reseal whole ~pos:16 ~value:1_000_000);
      (match load_err path with
      | Some e -> check_bool "inflated n -> IO004" true (e.Sio.code = "IO004")
      | None -> Alcotest.fail "inflated-count snapshot loaded");
      (* negative edge count *)
      write_file path (patch_and_reseal whole ~pos:24 ~value:(-3));
      (match load_err path with
      | Some e -> check_bool "negative m -> IO004" true (e.Sio.code = "IO004")
      | None -> Alcotest.fail "negative-count snapshot loaded");
      (* Counts and offsets that used to size an allocation before any
         check: load and info must both answer IO004, not raise. *)
      let sym_end = Int64.to_int (String.get_int64_le whole (48 + 8)) in
      List.iter
        (fun (what, pos, value) ->
          write_file path (patch_and_reseal whole ~pos ~value);
          let io004 = function Error e -> e.Sio.code = "IO004" | Ok _ -> false in
          match (io004 (Sio.load (Symtab.create ()) path), io004 (Sio.info path)) with
          | loaded, info ->
            check_bool (what ^ ": load is IO004") true loaded;
            check_bool (what ^ ": info is IO004") true info
          | exception e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e))
        [
          ("symbol count 2^40", 32, 1 lsl 40);
          ("symbol count 2^58", 32, 1 lsl 58);
          ("symtab offset above section 1's", 48, sym_end + 8);
        ])

let test_hostile_csr () =
  social_snapshot_file (fun path ->
      let whole = read_file path in
      (* find the out_start section (offset table entry 7 of 13, at
         byte 48 + 7*8) and break monotonicity behind a valid checksum *)
      let out_start_off = Int64.to_int (String.get_int64_le whole (48 + (7 * 8))) in
      write_file path (patch_and_reseal whole ~pos:out_start_off ~value:7);
      match load_err path with
      | Some e -> check_bool "broken CSR -> IO004" true (e.Sio.code = "IO004")
      | None -> Alcotest.fail "structurally broken snapshot loaded")

(* ---- bad property bytes behind a valid checksum ---- *)

let reseal b =
  let len = Bytes.length b in
  Bytes.set_int64_le b (len - 8) (Sio.checksum (Bytes.sub_string b 0 (len - 8)));
  Bytes.to_string b

let set64 b pos v = Bytes.set_int64_le b pos (Int64.of_int v)
let props_sdl = "type T {\n  a: Int\n  b: String\n  c: [Int]\n}\n"

(* One node :T {a: 5, b: "xy", c: [1, 2]}.  A fresh table interns T, a,
   b, c in that order, so from its offset-index entry p the node's
   vector reads
     p+0 count 3  | p+8 key a  | p+16 'i' | p+17 5
     p+25 key b   | p+33 's'   | p+34 length 2 | p+42 "xy"
     p+44 key c   | p+52 'l'   | p+53 count 2  | p+61 'i' 1 | p+70 'i' 2
   and ends at p+79.  Each case breaks one field. *)
let bad_props_cases ~nsyms =
  [
    ("unknown value tag", fun b p -> Bytes.set b (p + 16) 'z');
    ("key id >= symbol count", fun b p -> set64 b (p + 44) nsyms);
    ("vector count 2^40", fun b p -> set64 b p (1 lsl 40));
    ("string length 2^40", fun b p -> set64 b (p + 34) (1 lsl 40));
    ("vector count one short of its offset entry", fun b p -> set64 b p 2);
    ("list count past the section", fun b p -> set64 b (p + 53) 1000);
    (* keys must strictly increase within a vector; the writer never
       breaks this, and the loader no longer sorts *)
    ( "keys out of order",
      fun b p ->
        set64 b (p + 8) 2;
        set64 b (p + 25) 1 );
  ]

let test_bad_property_bytes () =
  let g, _ =
    G.add_node G.empty ~label:"T"
      ~props:
        [
          ("a", Graphql_pg.Value.Int 5);
          ("b", Graphql_pg.Value.String "xy");
          ("c", Graphql_pg.Value.List [ Graphql_pg.Value.Int 1; Graphql_pg.Value.Int 2 ]);
        ]
      ()
  in
  let plan = Val.compile (Graphql_pg.schema_of_string_exn props_sdl) in
  with_temp_file (fun path ->
      let st = Symtab.create () in
      write_exn st (Snapshot.build st g) path;
      let whole = read_file path in
      let nsyms = Int64.to_int (String.get_int64_le whole 32) in
      let index = Int64.to_int (String.get_int64_le whole (48 + (11 * 8))) in
      let p = Int64.to_int (String.get_int64_le whole index) in
      check_bool "fixture layout as documented" true
        (nsyms = 4 && whole.[p + 16] = 'i' && whole.[p + 33] = 's' && whole.[p + 52] = 'l'
        && Int64.to_int (String.get_int64_le whole (index + 8)) = p + 79);
      List.iter
        (fun (what, patch) ->
          let b = Bytes.of_string whole in
          patch b p;
          write_file path (reseal b);
          let io004 = function
            | Error e -> e.Sio.code = "IO004"
            | Ok _ -> false
          in
          match
            ( io004 (Sio.load (Symtab.create ()) path),
              match Sio.open_mapped (Plan.symtab plan) path with
              | Error e -> e.Sio.code = "IO004"
              | Ok md ->
                Fun.protect
                  ~finally:(fun () -> Sio.close_mapped md)
                  (fun () -> io004 (Val.check_mapped ~shards:2 plan md)) )
          with
          | loaded, mapped ->
            check_bool (what ^ ": load is IO004") true loaded;
            check_bool (what ^ ": open_mapped or check_mapped is IO004") true mapped
          | exception e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e))
        (bad_props_cases ~nsyms))

(* ---- the value-kind fixture: the writer's bytes, pinned ---- *)

let test_dir = Filename.dirname Sys.executable_name
let in_test rel = Filename.concat test_dir rel

(* [gpgs snapshot build] of fixtures/values.pgf (every value kind,
   edge properties, elements without properties) must reproduce the
   committed fixtures/values.snap byte for byte. *)
let test_fixture_bytes () =
  with_temp_file (fun path ->
      let code =
        Sys.command
          (Printf.sprintf "%s snapshot build %s -o %s >/dev/null 2>&1"
             (Filename.quote (in_test "../bin/gpgs.exe"))
             (Filename.quote (in_test "fixtures/values.pgf"))
             (Filename.quote path))
      in
      Alcotest.(check int) "snapshot build exits 0" 0 code;
      check_bool "byte-identical to fixtures/values.snap" true
        (String.equal (read_file path) (read_file (in_test "fixtures/values.snap"))))

(* The committed snapshot validates exactly as the PGF it was built
   from, on every engine and through the mapped path. *)
let test_fixture_validates () =
  let sch = Graphql_pg.schema_of_string_exn (read_file (in_test "fixtures/values.graphql")) in
  let g =
    match Graphql_pg.Pgf.load (in_test "fixtures/values.pgf") with
    | Ok g -> g
    | Error e -> Alcotest.failf "fixtures/values.pgf: %a" Graphql_pg.Pgf.pp_error e
  in
  let rendered report = List.map Vi.to_string report.Val.violations in
  let reference = rendered (Val.check ~engine:Val.Naive sch g) in
  check_bool "the fixture has findings" true (List.length reference = 12);
  let plan = Val.compile sch in
  let snap_path = in_test "fixtures/values.snap" in
  let loaded = load_exn (Plan.symtab plan) snap_path in
  List.iter
    (fun engine ->
      check_bool "loaded snapshot == PGF" true
        (rendered (Val.check_snapshot ~engine ~shards:3 plan loaded) = reference))
    [ Val.Naive; Val.Linear; Val.Indexed; Val.Parallel; Val.Sharded ];
  match Sio.open_mapped (Plan.symtab plan) snap_path with
  | Error e -> Alcotest.failf "open_mapped: %a" Sio.pp_error e
  | Ok md ->
    Fun.protect
      ~finally:(fun () -> Sio.close_mapped md)
      (fun () ->
        match Val.check_mapped ~shards:3 plan md with
        | Ok report -> check_bool "mapped snapshot == PGF" true (rendered report = reference)
        | Error e -> Alcotest.failf "check_mapped: %a" Sio.pp_error e)

let test_info () =
  let g = Graphql_pg.Social.generate ~persons:10 () in
  with_temp_file (fun path ->
      let st = Symtab.create () in
      write_exn st (Snapshot.build st g) path;
      match Sio.info path with
      | Error e -> Alcotest.failf "info failed: %a" Sio.pp_error e
      | Ok i ->
        Alcotest.(check int) "version" Sio.format_version i.Sio.version;
        Alcotest.(check int) "nodes" (G.node_count g) i.Sio.nodes;
        Alcotest.(check int) "edges" (G.edge_count g) i.Sio.edges;
        Alcotest.(check int) "bytes" (String.length (read_file path)) i.Sio.bytes;
        check_bool "symbols interned" true (i.Sio.symbols = Symtab.size st))

let test_missing_file () =
  match Sio.load (Symtab.create ()) "/nonexistent/gpgs.snap" with
  | Ok _ -> Alcotest.fail "loaded a missing file"
  | Error e -> check_bool "missing file -> IO001" true (e.Sio.code = "IO001")

(* The naive oracle reads a loaded snapshot as the graph it was built
   from: the same report, counts included. *)
let test_naive_reads_snapshots () =
  let sch = Graphql_pg.Social.schema () in
  let g = Graphql_pg.Social.generate ~persons:5 () in
  let g = Graphql_pg.Social.corrupt_uniformly ~seed:5 ~rate:0.2 sch g in
  with_temp_file (fun path ->
      let st = Symtab.create () in
      write_exn st (Snapshot.build st g) path;
      let plan = Val.compile sch in
      let snap = load_exn (Plan.symtab plan) path in
      let from_graph = Val.check ~engine:Val.Naive sch g in
      check_bool "the graph has findings" true (from_graph.Val.violations <> []);
      check_bool "naive over the loaded snapshot == naive over the graph" true
        (Val.check_snapshot ~engine:Val.Naive plan snap = from_graph))

let qsuite = List.map QCheck_alcotest.to_alcotest
    [ prop_roundtrip_byte_identical; prop_conformant_roundtrip ]

let suite =
  [
    Alcotest.test_case "social graphs round-trip byte-identically" `Quick
      test_social_roundtrip;
    Alcotest.test_case "truncation is IO004" `Quick test_truncation;
    Alcotest.test_case "bad magic is IO004" `Quick test_bad_magic;
    Alcotest.test_case "random byte damage is IO004/IO005" `Quick test_byte_flips;
    Alcotest.test_case "checksum flip is IO005" `Quick test_checksum_flip;
    Alcotest.test_case "future format version is IO004" `Quick test_unsupported_version;
    Alcotest.test_case "hostile header counts are IO004" `Quick test_hostile_counts;
    Alcotest.test_case "non-monotone CSR offsets are IO004" `Quick test_hostile_csr;
    Alcotest.test_case "bad property bytes are IO004" `Quick test_bad_property_bytes;
    Alcotest.test_case "snapshot build reproduces the fixture" `Quick test_fixture_bytes;
    Alcotest.test_case "the fixture validates as its PGF" `Quick test_fixture_validates;
    Alcotest.test_case "info reads the header back" `Quick test_info;
    Alcotest.test_case "missing file is IO001" `Quick test_missing_file;
    Alcotest.test_case "naive engine reads snapshots" `Quick test_naive_reads_snapshots;
  ]
  @ qsuite
