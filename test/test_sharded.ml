(* The sharded engine family: partition correctness and the engine-
   agreement differential.

   - Partition invariants: the shards tile [0, n), every edge is owned
     by exactly one shard, and the frontier is exactly the cross-shard
     edge set.
   - qcheck differential: the sharded engine's report is byte-identical
     to the indexed engine's across shards in {1, 2, 3, 8} x domains in
     {1, 2, 4}, on uniformly corrupted and decimated social graphs.
   - The out-of-core path: a snapshot written to disk, reopened with
     [open_mapped] and validated by [check_mapped] (the sharded engine
     over mapped columns and property pools) must produce the same bytes
     again.
   - Governed runs: a finite budget yields a partial report whose
     violations are a subset of the full report's; [run_tasks] on a
     stopped governor runs nothing at all.
   - CLI: --domains 0, --shards 0 and --shards with a non-sharded
     engine are CLI001 usage errors (exit 2), not silent clamps.       *)

module G = Graphql_pg.Property_graph
module Val = Graphql_pg.Validate
module Vi = Graphql_pg.Violation
module Gov = Graphql_pg.Governor
module Snapshot = Graphql_pg.Snapshot
module Sio = Graphql_pg.Snapshot_io
module Partition = Graphql_pg.Partition
module Plan = Graphql_pg.Plan
module Parallel = Graphql_pg.Parallel

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let seeded_rng seed = Random.State.make [| seed; 0x5AAD |]

let decimate rng g =
  let g =
    List.fold_left
      (fun g e -> if Random.State.int rng 8 = 0 then G.remove_edge g e else g)
      g (G.edges g)
  in
  List.fold_left
    (fun g v -> if Random.State.int rng 8 = 0 then G.remove_node g v else g)
    g (G.nodes g)

let corrupted seed =
  let sch = Graphql_pg.Social.schema () in
  let g = Graphql_pg.Social.generate ~seed ~persons:30 () in
  let g = Graphql_pg.Social.corrupt_uniformly ~seed ~rate:0.1 sch g in
  (sch, decimate (seeded_rng seed) g)

let rendered report = List.map Vi.to_string report.Val.violations

(* ---- partition invariants ---- *)

let test_partition_invariants () =
  let sch = Graphql_pg.Social.schema () in
  let g = Graphql_pg.Social.generate ~seed:7 ~persons:40 () in
  let plan = Val.compile sch in
  let snap = Snapshot.build (Plan.symtab plan) g in
  let n = snap.Snapshot.n and m = snap.Snapshot.m in
  List.iter
    (fun shards ->
      let part = Partition.make snap ~shards in
      check_int "shard count" shards (Partition.shard_count part);
      (* shards tile the node range *)
      let covered = ref 0 in
      for s = 0 to shards - 1 do
        let sh = Partition.shard part s in
        check_int "contiguous" !covered sh.Partition.node_lo;
        check_bool "ordered" true (sh.Partition.node_lo <= sh.Partition.node_hi);
        covered := sh.Partition.node_hi;
        (* sub-view lengths match the range *)
        check_int "node view len" (sh.Partition.node_hi - sh.Partition.node_lo)
          (Bigarray.Array1.dim sh.Partition.node_label);
        check_int "adj view len" (sh.Partition.adj_hi - sh.Partition.adj_lo)
          (Bigarray.Array1.dim sh.Partition.out_adj)
      done;
      check_int "tiles [0,n)" n !covered;
      (* every edge is owned exactly once *)
      let owned = Array.make m 0 in
      for s = 0 to shards - 1 do
        Array.iter (fun e -> owned.(e) <- owned.(e) + 1) (Partition.owned_edges part s)
      done;
      Array.iteri (fun e c -> check_int (Printf.sprintf "edge %d owned once" e) 1 c) owned;
      (* the frontier is exactly the cross-shard edge set *)
      let cross e =
        Partition.shard_of_node part snap.Snapshot.edge_src.{e}
        <> Partition.shard_of_node part snap.Snapshot.edge_tgt.{e}
      in
      let expected = List.filter cross (List.init m Fun.id) in
      check_bool "frontier = cross edges" true
        (expected = Array.to_list (Partition.frontier_edges part));
      List.iter
        (fun e ->
          check_bool "cross-out flagged" true
            (Partition.has_cross_out part snap.Snapshot.edge_src.{e});
          check_bool "cross-in flagged" true
            (Partition.has_cross_in part snap.Snapshot.edge_tgt.{e}))
        expected)
    [ 1; 2; 3; 8; 100 ]

(* ---- the differential: sharded == indexed, byte for byte ---- *)

let shard_grid = [ 1; 2; 3; 8 ]
let domain_grid = [ 1; 2; 4 ]

let prop_sharded_byte_identical =
  QCheck2.Test.make
    ~name:"sharded == indexed (bytes) over shards {1,2,3,8} x domains {1,2,4}" ~count:10
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let sch, g = corrupted seed in
      let baseline = rendered (Val.check ~engine:Val.Indexed sch g) in
      List.for_all
        (fun shards ->
          List.for_all
            (fun domains ->
              baseline
              = rendered (Val.check ~engine:Val.Sharded ~domains ~shards sch g))
            domain_grid)
        shard_grid)

(* ---- the out-of-core path: snapshot file -> mapped -> streamed ---- *)

let with_temp_file f =
  let path = Filename.temp_file "gpgs_sharded" ".snap" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let prop_mapped_stream_byte_identical =
  QCheck2.Test.make ~name:"mapped streaming pipeline == indexed (bytes)" ~count:8
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let sch, g = corrupted seed in
      let plan = Val.compile sch in
      let baseline = rendered (Val.check_compiled ~engine:Val.Indexed plan g) in
      let snap = Snapshot.build (Plan.symtab plan) g in
      with_temp_file (fun path ->
          (match Sio.write (Plan.symtab plan) snap path with
          | Ok () -> ()
          | Error e -> Alcotest.failf "write: %a" Sio.pp_error e);
          List.for_all
            (fun shards ->
              match Sio.open_mapped (Plan.symtab plan) path with
              | Error e -> Alcotest.failf "open_mapped: %a" Sio.pp_error e
              | Ok md ->
                Fun.protect
                  ~finally:(fun () -> Sio.close_mapped md)
                  (fun () ->
                    match Val.check_mapped ~shards plan md with
                    | Ok report ->
                      report.Val.engine = Val.Sharded && rendered report = baseline
                    | Error e -> Alcotest.failf "check_mapped: %a" Sio.pp_error e))
            [ 1; 2; 5 ]))

(* ---- governed runs ---- *)

let subset ~full part = List.for_all (fun v -> List.exists (Vi.equal v) full) part

let test_governed_partial_subset () =
  (* ten nodes each missing a @required property: >= 10 violations *)
  let sch = Graphql_pg.schema_of_string_exn "type A { x: Int @required }" in
  let g =
    let rec go g i = if i = 10 then g else go (fst (G.add_node g ~label:"A" ())) (i + 1) in
    go G.empty 0
  in
  let full = (Val.check ~engine:Val.Sharded sch g).Val.violations in
  check_int "full run finds all" 10 (List.length full);
  List.iter
    (fun shards ->
      let report =
        Val.check ~engine:Val.Sharded ~domains:2 ~shards
          ~gov:(Gov.make ~max_violations:3 ()) sch g
      in
      check_bool "partial" false report.Val.complete;
      check_bool "nonempty" true (report.Val.violations <> []);
      check_bool "subset of full" true (subset ~full report.Val.violations))
    [ 1; 3; 8 ]

let test_governed_mapped_partial_subset () =
  let sch = Graphql_pg.schema_of_string_exn "type A { x: Int @required }" in
  let g =
    let rec go g i = if i = 10 then g else go (fst (G.add_node g ~label:"A" ())) (i + 1) in
    go G.empty 0
  in
  let plan = Val.compile sch in
  let full = (Val.check_compiled ~engine:Val.Sharded plan g).Val.violations in
  let snap = Snapshot.build (Plan.symtab plan) g in
  with_temp_file (fun path ->
      (match Sio.write (Plan.symtab plan) snap path with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write: %a" Sio.pp_error e);
      match Sio.open_mapped (Plan.symtab plan) path with
      | Error e -> Alcotest.failf "open_mapped: %a" Sio.pp_error e
      | Ok md ->
        Fun.protect
          ~finally:(fun () -> Sio.close_mapped md)
          (fun () ->
            match
              Val.check_mapped ~shards:5 ~gov:(Gov.make ~max_violations:3 ()) plan md
            with
            | Ok report ->
              check_bool "partial" false report.Val.complete;
              check_bool "subset of full" true (subset ~full report.Val.violations)
            | Error e -> Alcotest.failf "check_mapped: %a" Sio.pp_error e))

let test_run_tasks_stopped_spawns_nothing () =
  let ran = Atomic.make 0 in
  let task () =
    Atomic.incr ran;
    []
  in
  let run = Gov.start (Gov.make ~max_violations:1 ()) in
  Gov.stop_now run;
  let result = Parallel.run_tasks ~gov:run ~domains:4 [ task; task; task ] in
  check_bool "empty result" true (result = []);
  check_int "no task ran" 0 (Atomic.get ran);
  (* and the empty list short-circuits too, governed or not *)
  check_bool "empty tasks" true (Parallel.run_tasks ~domains:4 [] = [])

let test_bad_counts_raise () =
  let sch = Graphql_pg.Social.schema () in
  let g = Graphql_pg.Social.generate ~seed:3 ~persons:5 () in
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  check_bool "domains 0" true
    (raises (fun () -> Val.check ~engine:Val.Parallel ~domains:0 sch g));
  check_bool "sharded domains -1" true
    (raises (fun () -> Val.check ~engine:Val.Sharded ~domains:(-1) sch g));
  check_bool "shards 0" true
    (raises (fun () -> Val.check ~engine:Val.Sharded ~shards:0 sch g))

(* ---- CLI: CLI001 on bad counts, sharded end to end ---- *)

let test_dir = Filename.dirname Sys.executable_name
let in_repo rel = Filename.concat test_dir rel

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run_cli args =
  let out = Filename.temp_file "gpgs_sharded" ".out" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>/dev/null"
      (Filename.quote (in_repo "../bin/gpgs.exe"))
      args (Filename.quote out)
  in
  let code =
    match Sys.command cmd with c when c land 0xff = 0 -> c lsr 8 | c -> c
  in
  let text = read_file out in
  Sys.remove out;
  (code, text)

let test_cli_bad_counts () =
  let schema = in_repo "../examples/movies.graphql" in
  let graph = in_repo "../examples/movies.pgf" in
  List.iter
    (fun flags ->
      let code, out =
        run_cli (Printf.sprintf "validate %s %s %s --format json" schema graph flags)
      in
      check_int (flags ^ ": exit") 2 code;
      check_bool (flags ^ ": CLI001") true
        (let module J = Graphql_pg.Json in
         match J.of_string out with
         | Ok doc -> (
           match J.member "diagnostics" doc with
           | J.List ds ->
             List.exists (fun d -> J.member "code" d = J.String "CLI001") ds
           | _ -> false)
         | Error _ -> false))
    [
      "--engine sharded --domains 0";
      "--engine sharded --shards 0";
      "--engine sharded --shards=-3";
      "--engine indexed --shards 2";
    ];
  (* batch shares the validation *)
  let code, _ = run_cli (Printf.sprintf "batch %s %s --shards 0" schema graph) in
  check_int "batch --shards 0" 2 code

let test_cli_sharded_matches_indexed () =
  let schema = in_repo "../examples/movies.graphql" in
  let graph = in_repo "../examples/movies.pgf" in
  let code_i, out_i =
    run_cli (Printf.sprintf "validate %s %s --engine indexed" schema graph)
  in
  let code_s, out_s =
    run_cli
      (Printf.sprintf "validate %s %s --engine sharded --domains 2 --shards 3" schema
         graph)
  in
  check_int "same exit" code_i code_s;
  (* identical up to the engine name in the header line *)
  let tail s = List.tl (String.split_on_char '\n' s) in
  check_bool "same violation lines" true (tail out_i = tail out_s)

let suite =
  [
    Alcotest.test_case "partition invariants" `Quick test_partition_invariants;
    QCheck_alcotest.to_alcotest prop_sharded_byte_identical;
    QCheck_alcotest.to_alcotest prop_mapped_stream_byte_identical;
    Alcotest.test_case "governed runs are subsets" `Quick test_governed_partial_subset;
    Alcotest.test_case "governed mapped runs are subsets" `Quick
      test_governed_mapped_partial_subset;
    Alcotest.test_case "run_tasks on a stopped governor spawns nothing" `Quick
      test_run_tasks_stopped_spawns_nothing;
    Alcotest.test_case "domain/shard counts below 1 raise" `Quick test_bad_counts_raise;
    Alcotest.test_case "CLI001 on bad counts" `Quick test_cli_bad_counts;
    Alcotest.test_case "gpgs validate --engine sharded matches indexed" `Quick
      test_cli_sharded_matches_indexed;
  ]
