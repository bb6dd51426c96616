(* The one compiled schedule: the engine-agreement differential, the
   tiling of the ranges, and [run_tasks].

   - qcheck differential: the sharded engine's report is byte-identical
     to the indexed engine's across shards in {1, 2, 3, 8} x domains in
     {1, 2, 4}, on uniformly corrupted and decimated social graphs.
   - Tiling: under a budget that never fires, every shard x domain
     count reports the scans and violations of the indexed engine, so
     the ranges neither overlap nor leave a gap ([Violation.normalize]
     deduplicates, so the report alone would not show an overlap).
   - The out-of-core path: a snapshot written to disk, reopened with
     [open_mapped] and validated by [check_mapped] (the sharded engine
     over mapped columns and property pools) must produce the same bytes
     again.
   - Governed runs: a finite budget yields a partial report whose
     violations are a subset of the full report's; [run_tasks] on a
     stopped governor runs nothing at all.
   - [run_tasks] joins every domain before it re-raises a task's
     exception.
   - CLI: --domains 0, --shards 0 and --shards with a non-sharded
     engine are CLI001 usage errors (exit 2), not silent clamps.       *)

module G = Graphql_pg.Property_graph
module Val = Graphql_pg.Validate
module Vi = Graphql_pg.Violation
module Gov = Graphql_pg.Governor
module Snapshot = Graphql_pg.Snapshot
module Sio = Graphql_pg.Snapshot_io
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

(* ---- the ranges tile the graph ---- *)

(* A budget that never fires switches on the scan counters, which an
   overlap or a gap between two ranges would change. *)
let metered engine ~domains ~shards sch g =
  let gov = Gov.make ~max_violations:max_int () in
  let report = Val.check ~engine ~domains ~shards ~gov sch g in
  check_bool "complete" true report.Val.complete;
  (report.Val.nodes_scanned, report.Val.edges_scanned, rendered report)

let test_ranges_tile () =
  let sch = Graphql_pg.Social.schema () in
  let one_node = fst (G.add_node G.empty ~label:"Person" ()) in
  List.iter
    (fun (what, g) ->
      let indexed = metered Val.Indexed ~domains:1 ~shards:1 sch g in
      List.iter
        (fun shards ->
          List.iter
            (fun domains ->
              let nodes, edges, violations = metered Val.Sharded ~domains ~shards sch g in
              let i_nodes, i_edges, i_violations = indexed in
              let label = Printf.sprintf "%s, shards=%d, domains=%d" what shards domains in
              check_int (label ^ ": nodes_scanned") i_nodes nodes;
              check_int (label ^ ": edges_scanned") i_edges edges;
              check_bool (label ^ ": violations") true (violations = i_violations))
            [ 1; 2 ])
        [ 1; 2; 3; 8; 64 ])
    [ ("corrupted social", snd (corrupted 7)); ("empty", G.empty); ("one node", one_node) ]

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

(* A task that raises on the calling domain while a helper's task is
   still running: [run_tasks] may re-raise only once the helper is
   done. *)
let test_run_tasks_joins_on_raise () =
  let main = Domain.self () in
  let started = Atomic.make false and finished = Atomic.make 0 in
  let task () =
    if Domain.self () = main then begin
      Atomic.set started true;
      failwith "task failed"
    end
    else begin
      (* wait until the calling domain holds the other task *)
      while not (Atomic.get started) do
        Domain.cpu_relax ()
      done;
      Unix.sleepf 0.2;
      Atomic.incr finished;
      []
    end
  in
  (match Parallel.run_tasks ~domains:2 [ task; task ] with
  | _ -> Alcotest.fail "run_tasks returned"
  | exception Failure msg -> Alcotest.(check string) "the task's exception" "task failed" msg);
  check_int "the helper finished first" 1 (Atomic.get finished)

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
    QCheck_alcotest.to_alcotest prop_sharded_byte_identical;
    Alcotest.test_case "ranges tile the graph" `Quick test_ranges_tile;
    QCheck_alcotest.to_alcotest prop_mapped_stream_byte_identical;
    Alcotest.test_case "governed runs are subsets" `Quick test_governed_partial_subset;
    Alcotest.test_case "governed mapped runs are subsets" `Quick
      test_governed_mapped_partial_subset;
    Alcotest.test_case "run_tasks on a stopped governor spawns nothing" `Quick
      test_run_tasks_stopped_spawns_nothing;
    Alcotest.test_case "domain/shard counts below 1 raise" `Quick test_bad_counts_raise;
    Alcotest.test_case "run_tasks joins before raising" `Quick
      test_run_tasks_joins_on_raise;
    Alcotest.test_case "CLI001 on bad counts" `Quick test_cli_bad_counts;
    Alcotest.test_case "gpgs validate --engine sharded matches indexed" `Quick
      test_cli_sharded_matches_indexed;
  ]
