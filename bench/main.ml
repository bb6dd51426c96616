(* Benchmark harness: regenerates every table/figure-shaped artifact of the
   paper (see the per-experiment index in DESIGN.md and the recorded runs
   in EXPERIMENTS.md).

   Each experiment prints a table; fixed-size workloads additionally run
   as Bechamel micro-benchmarks (one Test.make per experiment, collected
   in one run at the end).

   Run with:  dune exec bench/main.exe
   (set BENCH_FAST=1 to shrink the series for quick checks) *)

module GP = Graphql_pg
open Bechamel
open Toolkit

let fast = Sys.getenv_opt "BENCH_FAST" <> None

let section title =
  Printf.printf "\n=== %s ===\n%!" title

(* median-of-k wall-clock milliseconds.

   This must be a wall clock, not [Sys.time]: [Sys.time] reports process
   CPU time, which (a) hides GC pauses and (b) *sums* across domains, so
   it would report a perfectly-scaling multicore engine as a slowdown.
   [Unix.gettimeofday] measures what a caller actually waits. *)
let time_ms ?(repeat = 3) f =
  let runs =
    List.init repeat (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (Sys.opaque_identity (f ()));
        (Unix.gettimeofday () -. t0) *. 1000.0)
  in
  List.nth (List.sort compare runs) (repeat / 2)

(* ------------------------------------------------------------------ *)
(* Machine-readable artifacts: experiments append rows with [record];
   [write_artifacts] dumps one BENCH_<exp>.json per experiment into
   $BENCH_JSON_DIR (default: the working directory) so CI and the
   EXPERIMENTS.md records consume numbers instead of scraping tables.   *)

let artifacts : (string, GP.Json.t list ref) Hashtbl.t = Hashtbl.create 8

let record exp fields =
  let rows =
    match Hashtbl.find_opt artifacts exp with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add artifacts exp r;
      r
  in
  rows := GP.Json.Assoc fields :: !rows

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_artifacts () =
  let dir = Option.value (Sys.getenv_opt "BENCH_JSON_DIR") ~default:"." in
  mkdir_p dir;
  let exps = Hashtbl.fold (fun exp rows acc -> (exp, rows) :: acc) artifacts [] in
  List.iter
    (fun (exp, rows) ->
      let doc =
        GP.Json.Assoc
          [
            ("experiment", GP.Json.String exp);
            ("fast", GP.Json.Bool fast);
            ("rows", GP.Json.List (List.rev !rows));
          ]
      in
      let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" exp) in
      (* durable temp+fsync+rename: a crash mid-run never truncates a
         previously published BENCH_*.json *)
      GP.Durable.write_file path [ GP.Json.to_string ~indent:true doc; "\n" ];
      Printf.printf "  artifact: %s\n%!" path)
    (List.sort compare exps)

(* ------------------------------------------------------------------ *)
(* E3 — the cardinality table of Section 3.3, executed                  *)

let cardinality_table () =
  section "E3: Section 3.3 cardinality table (accept / reject probes)";
  let variant body =
    GP.schema_of_string_exn (Printf.sprintf "type A { rel: %s }\ntype B {\n}\n" body)
  in
  let probe sch ~sources ~targets ~edges =
    let b = GP.Builder.create () in
    for i = 1 to sources do
      ignore (GP.Builder.node b (Printf.sprintf "a%d" i) ~label:"A" ())
    done;
    for j = 1 to targets do
      ignore (GP.Builder.node b (Printf.sprintf "b%d" j) ~label:"B" ())
    done;
    List.iter
      (fun (i, j) ->
        ignore
          (GP.Builder.edge b (Printf.sprintf "a%d" i) (Printf.sprintf "b%d" j) ~label:"rel" ()))
      edges;
    GP.conforms sch (GP.Builder.graph b)
  in
  Printf.printf "  %-5s  %-26s  %-14s  %-14s\n" "card" "declaration" "1 src->2 tgts"
    "2 srcs->1 tgt";
  List.iter
    (fun (name, body) ->
      let sch = variant body in
      Printf.printf "  %-5s  %-26s  %-14b  %-14b\n" name ("rel: " ^ body)
        (probe sch ~sources:1 ~targets:2 ~edges:[ (1, 1); (1, 2) ])
        (probe sch ~sources:2 ~targets:1 ~edges:[ (1, 1); (2, 1) ]))
    [
      ("1:1", "B @uniqueForTarget");
      ("1:N", "B");
      ("N:1", "[B] @uniqueForTarget");
      ("N:M", "[B]");
    ]

(* ------------------------------------------------------------------ *)
(* E7 — Theorem 1: validation scaling, naive vs indexed engine          *)

let validation_scaling () =
  section "E7: Theorem 1 — validation time vs graph size (social workload)";
  let sch = GP.Social.schema () in
  Printf.printf "  %-8s %-8s %-8s %12s %12s\n" "persons" "nodes" "edges" "naive (ms)"
    "indexed (ms)";
  let naive_sizes = if fast then [ 20; 50 ] else [ 20; 50; 100; 200; 400 ] in
  let indexed_sizes = if fast then [ 100; 1000 ] else [ 100; 400; 1000; 4000; 10000; 20000 ] in
  let run engine persons =
    let g = GP.Social.generate ~persons () in
    let ms = time_ms (fun () -> GP.Validate.check ~engine sch g) in
    (GP.Property_graph.node_count g, GP.Property_graph.edge_count g, ms)
  in
  List.iter
    (fun persons ->
      let nodes, edges, naive_ms = run GP.Validate.Naive persons in
      let _, _, indexed_ms = run GP.Validate.Indexed persons in
      record "E7"
        [
          ("persons", GP.Json.Int persons);
          ("nodes", GP.Json.Int nodes);
          ("edges", GP.Json.Int edges);
          ("naive_ms", GP.Json.Float naive_ms);
          ("indexed_ms", GP.Json.Float indexed_ms);
        ];
      Printf.printf "  %-8d %-8d %-8d %12.2f %12.2f\n%!" persons nodes edges naive_ms
        indexed_ms)
    naive_sizes;
  List.iter
    (fun persons ->
      let nodes, edges, indexed_ms = run GP.Validate.Indexed persons in
      record "E7"
        [
          ("persons", GP.Json.Int persons);
          ("nodes", GP.Json.Int nodes);
          ("edges", GP.Json.Int edges);
          ("indexed_ms", GP.Json.Float indexed_ms);
        ];
      Printf.printf "  %-8d %-8d %-8d %12s %12.2f\n%!" persons nodes edges "-" indexed_ms)
    indexed_sizes;
  (* growth exponents: fit t = c * n^k on the first and last points *)
  let exponent run_engine sizes =
    match sizes with
    | a :: _ :: _ ->
      let b = List.nth sizes (List.length sizes - 1) in
      let _, _, ta = run run_engine a and _, _, tb = run run_engine b in
      log (tb /. ta) /. log (float_of_int b /. float_of_int a)
    | _ -> nan
  in
  Printf.printf "  observed growth exponent: naive ~ n^%.2f, indexed ~ n^%.2f\n"
    (exponent GP.Validate.Naive naive_sizes)
    (exponent GP.Validate.Indexed indexed_sizes);
  Printf.printf
    "  (paper: data complexity O(n^2) for the direct first-order algorithm;\n\
    \   the indexed engine is near-linear)\n"

(* ------------------------------------------------------------------ *)
(* E15 — the multicore engine: naive vs indexed vs parallel, scaling in
   graph size and in domain count (wall clock — see time_ms)            *)

let parallel_scaling () =
  section "E15: multicore validation — naive vs indexed vs parallel (wall clock)";
  let sch = GP.Social.schema () in
  let host_domains = Domain.recommended_domain_count () in
  Printf.printf "  host: %d recommended domain(s)\n" host_domains;
  (* graph-size scaling at a fixed domain count *)
  let sizes = if fast then [ 200; 1000 ] else [ 1000; 4000; 10000; 20000 ] in
  let fixed_domains = max 4 host_domains in
  Printf.printf "  %-8s %-8s %-8s %12s %12s %12s %9s\n" "persons" "nodes" "edges"
    "naive (ms)" "indexed (ms)"
    (Printf.sprintf "par-%d (ms)" fixed_domains)
    "idx/par";
  List.iter
    (fun persons ->
      let g = GP.Social.generate ~persons () in
      let nodes = GP.Property_graph.node_count g
      and edges = GP.Property_graph.edge_count g in
      let naive_cutoff = if fast then 200 else 1000 in
      let naive_ms =
        if persons <= naive_cutoff then
          Some (time_ms ~repeat:1 (fun () -> GP.Validate.check ~engine:GP.Validate.Naive sch g))
        else None
      in
      let indexed_ms =
        time_ms (fun () -> GP.Validate.check ~engine:GP.Validate.Indexed sch g)
      in
      let par_ms =
        time_ms (fun () ->
            GP.Validate.check ~engine:GP.Validate.Parallel ~domains:fixed_domains sch g)
      in
      record "E15"
        ([
           ("persons", GP.Json.Int persons);
           ("nodes", GP.Json.Int nodes);
           ("edges", GP.Json.Int edges);
           ("indexed_ms", GP.Json.Float indexed_ms);
           ("parallel_ms", GP.Json.Float par_ms);
           ("domains", GP.Json.Int fixed_domains);
         ]
        @ match naive_ms with Some ms -> [ ("naive_ms", GP.Json.Float ms) ] | None -> []);
      Printf.printf "  %-8d %-8d %-8d %12s %12.2f %12.2f %8.2fx\n%!" persons nodes edges
        (match naive_ms with Some ms -> Printf.sprintf "%.2f" ms | None -> "-")
        indexed_ms par_ms (indexed_ms /. par_ms))
    sizes;
  (* domain-count scaling at the largest size *)
  let persons = List.fold_left max 0 sizes in
  let g = GP.Social.generate ~persons () in
  let indexed_ms =
    time_ms (fun () -> GP.Validate.check ~engine:GP.Validate.Indexed sch g)
  in
  Printf.printf "  domain sweep at %d persons (indexed baseline %.2f ms):\n" persons
    indexed_ms;
  let counts = if fast then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  List.iter
    (fun domains ->
      let ms =
        time_ms (fun () ->
            GP.Validate.check ~engine:GP.Validate.Parallel ~domains sch g)
      in
      Printf.printf "  %8d domain(s) %12.2f ms %8.2fx vs indexed\n%!" domains ms
        (indexed_ms /. ms))
    counts;
  if host_domains < 4 then
    Printf.printf
      "  (host has %d core(s); domain counts above it measure scheduling overhead,\n\
      \   not speedup — rerun on a multicore host for the scaling curve)\n"
      host_domains

(* ------------------------------------------------------------------ *)
(* E19 — the sharded engine: the E15 domain sweep re-run over explicit
   partitions, a shard sweep at a fixed domain count, and the streaming
   out-of-core pipeline over a mapped snapshot.  Every configuration's
   report is asserted byte-identical to the indexed engine's.            *)

let sharded_scaling () =
  section "E19: sharded validation — indexed vs parallel vs sharded (wall clock)";
  let sch = GP.Social.schema () in
  let host_domains = Domain.recommended_domain_count () in
  Printf.printf "  host: %d recommended domain(s)\n" host_domains;
  let persons = if fast then 1000 else 20000 in
  let g = GP.Social.generate ~persons () in
  let nodes = GP.Property_graph.node_count g
  and edges = GP.Property_graph.edge_count g in
  let rendered report =
    List.map GP.Violation.to_string report.GP.Validate.violations
  in
  let indexed_report = GP.Validate.check ~engine:GP.Validate.Indexed sch g in
  let baseline = rendered indexed_report in
  let assert_identical what report =
    if not (List.equal String.equal baseline (rendered report)) then
      failwith (Printf.sprintf "E19: %s diverged from the indexed report" what)
  in
  let indexed_ms =
    time_ms (fun () -> GP.Validate.check ~engine:GP.Validate.Indexed sch g)
  in
  Printf.printf "  %d persons (%d nodes, %d edges); indexed baseline %.2f ms\n" persons
    nodes edges indexed_ms;
  (* the E15 domain sweep, sharded vs parallel, shards = domains *)
  let counts = if fast then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  Printf.printf "  %-22s %12s %12s %9s\n" "configuration" "par (ms)" "shard (ms)"
    "idx/shard";
  List.iter
    (fun domains ->
      let par_ms =
        time_ms (fun () ->
            GP.Validate.check ~engine:GP.Validate.Parallel ~domains sch g)
      in
      let sharded_ms =
        time_ms (fun () ->
            GP.Validate.check ~engine:GP.Validate.Sharded ~domains sch g)
      in
      assert_identical
        (Printf.sprintf "sharded domains=%d" domains)
        (GP.Validate.check ~engine:GP.Validate.Sharded ~domains sch g);
      record "E19"
        [
          ("series", GP.Json.String "domain_sweep");
          ("persons", GP.Json.Int persons);
          ("nodes", GP.Json.Int nodes);
          ("edges", GP.Json.Int edges);
          ("domains", GP.Json.Int domains);
          ("shards", GP.Json.Int domains);
          ("indexed_ms", GP.Json.Float indexed_ms);
          ("parallel_ms", GP.Json.Float par_ms);
          ("sharded_ms", GP.Json.Float sharded_ms);
        ];
      Printf.printf "  %-22s %12.2f %12.2f %8.2fx\n%!"
        (Printf.sprintf "domains=shards=%d" domains)
        par_ms sharded_ms (indexed_ms /. sharded_ms))
    counts;
  (* shard sweep at a fixed domain count: more shards than domains bounds
     the per-task working set; the report must not change *)
  let shard_counts = if fast then [ 1; 3; 8 ] else [ 1; 2; 4; 8; 16 ] in
  List.iter
    (fun shards ->
      let ms =
        time_ms (fun () ->
            GP.Validate.check ~engine:GP.Validate.Sharded ~domains:host_domains ~shards
              sch g)
      in
      assert_identical
        (Printf.sprintf "sharded shards=%d" shards)
        (GP.Validate.check ~engine:GP.Validate.Sharded ~domains:host_domains ~shards sch g);
      record "E19"
        [
          ("series", GP.Json.String "shard_sweep");
          ("persons", GP.Json.Int persons);
          ("domains", GP.Json.Int host_domains);
          ("shards", GP.Json.Int shards);
          ("indexed_ms", GP.Json.Float indexed_ms);
          ("sharded_ms", GP.Json.Float ms);
        ];
      Printf.printf "  %-22s %12s %12.2f %8.2fx\n%!"
        (Printf.sprintf "domains=%d shards=%d" host_domains shards)
        "" ms (indexed_ms /. ms))
    shard_counts;
  (* the streaming out-of-core pipeline over a mapped snapshot *)
  let plan = GP.Validate.compile sch in
  let snap = GP.Snapshot.build (GP.Plan.symtab plan) g in
  let path = Filename.temp_file "gpgs_e19" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (match GP.Snapshot_io.write (GP.Plan.symtab plan) snap path with
      | Ok () -> ()
      | Error e -> failwith ("E19: snapshot write failed: " ^ e.GP.Snapshot_io.message));
      List.iter
        (fun shards ->
          let ms =
            time_ms (fun () ->
                match GP.Snapshot_io.open_mapped (GP.Plan.symtab plan) path with
                | Error e -> failwith ("E19: open_mapped: " ^ e.GP.Snapshot_io.message)
                | Ok md ->
                  Fun.protect
                    ~finally:(fun () -> GP.Snapshot_io.close_mapped md)
                    (fun () ->
                      match GP.Validate.check_mapped ~shards plan md with
                      | Ok report -> assert_identical "mapped stream" report
                      | Error e ->
                        failwith ("E19: check_mapped: " ^ e.GP.Snapshot_io.message)))
          in
          record "E19"
            [
              ("series", GP.Json.String "mapped_stream");
              ("persons", GP.Json.Int persons);
              ("shards", GP.Json.Int shards);
              ("indexed_ms", GP.Json.Float indexed_ms);
              ("stream_ms", GP.Json.Float ms);
            ];
          Printf.printf "  %-22s %12s %12.2f %8.2fx  (open+validate+close)\n%!"
            (Printf.sprintf "mapped shards=%d" shards)
            "" ms (indexed_ms /. ms))
        shard_counts);
  Printf.printf "  reports byte-identical to indexed across every configuration\n"

(* ------------------------------------------------------------------ *)
(* E16 — the compiled pipeline: schema plan compiled once, snapshot +
   integer kernels per run.  Isolates compile cost from per-run cost and
   compares the fused single-pass engine with the per-rule slicing one.  *)

let compiled_pipeline () =
  section "E16: compiled validation — plan reuse across runs (wall clock)";
  let sch = GP.Social.schema () in
  let plan = GP.Validate.compile sch in
  let compile_ms = time_ms (fun () -> GP.Validate.compile sch) in
  Printf.printf "  Plan.compile (social schema): %.3f ms, %d interned symbols\n" compile_ms
    (GP.Symtab.size (GP.Plan.symtab plan));
  let sizes = if fast then [ 200; 1000 ] else [ 1000; 4000; 10000; 20000 ] in
  Printf.printf "  %-8s %-8s %-8s %12s %12s %12s %12s\n" "persons" "nodes" "edges"
    "linear (ms)" "indexed (ms)" "par (ms)" "snapshot";
  List.iter
    (fun persons ->
      let g = GP.Social.generate ~persons () in
      let nodes = GP.Property_graph.node_count g
      and edges = GP.Property_graph.edge_count g in
      let run engine =
        time_ms (fun () -> GP.Validate.check_compiled ~engine plan g)
      in
      let snapshot_ms =
        time_ms (fun () -> GP.Snapshot.build (GP.Plan.symtab plan) g)
      in
      let linear_ms = run GP.Validate.Linear in
      let indexed_ms = run GP.Validate.Indexed in
      let par_ms = run GP.Validate.Parallel in
      record "E16"
        [
          ("persons", GP.Json.Int persons);
          ("nodes", GP.Json.Int nodes);
          ("edges", GP.Json.Int edges);
          ("linear_ms", GP.Json.Float linear_ms);
          ("indexed_ms", GP.Json.Float indexed_ms);
          ("parallel_ms", GP.Json.Float par_ms);
          ("snapshot_build_ms", GP.Json.Float snapshot_ms);
        ];
      Printf.printf "  %-8d %-8d %-8d %12.2f %12.2f %12.2f %9.2f ms\n%!" persons nodes
        edges linear_ms indexed_ms par_ms snapshot_ms)
    sizes;
  Printf.printf
    "  (check_compiled reuses the schema plan; \"snapshot\" is the per-run cost of\n\
    \   freezing the graph into the CSR view, included in the engine columns)\n"

(* ------------------------------------------------------------------ *)
(* E17 — streaming vs slurp ingestion: Pgf.load reads from a fixed
   64 KiB chunked buffer; the historical path slurped the whole file
   into one string first.  Peak RSS is measured per strategy in a
   fresh child process — VmHWM is a per-process high-water mark, so an
   in-process reading after the earlier experiments would only show
   their peak, and Unix.fork is unavailable once E15 has spawned
   domains.  The bench re-executes itself with E17_LOAD=mode:path set;
   the child performs just that one load and prints its VmHWM growth.  *)

let vm_hwm_kb () =
  let ic = open_in "/proc/self/status" in
  let rec go acc =
    match input_line ic with
    | line ->
      let acc =
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> Some kb)
        else acc
      in
      go acc
    | exception End_of_file ->
      close_in ic;
      acc
  in
  go None

let e17_slurp path =
  (* the pre-streaming loader: whole file into one string, then parse *)
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  match GP.Pgf.parse text with Ok g -> g | Error _ -> failwith "parse"

let e17_stream path =
  match GP.Pgf.load path with Ok g -> g | Error _ -> failwith "load"

(* the compiled path's ingest: PGF text into staging columns, frozen *)
let e22_columns path =
  match GP.Pgf.load_columns path with
  | Ok columns -> GP.Snapshot.freeze (GP.Symtab.create ()) columns
  | Error _ -> failwith "load"

let e17_child spec =
  let mode, path =
    match String.index_opt spec ':' with
    | Some i -> (String.sub spec 0 i, String.sub spec (i + 1) (String.length spec - i - 1))
    | None -> failwith "E17_LOAD: expected mode:path"
  in
  let hwm () = match vm_hwm_kb () with Some kb -> kb | None -> 0 in
  let before = hwm () in
  (match mode with
  | "stream" -> ignore (Sys.opaque_identity (e17_stream path))
  | "slurp" -> ignore (Sys.opaque_identity (e17_slurp path))
  | "reparse" ->
    (* E18: the cold open — ingest the PGF text and freeze the CSR *)
    ignore (Sys.opaque_identity (e22_columns path))
  | "mmap" ->
    (* E18: reopen a persisted snapshot; the int columns stay mapped *)
    (match GP.Snapshot_io.load (GP.Symtab.create ()) path with
    | Ok snap -> ignore (Sys.opaque_identity snap)
    | Error e -> failwith e.GP.Snapshot_io.message)
  | _ -> failwith "E17_LOAD: unknown mode");
  Printf.printf "%d\n" (hwm () - before);
  Stdlib.exit 0

let () = match Sys.getenv_opt "E17_LOAD" with Some spec -> e17_child spec | None -> ()

let rss_delta_kb mode path =
  let out = Filename.temp_file "gpgs_e17_rss" ".kb" in
  let cmd =
    Printf.sprintf "E17_LOAD=%s %s > %s"
      (Filename.quote (mode ^ ":" ^ path))
      (Filename.quote Sys.executable_name) (Filename.quote out)
  in
  let rc = Sys.command cmd in
  let ic = open_in out in
  let kb = match input_line ic with s -> int_of_string s | exception End_of_file -> -1 in
  close_in ic;
  Sys.remove out;
  if rc <> 0 then -1 else kb

let streaming_ingestion () =
  section "E17: streaming vs slurp PGF load (wall clock, allocation, peak RSS)";
  let persons = if fast then 500 else 20000 in
  let g = GP.Social.generate ~persons () in
  let path = Filename.temp_file "gpgs_e17" ".pgf" in
  GP.Pgf.save path g;
  let bytes = (Unix.stat path).Unix.st_size in
  let slurp () = e17_slurp path in
  let stream () = e17_stream path in
  let alloc f =
    let a0 = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (f ()));
    (Gc.allocated_bytes () -. a0) /. 1048576.0
  in
  Printf.printf "  input: %d persons, %.1f MB of PGF text\n" persons
    (float_of_int bytes /. 1048576.0);
  Printf.printf "  %-8s %12s %14s %16s\n" "loader" "load (ms)" "alloc (MB)" "peak RSS (KiB)";
  List.iter
    (fun (name, f) ->
      let ms = time_ms f and mb = alloc f and rss = rss_delta_kb name path in
      record "E17"
        [
          ("loader", GP.Json.String name);
          ("persons", GP.Json.Int persons);
          ("pgf_bytes", GP.Json.Int bytes);
          ("load_ms", GP.Json.Float ms);
          ("alloc_mb", GP.Json.Float mb);
          ("peak_rss_kib", GP.Json.Int rss);
        ];
      Printf.printf "  %-8s %12.2f %14.1f %16d\n%!" name ms mb rss)
    [ ("stream", stream); ("slurp", slurp) ];
  Sys.remove path;
  Printf.printf
    "  (\"stream\" is Pgf.load — a fold over 64 KiB chunks; \"slurp\" additionally\n\
    \   materializes the whole file and its line list; RSS is the child-process\n\
    \   VmHWM delta for one load in isolation)\n"

(* ------------------------------------------------------------------ *)
(* E18 — persisted snapshots: cold PGF reparse vs mmap reopen.  "Open"
   is everything between a cold start and a validatable snapshot —
   reparse = Pgf.load + Snapshot.build, mmap = Snapshot_io.load (header
   + checksum + symtab + props, int columns mapped).  Both open into a
   freshly compiled plan, so each run pays the full symbol-remap cost;
   peak RSS per strategy is a child-process VmHWM delta (see E17).      *)

let snapshot_reopen () =
  section "E18: cold reparse vs mmap snapshot reopen (wall clock, peak RSS)";
  let persons = if fast then 500 else 20000 in
  let sch = GP.Social.schema () in
  let g = GP.Social.generate ~persons () in
  let pgf_path = Filename.temp_file "gpgs_e18" ".pgf" in
  let snap_path = Filename.temp_file "gpgs_e18" ".snap" in
  GP.Pgf.save pgf_path g;
  let st = GP.Symtab.create () in
  (match GP.Snapshot_io.write st (GP.Snapshot.build st g) snap_path with
  | Ok () -> ()
  | Error e -> failwith e.GP.Snapshot_io.message);
  let pgf_bytes = (Unix.stat pgf_path).Unix.st_size in
  let snap_bytes = (Unix.stat snap_path).Unix.st_size in
  (* The plan is compiled once per schema in any serving flow, so it sits
     outside the timed region: "open" is the per-graph cost only. *)
  let reparse_plan = GP.Validate.compile sch in
  let mmap_plan = GP.Validate.compile sch in
  let open_reparse () =
    match GP.Pgf.load_columns pgf_path with
    | Ok columns -> (reparse_plan, GP.Snapshot.freeze (GP.Plan.symtab reparse_plan) columns)
    | Error _ -> failwith "parse"
  in
  let open_mmap () =
    match GP.Snapshot_io.load (GP.Plan.symtab mmap_plan) snap_path with
    | Ok snap -> (mmap_plan, snap)
    | Error e -> failwith e.GP.Snapshot_io.message
  in
  let validate (plan, snap) =
    GP.Validate.check_snapshot ~engine:GP.Validate.Indexed plan snap
  in
  let report_strings o =
    List.map GP.Violation.to_string (validate o).GP.Validate.violations
  in
  let identical = report_strings (open_reparse ()) = report_strings (open_mmap ()) in
  Printf.printf "  input: %d persons, %.1f MB PGF, %.1f MB snapshot\n" persons
    (float_of_int pgf_bytes /. 1048576.0)
    (float_of_int snap_bytes /. 1048576.0);
  Printf.printf "  %-8s %12s %20s %16s\n" "path" "open (ms)" "open+validate (ms)"
    "peak RSS (KiB)";
  let measure name opener rss_mode rss_path =
    let open_ms = time_ms (fun () -> opener ()) in
    let total_ms = time_ms (fun () -> validate (opener ())) in
    let rss = rss_delta_kb rss_mode rss_path in
    record "E18"
      [
        ("path", GP.Json.String name);
        ("persons", GP.Json.Int persons);
        ("pgf_bytes", GP.Json.Int pgf_bytes);
        ("snapshot_bytes", GP.Json.Int snap_bytes);
        ("open_ms", GP.Json.Float open_ms);
        ("open_validate_ms", GP.Json.Float total_ms);
        ("peak_rss_kib", GP.Json.Int rss);
      ];
    Printf.printf "  %-8s %12.2f %20.2f %16d\n%!" name open_ms total_ms rss;
    (open_ms, total_ms)
  in
  let rep_open, rep_total = measure "reparse" open_reparse "reparse" pgf_path in
  let mm_open, mm_total = measure "mmap" open_mmap "mmap" snap_path in
  record "E18"
    [
      ("path", GP.Json.String "summary");
      ("open_speedup", GP.Json.Float (rep_open /. mm_open));
      ("open_validate_speedup", GP.Json.Float (rep_total /. mm_total));
      ("reports_identical", GP.Json.Bool identical);
    ];
  Printf.printf "  speedup: open %.1fx, open+validate %.1fx; reports identical: %b\n"
    (rep_open /. mm_open) (rep_total /. mm_total) identical;
  Sys.remove pgf_path;
  Sys.remove snap_path

(* ------------------------------------------------------------------ *)
(* E20 — the validation daemon (gpgs serve): client-storm throughput
   over a unix socket.  The plan is compiled once on the first request
   and served from the content-addressed cache afterwards, so the sweep
   measures the steady-state request rate of the worker pool, not
   schema compilation.                                                  *)

let serve_storm () =
  section "E20: validation service — client storm over a unix socket";
  let write_file path text =
    let oc = open_out_bin path in
    output_string oc text;
    close_out oc
  in
  let persons = if fast then 50 else 500 in
  let workers = 4 in
  let sch_path = Filename.temp_file "gpgs_e20" ".graphql" in
  let pgf_path = Filename.temp_file "gpgs_e20" ".pgf" in
  write_file sch_path GP.Social.schema_text;
  write_file pgf_path (GP.Pgf.print (GP.Social.generate ~persons ()));
  let sock = Filename.temp_file "gpgs_e20" ".sock" in
  let stop = Atomic.make false in
  let ready = Atomic.make false in
  let service = Pg_server.Service.create () in
  let config =
    {
      (Pg_server.Server.default_config (Pg_server.Server.Unix_socket sock)) with
      Pg_server.Server.workers;
      max_pending = 64;
    }
  in
  let daemon =
    Domain.spawn (fun () ->
        Pg_server.Server.run ~stop
          ~on_ready:(fun _ -> Atomic.set ready true)
          config service)
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.01
  done;
  let request =
    GP.Json.to_string
      (GP.Json.Assoc
         [
           ("op", GP.Json.String "validate");
           ("schema", GP.Json.String sch_path);
           ("graph", GP.Json.String pgf_path);
         ])
    ^ "\n"
  in
  (* One connection per client; strictly serial request/response, so a
     response is fully drained (up to its newline) before the next send. *)
  let client n () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX sock);
    let req = Bytes.of_string request in
    let chunk = Bytes.create 65536 in
    let served = ref 0 in
    for _ = 1 to n do
      let rec send pos =
        if pos < Bytes.length req then send (pos + Unix.write fd req pos (Bytes.length req - pos))
      in
      send 0;
      let rec drain () =
        let r = Unix.read fd chunk 0 (Bytes.length chunk) in
        if r = 0 then failwith "E20: server closed the connection"
        else if not (Bytes.exists (fun c -> c = '\n') (Bytes.sub chunk 0 r)) then drain ()
      in
      drain ();
      incr served
    done;
    Unix.close fd;
    !served
  in
  (* warm the plan cache so the sweep measures the served steady state *)
  ignore (client 1 ());
  let counts = if fast then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  let per_client = if fast then 20 else 100 in
  Printf.printf "  %d persons per graph, %d workers\n" persons workers;
  Printf.printf "  %-8s %10s %12s %10s\n" "clients" "requests" "wall (ms)" "req/s";
  List.iter
    (fun clients ->
      let t0 = Unix.gettimeofday () in
      let ds = List.init clients (fun _ -> Domain.spawn (fun () -> client per_client ())) in
      let total = List.fold_left (fun acc d -> acc + Domain.join d) 0 ds in
      let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
      let rps = float_of_int total /. (wall_ms /. 1000.) in
      Printf.printf "  %-8d %10d %12.1f %10.0f\n" clients total wall_ms rps;
      let cs = Pg_server.Service.plan_stats service in
      record "E20"
        [
          ("series", GP.Json.String "client_sweep");
          ("persons", GP.Json.Int persons);
          ("workers", GP.Json.Int workers);
          ("clients", GP.Json.Int clients);
          ("requests", GP.Json.Int total);
          ("wall_ms", GP.Json.Float wall_ms);
          ("requests_per_sec", GP.Json.Float rps);
          ("plan_cache_hits", GP.Json.Int cs.Pg_server.Cache.hits);
          ("plan_cache_misses", GP.Json.Int cs.Pg_server.Cache.misses);
        ])
    counts;
  Atomic.set stop true;
  Domain.join daemon;
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ sch_path; pgf_path; sock ]

(* ------------------------------------------------------------------ *)
(* E21 — schema-frontend compile cost: the same constraint set written
   in GraphQL SDL and in PG-Schema, parsed+lowered through each front
   end onto the shared IR, plus the (frontend-independent) plan
   compile.  The PG-Schema document is generated synthetically at each
   size; its SDL twin is the [To_sdl] rendering of the lowered IR, so
   both texts express byte-for-byte the same schema by construction
   (asserted via a second lowering round trip).                        *)

let frontend_compile () =
  section "E21: schema-frontend compile cost — SDL vs PG-Schema (same IR)";
  let pgs_text n_types =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "CREATE GRAPH TYPE Generated STRICT {\n";
    for i = 0 to n_types - 1 do
      Buffer.add_string buf
        (Printf.sprintf
           "  (T%d { id STRING, rank INT, OPTIONAL note STRING, score FLOAT, OPTIONAL tags \
            STRING ARRAY, flag BOOL }),\n"
           i)
    done;
    for i = 0 to n_types - 1 do
      let tgt = (i + 1) mod n_types in
      Buffer.add_string buf
        (Printf.sprintf "  (:T%d)-[next%d { OPTIONAL weight FLOAT }]->(:T%d) OUT 1..1 IN 0..1,\n" i
           i tgt);
      Buffer.add_string buf
        (Printf.sprintf "  (:T%d)-[fan%d]->(:T%d) OUT 0..* IN 1..*,\n" i i tgt)
    done;
    Buffer.add_string buf "}\n";
    Buffer.contents buf
  in
  let sizes = if fast then [ 8; 32 ] else [ 8; 32; 128; 512 ] in
  Printf.printf "  %-6s %-10s %-10s %12s %12s %12s %6s\n" "types" "sdl (B)" "pgs (B)"
    "sdl (ms)" "pgs (ms)" "plan (ms)" "same";
  List.iter
    (fun n_types ->
      let pgs = pgs_text n_types in
      let sch =
        match GP.Frontend.parse_full GP.Frontend.Pgschema pgs with
        | Ok (sch, _) -> sch
        | Error _ -> failwith "E21: generated PG-Schema document failed to lower"
      in
      let sdl = GP.To_sdl.to_string sch in
      let parse lang text =
        match GP.Frontend.parse_full lang text with
        | Ok (sch, _) -> sch
        | Error _ -> failwith "E21: frontend rejected its own rendering"
      in
      (* both texts land on the same IR: compare their SDL renderings *)
      let identical =
        GP.To_sdl.to_string (parse GP.Frontend.Sdl sdl)
        = GP.To_sdl.to_string (parse GP.Frontend.Pgschema pgs)
      in
      let sdl_ms = time_ms (fun () -> parse GP.Frontend.Sdl sdl) in
      let pgs_ms = time_ms (fun () -> parse GP.Frontend.Pgschema pgs) in
      let plan_ms = time_ms (fun () -> GP.Validate.compile sch) in
      record "E21"
        [
          ("node_types", GP.Json.Int n_types);
          ("sdl_bytes", GP.Json.Int (String.length sdl));
          ("pgs_bytes", GP.Json.Int (String.length pgs));
          ("sdl_lower_ms", GP.Json.Float sdl_ms);
          ("pgs_lower_ms", GP.Json.Float pgs_ms);
          ("plan_compile_ms", GP.Json.Float plan_ms);
          ("identical_ir", GP.Json.Bool identical);
        ];
      Printf.printf "  %-6d %-10d %-10d %12.3f %12.3f %12.3f %6b\n%!" n_types
        (String.length sdl) (String.length pgs) sdl_ms pgs_ms plan_ms identical)
    sizes;
  Printf.printf
    "  (sdl/pgs columns are parse+lower onto the shared IR; the plan compile\n\
    \   is frontend-independent and paid once whichever language wrote the schema)\n"

(* ------------------------------------------------------------------ *)
(* E22 — columnar ingest: the compiled path reads PGF text straight
   into staging columns and freezes those; a string-level consumer
   thaws the columns into a persistent graph, and Snapshot.build of
   that graph stages it again before the same freeze.  Minor words are
   counted on this domain and are deterministic for a given input, so
   they compare across hosts where wall time cannot.                    *)

let columnar_ingest () =
  section "E22: columnar PGF ingest + freeze (wall clock, minor words)";
  let persons = if fast then 500 else 20000 in
  let path = Filename.temp_file "gpgs_e22" ".pgf" in
  GP.Pgf.save path (GP.Social.generate ~persons ());
  let bytes = (Unix.stat path).Unix.st_size in
  let ok = function Ok v -> v | Error _ -> failwith "E22: load" in
  let stages =
    [
      ("load_columns", fun () -> ignore (Sys.opaque_identity (ok (GP.Pgf.load_columns path))));
      ("load_columns+freeze", fun () -> ignore (Sys.opaque_identity (e22_columns path)));
      ( "load+build",
        fun () ->
          ignore
            (Sys.opaque_identity (GP.Snapshot.build (GP.Symtab.create ()) (ok (GP.Pgf.load path))))
      );
    ]
  in
  Printf.printf "  input: %d persons, %.1f MB of PGF text\n" persons
    (float_of_int bytes /. 1048576.0);
  Printf.printf "  %-20s %12s %16s\n" "path" "wall (ms)" "minor (Mwords)";
  List.iter
    (fun (name, f) ->
      let w0 = Gc.minor_words () in
      f ();
      let mwords = (Gc.minor_words () -. w0) /. 1e6 in
      let ms = time_ms f in
      record "E22"
        [
          ("path", GP.Json.String name);
          ("persons", GP.Json.Int persons);
          ("pgf_bytes", GP.Json.Int bytes);
          ("wall_ms", GP.Json.Float ms);
          ("minor_mwords", GP.Json.Float mwords);
        ];
      Printf.printf "  %-20s %12.2f %16.2f\n%!" name ms mwords)
    stages;
  Sys.remove path;
  Printf.printf
    "  (load_columns+freeze is what validate, batch, snapshot build and the server's\n\
    \   text path run; load+build is the thawed graph frozen again)\n"

(* ------------------------------------------------------------------ *)
(* E23 — snapshot properties as mapped pools: what reopening a
   snapshot file allocates, and what a loaded snapshot keeps on the GC
   heap.  Uses only Snapshot_io.write/load, so this function also
   measures a build whose loader decodes properties onto the heap.    *)

let snapshot_pools () =
  section "E23: Snapshot_io.load minor words and retained heap words";
  let persons = if fast then 500 else 5000 in
  let path = Filename.temp_file "gpgs_e23" ".snap" in
  let st = GP.Symtab.create () in
  (match
     GP.Snapshot_io.write st (GP.Snapshot.build st (GP.Social.generate ~persons ())) path
   with
  | Ok () -> ()
  | Error e -> failwith ("E23: write: " ^ e.GP.Snapshot_io.message));
  let load () =
    match GP.Snapshot_io.load (GP.Symtab.create ()) path with
    | Ok snap -> snap
    | Error e -> failwith ("E23: load: " ^ e.GP.Snapshot_io.message)
  in
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (load ()));
  let minor = Gc.minor_words () -. w0 in
  let ms = time_ms (fun () -> ignore (Sys.opaque_identity (load ()))) in
  (* live words after a full major, with three loaded snapshots held *)
  let held = 3 in
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  let kept = List.init held (fun _ -> load ()) in
  Gc.full_major ();
  let retained = float_of_int ((Gc.stat ()).Gc.live_words - before) /. float_of_int held in
  ignore (Sys.opaque_identity kept);
  let bytes = (Unix.stat path).Unix.st_size in
  Sys.remove path;
  record "E23"
    [
      ("persons", GP.Json.Int persons);
      ("snapshot_bytes", GP.Json.Int bytes);
      ("load_ms", GP.Json.Float ms);
      ("load_minor_words", GP.Json.Float minor);
      ("retained_words_per_snapshot", GP.Json.Float retained);
    ];
  Printf.printf "  input: %d persons, %.1f MB snapshot file\n" persons
    (float_of_int bytes /. 1048576.0);
  Printf.printf "  Snapshot_io.load: %.2f ms, %.0f minor words\n" ms minor;
  Printf.printf "  heap words retained per loaded snapshot (after Gc.full_major): %.0f\n%!"
    retained

(* ------------------------------------------------------------------ *)
(* E7b — per-mode cost breakdown on a fixed workload                    *)

let rule_breakdown () =
  section "E7b: validation cost by mode (indexed engine)";
  let sch = GP.Social.schema () in
  let persons = if fast then 200 else 2000 in
  let g = GP.Social.generate ~persons () in
  Printf.printf "  workload: %d persons (%d nodes, %d edges)\n" persons
    (GP.Property_graph.node_count g)
    (GP.Property_graph.edge_count g);
  List.iter
    (fun (name, mode) ->
      let ms = time_ms (fun () -> GP.Validate.check ~mode sch g) in
      Printf.printf "  %-12s %10.2f ms\n%!" name ms)
    [
      ("weak", GP.Validate.Weak);
      ("directives", GP.Validate.Directives);
      ("strong", GP.Validate.Strong);
    ]

(* ------------------------------------------------------------------ *)
(* E8 — Example 6.1: satisfiability verdicts and timing                 *)

let example_6_1 () =
  section "E8: Example 6.1 — object-type satisfiability";
  let schemas =
    [
      ( "(a)",
        {|
type OT1 {
}
interface IT { hasOT1: OT1 @uniqueForTarget }
type OT2 implements IT { hasOT1: [OT1] @requiredForTarget }
type OT3 implements IT { hasOT1: [OT1] @requiredForTarget }
|}
      );
      ( "(b)",
        {|
interface IT { f: OT1 @uniqueForTarget }
type OT2 implements IT { f: OT1! @required }
type OT3 implements IT { f: OT1! @required }
type OT1 { g: OT3! @required @uniqueForTarget }
|}
      );
      ( "(c)",
        {|
type OT1 {
}
interface IT { f: OT1 @uniqueForTarget }
type OT2 implements IT { f: OT1! @required }
type OT3 implements IT { f: [OT1] @requiredForTarget }
|}
      );
    ]
  in
  Printf.printf "  %-4s %-4s %-16s %-16s %10s\n" "diag" "type" "ALCQI (paper)" "finite PG"
    "time (ms)";
  List.iter
    (fun (name, text) ->
      match GP.Of_ast.parse_lenient text with
      | Error msg -> Printf.printf "  %s: parse error: %s\n" name msg
      | Ok sch ->
        List.iter
          (fun ot ->
            let ms = time_ms (fun () -> GP.Satisfiability.check ~max_nodes:8 sch ot) in
            let r = GP.Satisfiability.check ~max_nodes:8 sch ot in
            Printf.printf "  %-4s %-4s %-16s %-16s %10.2f\n%!" name ot
              (Format.asprintf "%a" GP.Tableau.pp_verdict r.GP.Satisfiability.alcqi)
              (Format.asprintf "%a" GP.Tableau.pp_verdict r.GP.Satisfiability.finite)
              ms)
          (GP.Schema.object_names sch))
    schemas;
  Printf.printf
    "  note: (b)/OT2 shows the finite-model gap in the paper's Theorem 3 proof\n"

(* ------------------------------------------------------------------ *)
(* E9 — Theorem 2: satisfiability on SAT reductions vs DPLL             *)

let sat_reduction_scaling () =
  section "E9: Theorem 2 — reduction instances, tableau+finite engines vs DPLL";
  Printf.printf "  %-6s %-8s %-8s %-7s %-7s %12s %12s\n" "vars" "clauses" "|schema|" "dpll"
    "gpgs" "dpll (ms)" "gpgs (ms)";
  let var_counts = if fast then [ 2; 4 ] else [ 2; 3; 4; 5; 6; 8; 10 ] in
  List.iter
    (fun num_vars ->
      let num_clauses = max 1 (int_of_float (2.5 *. float_of_int num_vars)) in
      let f = GP.Ksat.random ~seed:11 ~num_vars ~num_clauses ~clause_size:3 () in
      match GP.Reduction.to_schema f with
      | Error msg -> Printf.printf "  reduction error: %s\n" msg
      | Ok sch ->
        let dpll_ms = time_ms (fun () -> GP.Dpll.satisfiable f) in
        let gpgs_ms =
          time_ms ~repeat:1 (fun () ->
              GP.Satisfiability.check ~max_nodes:32 sch GP.Reduction.ot_name)
        in
        let report = GP.Satisfiability.check ~max_nodes:32 sch GP.Reduction.ot_name in
        let verdict = function
          | GP.Tableau.Satisfiable -> "sat"
          | GP.Tableau.Unsatisfiable -> "unsat"
          | GP.Tableau.Unknown _ -> "?"
        in
        Printf.printf "  %-6d %-8d %-8d %-7s %-7s %12.3f %12.2f\n%!" num_vars num_clauses
          (GP.Schema.size sch)
          (if GP.Dpll.satisfiable f then "sat" else "unsat")
          (verdict report.GP.Satisfiability.finite)
          dpll_ms gpgs_ms)
    var_counts;
  Printf.printf "  (schema size grows polynomially; solving time grows exponentially)\n"

(* ------------------------------------------------------------------ *)
(* E10 — Theorem 3: size of the ALCQI translation                       *)

let alcqi_translation () =
  section "E10: Theorem 3 — schema size vs ALCQI TBox size (polynomial)";
  let cases =
    [
      ( "quickstart (Ex. 3.1)",
        GP.schema_of_string_exn
          {|
type UserSession { id: ID! @required user: User! @required startTime: Time! @required endTime: Time }
type User @key(fields: ["id"]) { id: ID! @required login: String! @required nicknames: [String!]! }
scalar Time
|}
      );
      ( "library (Ex. 3.6-3.8)",
        GP.schema_of_string_exn
          {|
type Author { favoriteBook: Book relatedAuthor: [Author] @distinct @noLoops }
type Book { title: String! author: [Author] @required @distinct }
type BookSeries { contains: [Book] @required @uniqueForTarget }
type Publisher { published: [Book] @uniqueForTarget @requiredForTarget }
|}
      );
      ("social", GP.Social.schema ());
    ]
  in
  Printf.printf "  %-24s %10s %10s %8s\n" "schema" "|schema|" "|TBox|" "ratio";
  List.iter
    (fun (name, sch) ->
      let s, t = GP.Translate.translation_size sch in
      Printf.printf "  %-24s %10d %10d %8.2f\n" name s t (float_of_int t /. float_of_int s))
    cases;
  (* reductions of growing size *)
  List.iter
    (fun num_vars ->
      let f =
        GP.Ksat.random ~seed:3 ~num_vars ~num_clauses:(2 * num_vars) ~clause_size:3 ()
      in
      match GP.Reduction.to_schema f with
      | Ok sch ->
        let s, t = GP.Translate.translation_size sch in
        Printf.printf "  %-24s %10d %10d %8.2f\n"
          (Printf.sprintf "reduction (%d vars)" num_vars)
          s t
          (float_of_int t /. float_of_int s)
      | Error _ -> ())
    (if fast then [ 4 ] else [ 4; 8; 16; 32 ])

(* ------------------------------------------------------------------ *)
(* E11 — Angles baseline coverage                                       *)

let angles_coverage () =
  section "E11: Angles-2018 baseline — constraint coverage of SDL schemas";
  Printf.printf "  %-24s %12s %10s\n" "schema" "expressed" "dropped";
  List.iter
    (fun (name, sch) ->
      let e, d = GP.Angles_of_graphql.coverage sch in
      Printf.printf "  %-24s %12d %10d\n" name e d)
    [
      ("social", GP.Social.schema ());
      ( "library (Ex. 3.6-3.8)",
        GP.schema_of_string_exn
          {|
type Author { favoriteBook: Book relatedAuthor: [Author] @distinct @noLoops }
type Book { title: String! author: [Author] @required @distinct }
type BookSeries { contains: [Book] @required @uniqueForTarget }
type Publisher { published: [Book] @uniqueForTarget @requiredForTarget }
|}
      );
    ];
  let _, dropped = GP.Angles_of_graphql.translate (GP.Social.schema ()) in
  List.iter
    (fun (d : GP.Angles_of_graphql.dropped) ->
      Printf.printf "    dropped: %s (%s)\n" d.GP.Angles_of_graphql.construct
        d.GP.Angles_of_graphql.reason)
    dropped

(* ------------------------------------------------------------------ *)
(* E6 — parser throughput                                               *)

let parser_throughput () =
  section "E6: SDL front end throughput";
  let social = GP.Social.schema_text in
  let big =
    String.concat "\n"
      (List.init 50 (fun i ->
           Printf.sprintf
             "type T%d @key(fields: [\"id\"]) { id: ID! @required r%d: [T%d] @distinct }" i i
             ((i + 1) mod 50)))
  in
  List.iter
    (fun (name, text) ->
      let ms = time_ms ~repeat:5 (fun () -> GP.Sdl.Parser.parse text) in
      let bytes = String.length text in
      Printf.printf "  %-14s %8d bytes  %8.3f ms  %8.1f MB/s\n" name bytes ms
        (float_of_int bytes /. 1048576.0 /. (ms /. 1000.0)))
    [ ("social", social); ("synthetic-50", big) ]

(* ------------------------------------------------------------------ *)
(* E13 — ablation: incremental vs. full revalidation on update streams   *)

let incremental_ablation () =
  section "E13 (extension): incremental validation vs full revalidation per update";
  let sch = GP.Social.schema () in
  Printf.printf "  %-8s %-8s %18s %18s %10s\n" "persons" "nodes" "full/update (ms)"
    "incr/update (ms)" "speedup";
  List.iter
    (fun persons ->
      let g = GP.Social.generate ~persons () in
      let nodes = Array.of_list (GP.Property_graph.nodes g) in
      let updates = 20 in
      (* the update: toggle a property on a rotating node *)
      let full_ms =
        time_ms ~repeat:1 (fun () ->
            let g = ref g in
            for i = 0 to updates - 1 do
              let v = nodes.(i * 17 mod Array.length nodes) in
              g := GP.Property_graph.set_node_prop !g v "benchProp" (GP.Value.Int i);
              ignore (GP.Validate.check ~engine:GP.Validate.Indexed sch !g)
            done)
        /. float_of_int updates
      in
      let incr_ms =
        time_ms ~repeat:1 (fun () ->
            let t = ref (GP.Incremental.create sch g) in
            for i = 0 to updates - 1 do
              let v = nodes.(i * 17 mod Array.length nodes) in
              t := GP.Incremental.set_node_prop !t v "benchProp" (GP.Value.Int i)
            done)
        /. float_of_int updates
      in
      Printf.printf "  %-8d %-8d %18.3f %18.3f %9.0fx\n%!" persons
        (GP.Property_graph.node_count g) full_ms incr_ms (full_ms /. incr_ms))
    (if fast then [ 100; 500 ] else [ 100; 500; 2000; 8000 ]);
  Printf.printf
    "  (the touched region per update is small; the residual growth comes from the\n\
    \   per-type key scan of DS7 — see lib/validation/incremental.mli)\n"

(* ------------------------------------------------------------------ *)
(* E14 — the GraphQL query engine (Section 3.6 extension) on the social
   workload                                                              *)

let query_engine () =
  section "E14 (extension): GraphQL query execution over the social workload";
  let sch = GP.Social.schema () in
  let queries =
    [
      ("flat scan", "{ allCity { name population } }");
      ("one-hop", "{ allForum { title moderator { name } } }");
      ( "two-hop + filter",
        "{ allForum { title containerOf { id author { name livesIn { name } } } } }" );
      ( "inverse + union",
        "{ allPost { id _inverse_likes_of_person { name } } }" );
    ]
  in
  Printf.printf "  %-18s %12s %12s\n" "query" "persons=200" "persons=1000";
  let graphs =
    List.map (fun p -> GP.Social.generate ~persons:p ()) (if fast then [ 50; 100 ] else [ 200; 1000 ])
  in
  List.iter
    (fun (name, q) ->
      let times =
        List.map
          (fun g ->
            time_ms (fun () ->
                match GP.query sch g q with
                | Ok _ -> ()
                | Error msg -> failwith msg))
          graphs
      in
      match times with
      | [ t1; t2 ] -> Printf.printf "  %-18s %9.2f ms %9.2f ms\n%!" name t1 t2
      | _ -> ())
    queries

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per experiment               *)

let bechamel_tests () =
  let sch = GP.Social.schema () in
  let g300 = GP.Social.generate ~persons:300 () in
  let g60 = GP.Social.generate ~persons:60 () in
  let schema_text = GP.Social.schema_text in
  let f = GP.Cnf.paper_example in
  let reduction_schema =
    match GP.Reduction.to_schema f with Ok s -> s | Error m -> failwith m
  in
  let example_b =
    match
      GP.Of_ast.parse_lenient
        {|
interface IT { f: OT1 @uniqueForTarget }
type OT2 implements IT { f: OT1! @required }
type OT3 implements IT { f: OT1! @required }
type OT1 { g: OT3! @required @uniqueForTarget }
|}
    with
    | Ok s -> s
    | Error m -> failwith m
  in
  Test.make_grouped ~name:"graphql_pg"
    [
      (* E6 *)
      Test.make ~name:"e6_parse_social_schema"
        (Staged.stage (fun () -> GP.Sdl.Parser.parse schema_text));
      (* E7 *)
      Test.make ~name:"e7_validate_indexed_300"
        (Staged.stage (fun () -> GP.Validate.check ~engine:GP.Validate.Indexed sch g300));
      Test.make ~name:"e7_validate_naive_60"
        (Staged.stage (fun () -> GP.Validate.check ~engine:GP.Validate.Naive sch g60));
      (* E15 *)
      Test.make ~name:"e15_validate_parallel_300"
        (Staged.stage (fun () -> GP.Validate.check ~engine:GP.Validate.Parallel sch g300));
      (* E16 *)
      Test.make ~name:"e16_validate_compiled_indexed_300"
        (Staged.stage
           (let plan = GP.Validate.compile sch in
            fun () -> GP.Validate.check_compiled ~engine:GP.Validate.Indexed plan g300));
      Test.make ~name:"e16_validate_compiled_linear_300"
        (Staged.stage
           (let plan = GP.Validate.compile sch in
            fun () -> GP.Validate.check_compiled ~engine:GP.Validate.Linear plan g300));
      Test.make ~name:"e16_snapshot_build_300"
        (Staged.stage
           (let plan = GP.Validate.compile sch in
            fun () -> GP.Snapshot.build (GP.Plan.symtab plan) g300));
      (* E3 *)
      Test.make ~name:"e3_cardinality_probe"
        (Staged.stage
           (let s =
              GP.schema_of_string_exn "type A { rel: B @uniqueForTarget }\ntype B {\n}"
            in
            let g, a = GP.Property_graph.add_node GP.Property_graph.empty ~label:"A" () in
            let g, b = GP.Property_graph.add_node g ~label:"B" () in
            let g, _ = GP.Property_graph.add_edge g ~label:"rel" a b in
            fun () -> GP.conforms s g));
      (* E8 *)
      Test.make ~name:"e8_example_b_satisfiability"
        (Staged.stage (fun () -> GP.Satisfiability.check ~max_nodes:8 example_b "OT2"));
      (* E9 *)
      Test.make ~name:"e9_reduction_paper_formula"
        (Staged.stage (fun () ->
             GP.Satisfiability.check ~max_nodes:16 reduction_schema GP.Reduction.ot_name));
      (* E10 *)
      Test.make ~name:"e10_translate_social" (Staged.stage (fun () -> GP.Translate.tbox sch));
      (* E11 *)
      Test.make ~name:"e11_angles_translate"
        (Staged.stage (fun () -> GP.Angles_of_graphql.translate sch));
      (* E13 *)
      Test.make ~name:"e13_incremental_update"
        (Staged.stage
           (let t0 = GP.Incremental.create sch g300 in
            let v = List.hd (GP.Property_graph.nodes g300) in
            fun () -> GP.Incremental.set_node_prop t0 v "benchProp" (GP.Value.Int 1)));
      (* E14 *)
      Test.make ~name:"e14_query_one_hop"
        (Staged.stage (fun () ->
             GP.query sch g300 "{ allForum { title moderator { name } } }"));
    ]

let run_bechamel () =
  section "Bechamel micro-benchmarks (ns per run, OLS on monotonic clock)";
  let cfg =
    Benchmark.cfg ~limit:1000
      ~quota:(Time.second (if fast then 0.05 else 0.25))
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] (bechamel_tests ()) in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let estimate =
          match Analyze.OLS.estimates ols with Some [ e ] -> e | _ -> nan
        in
        (name, estimate) :: acc)
      results []
    |> List.sort compare
  in
  List.iter
    (fun (name, ns) ->
      if Float.is_nan ns then Printf.printf "  %-42s %14s\n" name "n/a"
      else Printf.printf "  %-42s %11.0f ns  (%.3f ms)\n" name ns (ns /. 1e6))
    rows

(* BENCH_ONLY=E18 (comma-separated experiment tags) runs a subset —
   e.g. the CI smoke step measures just the snapshot-reopen experiment
   at full scale without paying for the naive-engine series. *)
let experiments =
  [
    ("E3", cardinality_table);
    ("E7", validation_scaling);
    ("E15", parallel_scaling);
    ("E16", compiled_pipeline);
    ("E17", streaming_ingestion);
    ("E18", snapshot_reopen);
    ("E19", sharded_scaling);
    ("E20", serve_storm);
    ("E21", frontend_compile);
    ("E22", columnar_ingest);
    ("E23", snapshot_pools);
    ("E7b", rule_breakdown);
    ("E8", example_6_1);
    ("E9", sat_reduction_scaling);
    ("E10", alcqi_translation);
    ("E11", angles_coverage);
    ("E13", incremental_ablation);
    ("E14", query_engine);
    ("E6", parser_throughput);
    ("bechamel", run_bechamel);
  ]

let () =
  Printf.printf "graphql_pg benchmark harness%s\n" (if fast then " (fast mode)" else "");
  let selected =
    match Sys.getenv_opt "BENCH_ONLY" with
    | None | Some "" -> None
    | Some spec -> Some (String.split_on_char ',' spec |> List.map String.trim)
  in
  List.iter
    (fun (tag, f) ->
      match selected with
      | Some tags when not (List.mem tag tags) -> ()
      | _ -> f ())
    experiments;
  write_artifacts ();
  Printf.printf "\ndone.\n"
