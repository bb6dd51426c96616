(* gpgs_bench: the repository benchmark (see README.md).

   run      the end-to-end metrics, tracing off: the built gpgs as a
            separate process on seeded inputs, every output checked
   trace    the per-layer metrics from an in-process traced replay of
            the same inputs (= run --trace 1)
   compare  two result files, judged against BENCHMARK.json

   The last line [run] prints is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}. *)

open Util
open Cmdliner

type spec = {
  e2e : (string * string) list;
  layers : (string * string) list;
  run_seconds : float;
}

(* The metric names and units BENCHMARK.json declares, and its run
   length; a run that emits a different metric set is an error, so the
   two cannot drift apart. *)
let spec_of path =
  let json = read_json path in
  let metrics key =
    match Json.member key json with
    | Json.List l ->
      List.map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Json.String n, Json.String u -> (n, u)
          | _ -> failwith (path ^ ": a metric without name or unit"))
        l
    | _ -> failwith (path ^ ": no " ^ key ^ " list")
  in
  match json_num (Json.member "run_seconds" json) with
  | Some run_seconds -> { e2e = metrics "end_to_end"; layers = metrics "per_layer"; run_seconds }
  | None -> failwith (path ^ ": no run_seconds")

(* Results accumulate in DIR/runs.json, one record per run, in the order
   run; [compare] pairs the i-th records of its two files. *)
let append_record out record =
  let path = Filename.concat out "runs.json" in
  let prior =
    if Sys.file_exists path then
      match Json.member "runs" (read_json path) with Json.List l -> l | _ -> []
    else []
  in
  write_json path (Json.Assoc [ ("runs", Json.List (prior @ [ record ])) ])

type measured = {
  metrics : (string * float * string) list;
  timings : Drive.timing list;
  attempted : int;
  failed : int;
  extra : (string * Json.t) list;
}

let measure ~quick ~seed ~seconds ~trace ~gpgs ~out ~work workload =
  let dir = Filename.concat work (Inputs.name workload) in
  mkdir_p dir;
  let inp = Inputs.generate ~quick ~seed ~seconds ~dir workload in
  let with_units units vals = List.map (fun (k, v) -> (k, v, List.assoc k units)) vals in
  if not trace then begin
    let r = Drive.run ~gpgs ~work:dir ~seconds inp in
    {
      metrics = with_units Drive.metric_units r.Drive.metrics;
      timings = r.Drive.timings;
      attempted = r.Drive.attempted;
      failed = r.Drive.failed;
      extra = [ ("detail", Json.Assoc r.Drive.detail) ];
    }
  end
  else begin
    Drive.prepare ~gpgs inp;
    let served () =
      Drive.run ~gpgs ~work:dir ~seconds:(Float.max 1. (seconds /. 5.)) ~starts:1 inp
    in
    let r = Replay.run ~gpgs ~work:dir ~budget_s:(0.6 *. seconds) ~served inp in
    let file = Printf.sprintf "trace-%s-s%d.json" (Inputs.name workload) seed in
    write_json (Filename.concat out file) r.Replay.trace;
    Replay.print_table ~workload:(Inputs.name workload) r.Replay.table;
    {
      metrics = with_units Replay.layer_units r.Replay.metrics;
      timings = [];
      attempted = r.Replay.attempted;
      failed = r.Replay.failed;
      extra = [ ("layers", Json.List r.Replay.table); ("chrome_trace", Json.String file) ];
    }
  end

(* Every declared metric emitted, with its unit, and nothing else. *)
let conforms ~workload declared (m : measured) =
  let emitted = List.map (fun (k, _, u) -> (k, u)) m.metrics in
  let missing = List.filter (fun d -> not (List.mem d emitted)) declared in
  let undeclared = List.filter (fun e -> not (List.mem e declared)) emitted in
  List.iter
    (fun (k, u) -> Printf.eprintf "gpgs_bench: %s: %s (%s) declared but not emitted\n" workload k u)
    missing;
  List.iter
    (fun (k, u) -> Printf.eprintf "gpgs_bench: %s: %s (%s) emitted but not declared\n" workload k u)
    undeclared;
  missing = [] && undeclared = []

let metric_json (k, v, u) = (k, Json.Assoc [ ("value", Json.Float v); ("unit", Json.String u) ])

let timing_json (t : Drive.timing) =
  ( t.name,
    Json.Assoc
      [ ("value", Json.Float t.value); ("unit", Json.String t.unit_); ("better", Json.String t.better) ]
  )

let benchmark_arg =
  Arg.(
    value & opt string "BENCHMARK.json"
    & info [ "benchmark" ] ~docv:"PATH" ~doc:"The benchmark definition (metrics, units, bounds).")

let run_cmd ~trace_default =
  let go workloads seed seconds trace quick gpgs benchmark out =
    let trace = Option.value trace ~default:trace_default in
    let spec = if Sys.file_exists benchmark then Some (spec_of benchmark) else None in
    let seconds =
      match (seconds, spec) with
      | Some s, _ -> s
      | None, _ when quick -> 1.
      | None, Some spec -> spec.run_seconds
      | None, None -> failwith (benchmark ^ ": not found; pass --seconds")
    in
    let workloads = if workloads = [] then Inputs.all else workloads in
    if not (Sys.file_exists gpgs) then failwith (gpgs ^ ": no gpgs binary (build it first)");
    mkdir_p out;
    let work = Filename.concat out (Printf.sprintf "work-%d" (Unix.getpid ())) in
    let oracle = Inputs.oracle_agrees ~seed in
    if not oracle then
      prerr_endline "gpgs_bench: the Indexed references disagree with the Naive oracle";
    let results =
      Fun.protect
        ~finally:(fun () -> rm_rf work)
        (fun () ->
          List.map
            (fun w ->
              let name = Inputs.name w in
              let m =
                (* a workload that cannot finish still gets its record,
                   marked incorrect, and the next one runs *)
                try measure ~quick ~seed ~seconds ~trace ~gpgs ~out ~work w
                with e ->
                  let msg = Printexc.to_string e in
                  Printf.eprintf "gpgs_bench: %s: %s\n%!" name msg;
                  {
                    metrics = [];
                    timings = [];
                    attempted = 1;
                    failed = 1;
                    extra = [ ("error", Json.String msg) ];
                  }
              in
              List.iter
                (fun (k, v, u) -> Printf.printf "%s %s %.6g %s\n%!" name k v u)
                (m.metrics @ List.map (fun (t : Drive.timing) -> (t.name, t.value, t.unit_)) m.timings);
              let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) m.metrics in
              if not finite then Printf.eprintf "gpgs_bench: %s: a metric was not measured\n" name;
              let declared =
                Option.map (fun s -> if trace then s.layers else s.e2e) spec
              in
              let ok =
                oracle && m.failed = 0 && finite
                && Option.fold ~none:true ~some:(fun d -> conforms ~workload:name d m) declared
              in
              append_record out
                (Json.Assoc
                   ([
                      ("kind", Json.String (if trace then "trace" else "run"));
                      ("workload", Json.String name);
                      ("seconds", Json.Float seconds);
                      ("quick", Json.Bool quick);
                      ("host", host ~seed);
                      ("correct", Json.Bool ok);
                      ("attempted", Json.Int m.attempted);
                      ("failed", Json.Int m.failed);
                      ("metrics", Json.Assoc (List.map metric_json m.metrics));
                      ("timings", Json.Assoc (List.map timing_json m.timings));
                    ]
                   @ m.extra));
              (name, ok, m))
            workloads)
    in
    let correct = List.for_all (fun (_, ok, _) -> ok) results in
    let attempted = List.fold_left (fun a (_, _, m) -> a + m.attempted) 0 results in
    let failed = List.fold_left (fun a (_, _, m) -> a + m.failed) 0 results in
    let metrics =
      match results with
      | [ (_, _, m) ] -> List.map metric_json m.metrics
      | _ ->
        List.concat_map
          (fun (name, _, m) ->
            List.map (fun (k, v, u) -> metric_json (name ^ "/" ^ k, v, u)) m.metrics)
          results
    in
    print_endline
      (Json.to_string
         (Json.Assoc
            [
              ("correct", Json.Bool correct);
              ("attempted", Json.Int attempted);
              ("failed", Json.Int failed);
              ("metrics", Json.Assoc metrics);
            ]));
    if correct then 0 else 1
  in
  let workloads =
    Arg.(
      value
      & opt_all (enum (List.map (fun w -> (Inputs.name w, w)) Inputs.all)) []
      & info [ "workload" ] ~docv:"NAME"
          ~doc:"A workload to run (repeatable; default: all four in order).")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Seed of every generated input.")
  in
  let seconds =
    Arg.(
      value
      & opt (some float) None
      & info [ "seconds" ] ~docv:"S"
          ~doc:
            "Measured seconds per workload (default: BENCHMARK.json's run_seconds; 1 with \
             --quick).")
  in
  let trace =
    Arg.(
      value
      & opt (some (enum [ ("0", false); ("1", true) ])) None
      & info [ "trace" ] ~docv:"0|1" ~doc:"1: the traced replay and its per-layer metrics.")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Smoke run: inputs a tenth of their size, 1 s each.")
  in
  let gpgs =
    Arg.(
      value
      & opt string "_build/default/bin/gpgs.exe"
      & info [ "gpgs" ] ~docv:"PATH" ~doc:"The gpgs binary under test.")
  in
  let out =
    Arg.(
      value & opt string "_gpgs_bench"
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Where runs.json accumulates run records and traces are written.")
  in
  Term.(const go $ workloads $ seed $ seconds $ trace $ quick $ gpgs $ benchmark_arg $ out)

let compare_cmd =
  let go benchmark base next = Compare.run ~benchmark base next in
  let file n doc = Arg.(required & pos n (some string) None & info [] ~docv:doc) in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare the runs of a parent (BASE) and a change (NEW).")
    Term.(const go $ benchmark_arg $ file 0 "BASE" $ file 1 "NEW")

let () =
  (* a server that dies mid-run must show as EPIPE on the next write, a
     failed request, not as a signal that kills the benchmark *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let cmds =
    [
      Cmd.v
        (Cmd.info "run" ~doc:"Run workloads and print every end-to-end metric.")
        (run_cmd ~trace_default:false);
      Cmd.v
        (Cmd.info "trace" ~doc:"Traced replay: print the per-layer metrics and layer tables.")
        (run_cmd ~trace_default:true);
      compare_cmd;
    ]
  in
  exit (Cmd.eval' (Cmd.group (Cmd.info "gpgs_bench" ~doc:"The gpgs repository benchmark.") cmds))
