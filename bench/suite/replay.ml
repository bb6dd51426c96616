(* The traced run: each workload's generated inputs replayed in-process,
   single-threaded, through the same public layer functions, in the same
   order, as [Service.run_validate] and the validate subcommand call
   them.  A span (name, start, end, parent, request id, GC word deltas)
   is recorded around every call and kept in memory.

   A pass replays what one run of the workload does from cold: its
   set-up ([gpgs snapshot build] of its snapshots, then a warm phase
   filling a pass-local plan and snapshot cache, as the server's caches
   fill) and one cycle of each connection's request sequence.  One-shot
   requests share nothing, so each compiles its own schema.  Each
   indexed check is followed by its kernel breakdown, outside the
   request.  Traced passes alternate with untraced ones running the
   identical calls; the wall-time difference is the tracer's
   overhead. *)

open Util
module K = Pg_validation.Kernels
module Snapshot = GP.Snapshot

(* ---- the tracer ---- *)

type span = {
  id : int;
  parent : int;  (** -1 for a request's root span *)
  name : string;
  rid : int;
  pass : int;
  t0 : int64;
  t1 : int64;
  minor : float;
      (** words allocated on the minor heap: [Gc.minor_words] deltas
          ([Gc.quick_stat]'s minor count only moves at minor
          collections) *)
  major : float;
      (** [Gc.quick_stat] major-word deltas: direct major allocations
          plus promotions.  OCaml 5 updates these counters only at
          collections, so they land in the span where one ran and do not
          repeat exactly from run to run; they are in the layer table and
          the trace, not among the metrics *)
}

type tracer = {
  mutable on : bool;
  mutable next : int;
  mutable stack : int list;
  mutable rid : int;
  mutable pass : int;
  mutable spans : span list;
  counts : (string, float) Hashtbl.t;  (** per-pass work counts *)
}

let tracer () =
  { on = false; next = 0; stack = []; rid = 0; pass = 0; spans = []; counts = Hashtbl.create 16 }

let span tr name f =
  if not tr.on then f ()
  else begin
    let id = tr.next in
    tr.next <- id + 1;
    let parent = match tr.stack with p :: _ -> p | [] -> -1 in
    tr.stack <- id :: tr.stack;
    let w0 = Gc.minor_words () and j0 = (Gc.quick_stat ()).Gc.major_words in
    let t0 = now_ns () in
    let finish () =
      let t1 = now_ns () in
      let w1 = Gc.minor_words () and j1 = (Gc.quick_stat ()).Gc.major_words in
      tr.stack <- List.tl tr.stack;
      tr.spans <-
        {
          id;
          parent;
          name;
          rid = tr.rid;
          pass = tr.pass;
          t0;
          t1;
          minor = w1 -. w0;
          major = j1 -. j0;
        }
        :: tr.spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let count tr key n =
  Hashtbl.replace tr.counts key (n +. Option.value (Hashtbl.find_opt tr.counts key) ~default:0.)

(* Root spans: one per request, per kernel breakdown, and per set-up
   step. *)
let root_kinds = [ "request"; "breakdown"; "warm"; "prep" ]

let root tr kind f =
  tr.rid <- tr.rid + 1;
  span tr kind f

(* ---- the layers, called as the program calls them ---- *)

let ok what = function Ok v -> v | Error _ -> failwith (what ^ " failed in the replay")

let frontend tr path =
  let lang = GP.Frontend.select ~path () in
  span tr
    ("frontend." ^ match lang with GP.Frontend.Sdl -> "sdl" | GP.Frontend.Pgschema -> "pgs")
    (fun () -> fst (ok path (GP.Frontend.parse_full lang (read_file path))))

let compile tr sch =
  let plan = span tr "plan.compile" (fun () -> GP.Plan.of_schema sch) in
  count tr "plan.symbols" (float_of_int (GP.Symtab.size (GP.Plan.symtab plan)));
  plan

let pgf_load tr path =
  count tr "pgf.bytes" (float_of_int (file_size path));
  span tr "pgf.load" (fun () -> ok path (GP.Pgf.load path))

let build tr symtab g = span tr "snapshot.build" (fun () -> Snapshot.build symtab g)
let snap_load tr plan path =
  span tr "snapshot_io.load" (fun () -> ok path (GP.Snapshot_io.load (GP.Plan.symtab plan) path))

(* The library's indexed check, as the server and the CLI call it. *)
let indexed_check tr plan snap =
  span tr "indexed.check" (fun () ->
      GP.Validate.check_snapshot ~engine:GP.Validate.Indexed ~mode:GP.Validate.Strong plan snap)

(* The per-kernel breakdown of one indexed check, a root of its own run
   after the request: every [Kernels] rule over its full universe in
   [Indexed.check]'s order, then [Violation.normalize], each timed.  It
   repeats the engine's calls rather than timing them inside it, so it
   gives the kernel and normalize figures only; the request's time and
   report come from [indexed_check]. *)
let kernels =
  let nodes k ctx acc = k ctx ~lo:0 ~hi:ctx.K.snap.Snapshot.n acc in
  let edges k ctx acc = k ctx ~lo:0 ~hi:ctx.K.snap.Snapshot.m acc in
  [
    ("ws1", nodes K.ws1);
    ("ws2", edges K.ws2);
    ("ws3", edges K.ws3);
    ("ws4", nodes K.ws4);
    ("ds1", nodes K.ds1);
    ("ds2", nodes K.ds2);
    ("ds3", nodes K.ds3);
    ("ds4", nodes K.ds4);
    ("ds56", nodes K.ds56);
    ("ds7", K.ds7_all);
    ("ss1", nodes K.ss1);
    ("ss2", nodes K.ss2);
    ("ss3", edges K.ss3);
    ("ss4", edges K.ss4);
  ]

let breakdown tr plan snap =
  root tr "breakdown" (fun () ->
      let ctx = K.ctx_of_snap plan snap in
      let raw =
        List.fold_left
          (fun acc (name, k) -> span tr ("kernels." ^ name) (fun () -> k ctx acc))
          [] kernels
      in
      count tr "violation.raw" (float_of_int (List.length raw));
      let kept = span tr "violation.normalize" (fun () -> GP.Violation.normalize raw) in
      count tr "violation.kept" (float_of_int (List.length kept)))

let sharded_check tr plan ~shards path =
  let md =
    span tr "snapshot_io.open_mapped" (fun () ->
        ok path (GP.Snapshot_io.open_mapped (GP.Plan.symtab plan) path))
  in
  let report =
    span tr "shard_stream.check" (fun () ->
        ok path (GP.Validate.check_mapped ~mode:GP.Validate.Strong ~shards plan md))
  in
  span tr "snapshot_io.close" (fun () -> GP.Snapshot_io.close_mapped md);
  report

let render tr ~served report =
  let diags, summary =
    span tr "validate.diagnostics" (fun () ->
        (GP.Validate.diagnostics report, GP.Diag_report.validate_summary report))
  in
  let env =
    span tr "diag_report.envelope" (fun () ->
        GP.Diag_report.envelope ~command:"validate" ~summary diags)
  in
  let text =
    span tr "render" (fun () ->
        if served then Pg_server.Protocol.render env else GP.Diag_report.to_string env)
  in
  count tr "render.bytes" (float_of_int (String.length text));
  (env, text)

(* ---- one pass ---- *)

let verify tally (op : Inputs.op) ~served (env, text) =
  tally.Drive.attempted <- tally.Drive.attempted + 1;
  if not (Json.equal env op.expected && ((not served) || String.equal text op.wire)) then
    Drive.fail tally "replay of %s differs from the reference" op.label

let snapshot_build tr ~work (pgf, snap) =
  root tr "prep" (fun () ->
      let g = pgf_load tr pgf in
      let st = GP.Symtab.create () in
      let s = build tr st g in
      let out = Filename.concat work (Filename.basename snap ^ ".replay") in
      span tr "snapshot_io.write" (fun () -> ok out (GP.Snapshot_io.write st s out)))

(* One request: its spans under a "request" root, its output checked,
   then the kernel breakdown of the snapshot it checked with the indexed
   engine, if any. *)
let request tr tally (op : Inputs.op) ~served f =
  let checked = ref None in
  let indexed plan snap =
    checked := Some (plan, snap);
    indexed_check tr plan snap
  in
  let out = root tr "request" (fun () -> render tr ~served (f indexed)) in
  verify tally op ~served out;
  Option.iter (fun (plan, snap) -> breakdown tr plan snap) !checked

(* [gpgs validate --format json], as bin/gpgs.ml sequences it. *)
let cli_request tr tally (op : Inputs.op) =
  request tr tally op ~served:false (fun indexed ->
      let sch = frontend tr op.schema in
      match op.graph with
      | Inputs.Text p ->
        let g = pgf_load tr p in
        let plan = compile tr sch in
        indexed plan (build tr (GP.Plan.symtab plan) g)
      | Inputs.Snap p ->
        let plan = compile tr sch in
        indexed plan (snap_load tr plan p))

(* A served validate request, as [Service.run_validate] sequences it,
   over the pass-local caches the warm phase filled. *)
let served_request tr tally ~plans ~snaps (op : Inputs.op) =
  request tr tally op ~served:true (fun indexed ->
      let plan = Hashtbl.find plans op.schema in
      match (op.graph, op.engine) with
      | Inputs.Text p, _ ->
        let g = pgf_load tr p in
        indexed plan (build tr (GP.Plan.symtab plan) g)
      | Inputs.Snap p, Inputs.Sharded shards -> sharded_check tr plan ~shards p
      | Inputs.Snap p, Inputs.Indexed -> indexed plan (Hashtbl.find snaps p))

let pass tr tally ~work (inp : Inputs.t) =
  let cycle = Array.concat (Array.to_list inp.sequences) in
  List.iter (snapshot_build tr ~work) inp.prep;
  match inp.workload with
  | Inputs.Cli_oneshot -> Array.iter (fun i -> cli_request tr tally inp.ops.(i)) cycle
  | _ ->
    let plans = Hashtbl.create 4 and snaps = Hashtbl.create 8 in
    root tr "warm" (fun () ->
        Array.iter
          (fun (op : Inputs.op) ->
            if not (Hashtbl.mem plans op.schema) then
              Hashtbl.replace plans op.schema (compile tr (frontend tr op.schema));
            match (op.graph, op.engine) with
            | Inputs.Snap p, Inputs.Indexed when not (Hashtbl.mem snaps p) ->
              Hashtbl.replace snaps p (snap_load tr (Hashtbl.find plans op.schema) p)
            | _ -> ())
          inp.ops);
    Array.iter (fun i -> served_request tr tally ~plans ~snaps inp.ops.(i)) cycle

(* ---- per-pass aggregation ---- *)

type pass_stats = {
  wall_ms : float;
  incl : (string, float) Hashtbl.t;  (** inclusive ms per span name *)
  self : (string, float) Hashtbl.t;  (** self ms per span name *)
  calls : (string, float) Hashtbl.t;
  minor : (string, float) Hashtbl.t;  (** self words per span name *)
  major : (string, float) Hashtbl.t;
  counts : (string, float) Hashtbl.t;
  roots_ms : float;  (** summed root-span time *)
  request_ms : float list;  (** each "request" root's duration *)
  self_list : (string * float) list;  (** every layer span's self time *)
}

let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0.
let add tbl k v = Hashtbl.replace tbl k (v +. get tbl k)

(* A span's self time (and self words) is its own minus the part its
   children cover. *)
let stats_of ~wall_ms spans counts =
  let dur s = ms_of_ns (Int64.sub s.t1 s.t0) in
  let children f =
    let t = Hashtbl.create 256 in
    List.iter (fun s -> if s.parent >= 0 then add t s.parent (f s)) spans;
    fun s -> f s -. get t s.id
  in
  let self = children dur in
  let table f =
    let t = Hashtbl.create 32 in
    List.iter (fun s -> add t s.name (f s)) spans;
    t
  in
  let roots, layers = List.partition (fun s -> s.parent < 0) spans in
  {
    wall_ms;
    incl = table dur;
    self = table self;
    calls = table (fun _ -> 1.);
    minor = table (children (fun s -> s.minor));
    major = table (children (fun s -> s.major));
    counts;
    roots_ms = sum (List.map dur roots);
    request_ms = List.filter_map (fun s -> if s.name = "request" then Some (dur s) else None) roots;
    self_list = List.map (fun s -> (s.name, self s)) layers;
  }

(* ---- the per-layer metrics ---- *)

let kernel_names = List.map fst kernels

let layer_units =
  [
    ("frontend.sdl_ms", "ms");
    ("frontend.minor_mwords", "Mwords");
    ("plan.compile_ms", "ms");
    ("plan.symbols", "count");
    ("pgf.load_ms", "ms");
    ("pgf.mb_per_s", "MB/s");
    ("pgf.minor_mwords", "Mwords");
    ("snapshot.build_ms", "ms");
    ("snapshot.minor_mwords", "Mwords");
  ]
  @ List.map (fun k -> ("kernels." ^ k ^ "_ms", "ms")) kernel_names
  @ [
      ("kernels.sum_ms", "ms");
      ("indexed.check_ms", "ms");
      ("engine.overhead_ms", "ms");
      ("violation.normalize_ms", "ms");
      ("violation.raw", "count");
      ("violation.kept_ratio", "ratio");
      ("render.ms", "ms");
      ("render.kib", "KiB");
      ("process.spawn_ms", "ms");
      ("server.ping_rtt_ms", "ms");
      ("boundary.overhead_ms", "ms");
      ("cache.plan_hit_ratio", "ratio");
      ("cache.snapshot_hit_ratio", "ratio");
      ("cache.evictions", "count");
      ("trace.overhead_pct", "%");
      ("trace.coverage", "ratio");
    ]

(* Which end-to-end metric each layer should move, on which workload. *)
let moves =
  [
    ("frontend", "schema_large_ms (cli_oneshot); setup_s (serve_*)");
    ("plan", "schema_large_ms (cli_oneshot)");
    ( "pgf",
      "throughput_rps, latency_p50_ms (serve_text_hot); latency_p50_ms (serve_text_cold); \
       pgf_large_ms (cli_oneshot)" );
    ("snapshot", "as pgf");
    ( "snapshot_io",
      "snapshot_large_ms, setup_s (cli_oneshot); latency_p95_ms (serve_snapshot)" );
    ("kernels", "throughput_rps, latency_p50_ms (serve_snapshot); snapshot_large_ms (cli_oneshot)");
    ("indexed", "throughput_rps, latency_p50_ms (serve_snapshot)");
    ("shard_stream", "latency_p95_ms (serve_snapshot)");
    ("violation", "latency_p95_ms (serve_text_cold)");
    ("validate", "latency_p95_ms (serve_text_cold)");
    ("diag_report", "latency_p95_ms (serve_text_cold)");
    ("render", "latency_p95_ms (serve_text_cold)");
  ]

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let per_pass_median (passes : pass_stats list) f = median (List.map f passes)

let layer_metrics ~(first : pass_stats) ~passes ~probes ~overhead_pct =
  let ms name = per_pass_median passes (fun p -> get p.incl name) in
  let kernels_sum p = sum (List.map (fun k -> get p.incl ("kernels." ^ k)) kernel_names) in
  let mwords tbl names = sum (List.map (get tbl) names) /. 1e6 in
  let render_ms p =
    sum (List.map (get p.incl) [ "validate.diagnostics"; "diag_report.envelope"; "render" ])
  in
  let raw = get first.counts "violation.raw" in
  let layer_self = sum (List.map (fun p -> sum (List.map snd p.self_list)) passes) in
  let roots = sum (List.map (fun p -> p.roots_ms) passes) in
  [
    ("frontend.sdl_ms", ms "frontend.sdl");
    ("frontend.minor_mwords", mwords first.minor [ "frontend.sdl"; "frontend.pgs" ]);
    ("plan.compile_ms", ms "plan.compile");
    ("plan.symbols", get first.counts "plan.symbols");
    ("pgf.load_ms", ms "pgf.load");
    ( "pgf.mb_per_s",
      per_pass_median passes (fun p ->
          get p.counts "pgf.bytes" /. 1e6 /. (get p.incl "pgf.load" /. 1e3)) );
    ("pgf.minor_mwords", mwords first.minor [ "pgf.load" ]);
    ("snapshot.build_ms", ms "snapshot.build");
    ("snapshot.minor_mwords", mwords first.minor [ "snapshot.build" ]);
  ]
  @ List.map (fun k -> ("kernels." ^ k ^ "_ms", ms ("kernels." ^ k))) kernel_names
  @ [
      ("kernels.sum_ms", per_pass_median passes kernels_sum);
      ("indexed.check_ms", ms "indexed.check");
      ( "engine.overhead_ms",
        per_pass_median passes (fun p -> get p.incl "indexed.check" -. kernels_sum p) );
      ("violation.normalize_ms", ms "violation.normalize");
      ("violation.raw", raw);
      ("violation.kept_ratio", if raw = 0. then 1. else get first.counts "violation.kept" /. raw);
      ("render.ms", per_pass_median passes render_ms);
      ("render.kib", get first.counts "render.bytes" /. 1024.);
    ]
  @ probes
  @ [ ("trace.overhead_pct", overhead_pct); ("trace.coverage", layer_self /. roots) ]

(* ---- output ---- *)

(* Chrome trace-event JSON: complete ("X") events in microseconds, one
   thread, nesting by time; Perfetto and chrome://tracing open it. *)
let chrome_trace spans =
  let base =
    List.fold_left (fun b s -> if Int64.compare s.t0 b < 0 then s.t0 else b) Int64.max_int spans
  in
  let us t = Int64.to_float (Int64.sub t base) /. 1e3 in
  Json.Assoc
    [
      ("displayTimeUnit", Json.String "ms");
      ( "traceEvents",
        Json.List
          (List.rev_map
             (fun s ->
               Json.Assoc
                 [
                   ("name", Json.String s.name);
                   ("cat", Json.String (layer_of s.name));
                   ("ph", Json.String "X");
                   ("ts", Json.Float (us s.t0));
                   ("dur", Json.Float (us s.t1 -. us s.t0));
                   ("pid", Json.Int 1);
                   ("tid", Json.Int 1);
                   ( "args",
                     Json.Assoc
                       [
                         ("rid", Json.Int s.rid);
                         ("pass", Json.Int s.pass);
                         ("parent", Json.Int s.parent);
                         ("minor_words", Json.Float s.minor);
                         ("major_words", Json.Float s.major);
                       ] );
                 ])
             spans) );
    ]

(* One row per span name: calls and self time per pass, the p50 self
   time of one call, words per pass (first traced pass), and the
   end-to-end metrics the layer should move. *)
let layer_table ~(first : pass_stats) ~passes =
  let names =
    List.sort_uniq compare (Hashtbl.fold (fun k _ acc -> k :: acc) first.calls [])
    |> List.filter (fun n -> not (List.mem n root_kinds))
  in
  List.map
    (fun name ->
      let calls = get first.calls name in
      let p50 =
        let own p = List.filter_map (fun (n, s) -> if n = name then Some s else None) p.self_list in
        median (List.concat_map own passes)
      in
      Json.Assoc
        [
          ("layer", Json.String name);
          ("calls_per_pass", Json.Float calls);
          ("busy_ms_per_pass", Json.Float (per_pass_median passes (fun p -> get p.self name)));
          ("p50_self_ms", Json.Float p50);
          ("minor_mwords", Json.Float (get first.minor name /. 1e6));
          ("major_mwords", Json.Float (get first.major name /. 1e6));
          ( "moves",
            Json.String (Option.value (List.assoc_opt (layer_of name) moves) ~default:"-") );
        ])
    names

let print_table ~workload rows =
  Printf.printf "%s layer table (per pass; self time; words from the first traced pass)\n" workload;
  Printf.printf "  %-24s %6s %10s %10s %9s %9s  %s\n" "layer" "calls" "busy_ms" "p50_ms" "minor_Mw"
    "major_Mw" "moves";
  List.iter
    (fun row ->
      let s k = match Json.member k row with Json.String s -> s | _ -> "" in
      let f k = Option.value (json_num (Json.member k row)) ~default:Float.nan in
      Printf.printf "  %-24s %6.0f %10.3f %10.4f %9.4f %9.4f  %s\n" (s "layer") (f "calls_per_pass")
        (f "busy_ms_per_pass") (f "p50_self_ms") (f "minor_mwords") (f "major_mwords") (s "moves"))
    rows

(* ---- the probes of the program as a process ---- *)

let spawn_ms ~gpgs =
  median (List.init 21 (fun _ -> (Proc.run [| gpgs; "--version" |]).Proc.wall_ms))

let ping_rtt_ms ~gpgs ~work =
  let socket = Filename.concat work "ping.sock" in
  let s = Proc.spawn_server ~gpgs ~socket in
  Fun.protect
    ~finally:(fun () -> Proc.stop_server s)
    (fun () ->
      let c = Proc.connect socket in
      Fun.protect
        ~finally:(fun () -> Proc.close c)
        (fun () ->
          median
            (List.init 200 (fun _ ->
                 let t0 = now_ns () in
                 ignore (Proc.roundtrip c Proc.ping_frame);
                 ms_since t0))))

type outcome = {
  metrics : (string * float) list;  (** in [layer_units] order *)
  table : Json.t list;
  trace : Json.t;
  attempted : int;
  failed : int;
}

(* Replay for [budget_s], then probe the program: [served] runs the
   workload for real, briefly, for the boundary overhead and the cache
   counters. *)
let run ~gpgs ~work ~budget_s ~(served : unit -> Drive.result) (inp : Inputs.t) =
  let tr = tracer () and tally = { Drive.attempted = 0; failed = 0 } in
  let timed_pass ~traced =
    (* no collection work left over from the previous pass lands in this
       one *)
    Gc.full_major ();
    tr.on <- traced;
    Hashtbl.reset tr.counts;
    let t0 = now_ns () in
    pass tr tally ~work inp;
    let wall_ms = ms_since t0 in
    tr.on <- false;
    (wall_ms, Hashtbl.copy tr.counts)
  in
  (* an untraced warm-up pass first; then traced and untraced passes
     alternate until the budget is spent, at least two of each *)
  ignore (timed_pass ~traced:false);
  let start = now_ns () in
  let rec go k traced untraced =
    if k >= 2 && ms_since start /. 1e3 >= budget_s then (List.rev traced, untraced)
    else begin
      tr.pass <- k;
      tr.spans <- [];
      let wall_ms, counts = timed_pass ~traced:true in
      let st = stats_of ~wall_ms tr.spans counts in
      let all = tr.spans in
      let u, _ = timed_pass ~traced:false in
      go (k + 1) ((st, all) :: traced) (u :: untraced)
    end
  in
  let traced, untraced = go 0 [] [] in
  let passes = List.map fst traced in
  let first = List.hd passes in
  let overhead_pct =
    100. *. (median (List.map (fun p -> p.wall_ms) passes) -. median untraced) /. median untraced
  in
  let e2e = served () in
  let served_p50 =
    List.find_map
      (fun (t : Drive.timing) -> if t.name = "latency_p50_ms" then Some t.value else None)
      e2e.Drive.timings
    |> Option.value ~default:Float.nan
  in
  let counter k =
    match List.assoc_opt ("cache." ^ k) e2e.Drive.detail with
    | Some (Json.Int i) -> float_of_int i
    | _ -> 0.
  in
  let ratio cache =
    let h = counter (cache ^ ".hits") and mi = counter (cache ^ ".misses") in
    if h +. mi = 0. then 0. else h /. (h +. mi)
  in
  let replay_p50 = median (List.concat_map (fun p -> p.request_ms) passes) in
  let probes =
    [
      ("process.spawn_ms", spawn_ms ~gpgs);
      ("server.ping_rtt_ms", ping_rtt_ms ~gpgs ~work);
      ("boundary.overhead_ms", served_p50 -. replay_p50);
      ("cache.plan_hit_ratio", ratio "plan_cache");
      ("cache.snapshot_hit_ratio", ratio "snapshot_cache");
      ("cache.evictions", counter "plan_cache.evictions" +. counter "snapshot_cache.evictions");
    ]
  in
  {
    metrics = layer_metrics ~first ~passes ~probes ~overhead_pct;
    table = layer_table ~first ~passes;
    trace = chrome_trace (List.concat_map snd traced);
    attempted = tally.attempted + e2e.Drive.attempted;
    failed = tally.failed + e2e.Drive.failed;
  }
