(* The timed runs, tracing off: the built [gpgs] driven as a separate
   process from this single thread, over at most 2 connections.  Every
   response is checked against its reference as it arrives. *)

open Util

(* The end-to-end metrics BENCHMARK.json lists, with the same names and
   units: the set-up time, and peak memory, which repeats within a tenth
   from run to run on every workload. *)
let metric_units = [ ("setup_s", "s"); ("peak_rss_mib", "MiB") ]

(* An end-to-end timing.  None is in BENCHMARK.json, which holds a
   metric to its bound on every workload: on the reference host every
   timing drifts by more than a tenth over minutes (see README.md).
   [compare] still judges them, at a 10% bound. *)
type timing = { name : string; value : float; unit_ : string; better : string }

type result = {
  metrics : (string * float) list;  (** in [metric_units] order *)
  timings : timing list;
  detail : (string * Json.t) list;  (** sample counts, per-class medians, cache counters *)
  attempted : int;
  failed : int;
}

(* ---- correctness ---- *)

type tally = { mutable attempted : int; mutable failed : int }

let fail tally fmt =
  Printf.ksprintf
    (fun msg ->
      if tally.failed < 5 then prerr_endline ("gpgs_bench: " ^ msg);
      tally.failed <- tally.failed + 1)
    fmt

(* Served responses must be byte-identical to the in-process envelope. *)
let check_served tally (op : Inputs.op) line =
  tally.attempted <- tally.attempted + 1;
  if not (String.equal line op.wire) then
    fail tally "%s: served response differs from the reference (%d bytes, expected %d)" op.label
      (String.length line) (String.length op.wire)

(* One-shot output is compared as parsed JSON, and the exit code must be
   the envelope's. *)
let check_cli tally (op : Inputs.op) (o : Proc.outcome) =
  tally.attempted <- tally.attempted + 1;
  match Json.of_string o.stdout with
  | Ok j when Json.equal j op.expected && o.code = Inputs.exit_code op.expected -> ()
  | Ok _ -> fail tally "%s: CLI report or exit code %d differs from the reference" op.label o.code
  | Error e -> fail tally "%s: CLI printed no JSON envelope (exit %d): %s" op.label o.code e

let summary_field path json =
  List.fold_left (fun j k -> Json.member k j) (Json.member "summary" json) path

let check_pong tally line =
  tally.attempted <- tally.attempted + 1;
  match Json.of_string line with
  | Ok j when summary_field [ "pong" ] j = Json.Bool true -> ()
  | _ -> fail tally "ping: not a pong envelope: %s" (String.trim line)

(* A connection error: the server closed the socket, reset it, died
   (EPIPE) or stopped answering.  It fails every request then in flight,
   and the loop ends early; the run still reports, with [failed > 0]. *)
let connection_error = function
  | End_of_file | Unix.Unix_error _ | Proc.Stalled -> true
  | _ -> false

let lose tally ~in_flight e =
  let n = max 1 in_flight in
  fail tally "connection lost (%s): %d request(s) in flight failed" (Printexc.to_string e) n;
  tally.attempted <- tally.attempted + n;
  tally.failed <- tally.failed + n - 1

(* ---- measured loops ---- *)

type sample = { cls : string; ms : float; at_s : float  (** completion, from loop start *) }

type loop = {
  samples : sample list;
  elapsed_s : float;
      (** loop start to the last completion; for the open loop at least
          its whole schedule *)
  lateness_ms : float list;  (** open loop: actual minus scheduled send *)
}

(* A response to [op] completed at [t]. *)
let sample (op : Inputs.op) t ~sent ~t0 =
  { cls = op.cls; ms = ms_of_ns (Int64.sub t sent); at_s = ms_of_ns (Int64.sub t t0) /. 1e3 }

(* Closed loop: each connection sends its next request when the previous
   one completes, walking its own request sequence.  No new request
   starts after [seconds]; those in flight are completed. *)
type slot = {
  conn : Proc.conn;
  sequence : int array;
  mutable pos : int;
  mutable op : int;
  mutable sent : int64;
}

let closed_loop tally ~socket ~seconds (inp : Inputs.t) =
  let frames = Array.map Inputs.frame inp.ops in
  let conns = List.init Inputs.connections (fun _ -> Proc.connect socket) in
  Fun.protect
    ~finally:(fun () -> List.iter Proc.close conns)
    (fun () ->
      let t0 = now_ns () in
      let t_end = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
      let send s =
        s.op <- s.sequence.(s.pos mod Array.length s.sequence);
        s.pos <- s.pos + 1;
        s.sent <- now_ns ();
        Proc.send s.conn frames.(s.op)
      in
      let slots =
        List.mapi
          (fun i conn ->
            let sequence = inp.sequences.(i mod Array.length inp.sequences) in
            { conn; sequence; pos = 0; op = 0; sent = 0L })
          conns
      in
      let busy = ref [] and samples = ref [] and last = ref t0 in
      (try
         List.iter
           (fun s ->
             busy := s :: !busy;
             send s)
           slots;
         while !busy <> [] do
           let ready = Proc.select (List.map (fun s -> s.conn.Proc.fd) !busy) 60. in
           if ready = [] then raise Proc.Stalled;
           List.iter
             (fun s ->
               if List.mem s.conn.Proc.fd ready then
                 match Proc.receive s.conn with
                 | [] -> ()
                 | line :: _ ->
                   let t = now_ns () in
                   let o = inp.ops.(s.op) in
                   check_served tally o line;
                   samples := sample o t ~sent:s.sent ~t0 :: !samples;
                   last := t;
                   if Int64.compare t t_end < 0 then send s
                   else busy := List.filter (( != ) s) !busy)
             !busy
         done
       with e when connection_error e -> lose tally ~in_flight:(List.length !busy) e);
      { samples = !samples; elapsed_s = ms_of_ns (Int64.sub !last t0) /. 1e3; lateness_ms = [] })

(* Open loop: request k is due at [arrivals.(k)], whatever is still
   outstanding, and goes out pipelined on the connection with the fewest
   requests in flight.  Its latency runs from when it was due, so a
   stall also charges the requests queued behind it. *)
let open_loop tally ~socket ~seconds (inp : Inputs.t) =
  let frames = Array.map Inputs.frame inp.ops in
  let sequence = inp.sequences.(0) in
  let arrivals = List.filter (fun a -> a < seconds) (Array.to_list inp.arrivals) in
  let arrivals = Array.of_list (if arrivals = [] then [ 0. ] else arrivals) in
  let n = Array.length arrivals and len = Array.length sequence in
  let conns = List.init Inputs.connections (fun _ -> (Proc.connect socket, Queue.create ())) in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (c, _) -> Proc.close c) conns)
    (fun () ->
      let t0 = Int64.add (now_ns ()) 10_000_000L in
      let due k = Int64.add t0 (Int64.of_float (arrivals.(k) *. 1e9)) in
      let next = ref 0 and samples = ref [] and lateness = ref [] and last = ref t0 in
      let in_flight () = List.fold_left (fun a (_, q) -> a + Queue.length q) 0 conns in
      let progress = ref (now_ns ()) in
      (try
         while !next < n || in_flight () > 0 do
           while !next < n && Int64.compare (due !next) (now_ns ()) <= 0 do
             let k = !next in
             let c, q =
               List.fold_left
                 (fun (c, q) (c', q') ->
                   if Queue.length q' < Queue.length q then (c', q') else (c, q))
                 (List.hd conns) (List.tl conns)
             in
             let op = sequence.(k mod len) in
             Queue.push (op, due k) q;
             incr next;
             Proc.send c frames.(op);
             lateness := ms_of_ns (Int64.sub (now_ns ()) (due k)) :: !lateness
           done;
           let timeout =
             if !next < n then Float.max 0. (ms_of_ns (Int64.sub (due !next) (now_ns ())) /. 1e3)
             else 1.
           in
           let waiting = List.filter (fun (_, q) -> not (Queue.is_empty q)) conns in
           let ready = Proc.select (List.map (fun (c, _) -> c.Proc.fd) waiting) timeout in
           List.iter
             (fun (c, q) ->
               if List.mem c.Proc.fd ready then
                 List.iter
                   (fun line ->
                     let t = now_ns () in
                     let op, d = Queue.pop q in
                     let o = inp.ops.(op) in
                     check_served tally o line;
                     samples := sample o t ~sent:d ~t0 :: !samples;
                     last := t;
                     progress := t)
                   (Proc.receive c))
             waiting;
           if ready = [] && waiting <> [] && ms_since !progress > 60_000. then raise Proc.Stalled
           else if ready = [] && waiting = [] then progress := now_ns ()
         done
       with e when connection_error e -> lose tally ~in_flight:(in_flight ()) e);
      {
        samples = !samples;
        elapsed_s = Float.max seconds (ms_of_ns (Int64.sub !last t0) /. 1e3);
        lateness_ms = !lateness;
      })

(* ---- serve workloads ---- *)

(* One start: spawn, first ping answered, then one warm pass over the
   workload's distinct inputs on a connection closed afterwards (each
   server worker serves one connection until it closes). *)
let start_server tally ~gpgs ~socket (inp : Inputs.t) =
  let t0 = now_ns () in
  let s = Proc.spawn_server ~gpgs ~socket in
  match
    let c = Proc.connect socket in
    Fun.protect
      ~finally:(fun () -> Proc.close c)
      (fun () ->
        check_pong tally (Proc.roundtrip c Proc.ping_frame);
        List.iter
          (fun i ->
            let op = inp.ops.(i) in
            check_served tally op (Proc.roundtrip c (Inputs.frame op)))
          inp.warm)
  with
  | () -> (s, ms_since t0 /. 1e3)
  | exception e ->
    Proc.stop_server s;
    raise e

let cache_counters tally ~socket =
  match
    let c = Proc.connect socket in
    Fun.protect ~finally:(fun () -> Proc.close c) (fun () -> Proc.roundtrip c Proc.stats_frame)
  with
  | exception e when connection_error e ->
    lose tally ~in_flight:1 e;
    []
  | line -> (
    match Json.of_string line with
    | Ok j ->
      let counter cache k =
        match summary_field [ cache; k ] j with Json.Int i -> i | _ -> 0
      in
      List.concat_map
        (fun cache ->
          List.map (fun k -> (cache ^ "." ^ k, counter cache k)) [ "hits"; "misses"; "evictions" ])
        [ "plan_cache"; "snapshot_cache" ]
    | Error e ->
      fail tally "stats: not an envelope: %s" e;
      [])

(* ---- metrics ---- *)

let classes_of loop = List.sort_uniq compare (List.map (fun s -> s.cls) loop.samples)
let of_class loop cls = List.filter_map (fun s -> if s.cls = cls then Some s.ms else None) loop.samples
let class_medians loop = List.map (fun cls -> (cls ^ "_ms", median (of_class loop cls))) (classes_of loop)

let metrics_of ~setups ~hwm_kib =
  [ ("setup_s", median setups); ("peak_rss_mib", float_of_int hwm_kib /. 1024.) ]

(* Throughput and the median latency; the 95th percentile where at least
   10 samples lie beyond it (not on cli_oneshot, whose 70-130 runs leave
   3-6); on cli_oneshot the median wall time of each op type. *)
let timings_of ?(per_class = false) loop =
  let lat = List.map (fun s -> s.ms) loop.samples in
  let n = List.length lat in
  let t name value unit_ better = { name; value; unit_; better } in
  [
    t "throughput_rps" (float_of_int n /. loop.elapsed_s) "1/s" "higher";
    t "latency_p50_ms" (median lat) "ms" "lower";
  ]
  @ (if beyond 0.95 n >= 10 then [ t "latency_p95_ms" (percentile 0.95 lat) "ms" "lower" ] else [])
  @ if per_class then List.map (fun (k, v) -> t k v "ms" "lower") (class_medians loop) else []

let floats xs = Json.List (List.map (fun x -> Json.Float x) xs)

let detail_of ~setups ~loop =
  let n = List.length loop.samples in
  let seconds = List.init (int_of_float (Float.ceil loop.elapsed_s)) Fun.id in
  let in_second k = List.filter (fun s -> int_of_float s.at_s = k) loop.samples in
  [
    ("samples", Json.Int n);
    ("per_second_n", Json.List (List.map (fun k -> Json.Int (List.length (in_second k))) seconds));
    ( "per_second_p50_ms",
      floats (List.map (fun k -> median (List.map (fun s -> s.ms) (in_second k))) seconds) );
    ("beyond_p95", Json.Int (beyond 0.95 n));
    ("setup_s_each", floats setups);
  ]
  @ List.map
      (fun cls ->
        let xs = of_class loop cls in
        ( cls ^ "_ms",
          Json.Assoc
            [
              ("p50", Json.Float (median xs));
              ("p95", Json.Float (percentile 0.95 xs));
              ("n", Json.Int (List.length xs));
            ] ))
      (classes_of loop)
  @
  match loop.lateness_ms with
  | [] -> []
  | l ->
    [
      ("send_late_p50_ms", Json.Float (median l));
      ("send_late_max_ms", Json.Float (List.fold_left Float.max 0. l));
    ]

let snapshot_build ~gpgs (pgf, snap) = Proc.run [| gpgs; "snapshot"; "build"; pgf; "-o"; snap |]

(* Freeze the workload's snapshot inputs not yet on disk with the
   program's own [gpgs snapshot build]. *)
let prepare ~gpgs (inp : Inputs.t) =
  List.iter
    (fun ((pgf, snap) as files) ->
      if not (Sys.file_exists snap) then begin
        let o = snapshot_build ~gpgs files in
        if o.code <> 0 then failwith (Printf.sprintf "gpgs snapshot build %s exited %d" pgf o.code)
      end)
    inp.prep

(* [starts] servers are started and timed; all but the last are stopped
   again, and the last one serves the measured loop. *)
let serve ~gpgs ~work ~seconds ~starts (inp : Inputs.t) =
  let tally = { attempted = 0; failed = 0 } in
  let socket = Filename.concat work "gpgs.sock" in
  prepare ~gpgs inp;
  let rec boot k setups =
    let s, t = start_server tally ~gpgs ~socket inp in
    if k <= 1 then (s, List.rev (t :: setups))
    else begin
      Proc.stop_server s;
      boot (k - 1) (t :: setups)
    end
  in
  let s, setups = boot starts [] in
  Fun.protect
    ~finally:(fun () -> Proc.stop_server s)
    (fun () ->
      let cpu () = Option.value (cpu_s s.Proc.pid) ~default:Float.nan in
      let cpu0 = cpu () in
      let loop =
        if inp.arrivals = [||] then closed_loop tally ~socket ~seconds inp
        else open_loop tally ~socket ~seconds inp
      in
      let busy = (cpu () -. cpu0) /. loop.elapsed_s in
      let caches = cache_counters tally ~socket in
      let hwm_kib = Option.value (vm_hwm_kib s.Proc.pid) ~default:0 in
      {
        metrics = metrics_of ~setups ~hwm_kib;
        timings = timings_of loop;
        detail =
          detail_of ~setups ~loop
          @ [ ("server_cpu_per_s", Json.Float busy) ]
          @ List.map (fun (k, v) -> ("cache." ^ k, Json.Int v)) caches;
        attempted = tally.attempted;
        failed = tally.failed;
      })

(* ---- the one-shot workload ---- *)

let cli ~gpgs ~seconds ~starts (inp : Inputs.t) =
  let tally = { attempted = 0; failed = 0 } in
  let setups =
    List.init starts (fun _ ->
        let o = snapshot_build ~gpgs (List.hd inp.prep) in
        tally.attempted <- tally.attempted + 1;
        if o.code <> 0 then fail tally "gpgs snapshot build exited %d" o.code;
        o.wall_ms /. 1e3)
  in
  let sequence = inp.sequences.(0) in
  let len = Array.length sequence in
  let t0 = now_ns () in
  let t_end = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
  (* whole cycles only, so every run holds the op types in the same
     proportion: stopping mid-cycle moved throughput by up to 3% *)
  let rec go k samples hwm =
    if k > 0 && k mod len = 0 && Int64.compare (now_ns ()) t_end >= 0 then (samples, hwm)
    else begin
      let op = inp.ops.(sequence.(k mod len)) in
      let o = Proc.run ~poll_hwm:true (Inputs.argv ~gpgs op) in
      check_cli tally op o;
      let s = { cls = op.cls; ms = o.wall_ms; at_s = ms_since t0 /. 1e3 } in
      go (k + 1) (s :: samples) (max hwm o.hwm_kib)
    end
  in
  let samples, hwm_kib = go 0 [] 0 in
  let loop = { samples; elapsed_s = ms_since t0 /. 1e3; lateness_ms = [] } in
  {
    metrics = metrics_of ~setups ~hwm_kib;
    timings = timings_of ~per_class:true loop;
    detail = detail_of ~setups ~loop;
    attempted = tally.attempted;
    failed = tally.failed;
  }

let run ~gpgs ~work ~seconds ?(starts = 3) (inp : Inputs.t) =
  match inp.workload with
  | Inputs.Cli_oneshot -> cli ~gpgs ~seconds ~starts inp
  | _ -> serve ~gpgs ~work ~seconds ~starts inp
