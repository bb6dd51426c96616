(* Request execution (see service.mli for the contract).

   The validate op is an adapter over Graphql_pg.Validate_request, the
   pipeline `gpgs validate` and `gpgs batch` run too: it lends the
   pipeline a cached plan (under its entry's lock, with the snapshot
   cache and a freeze outside the lock), registers budgeted jobs with
   the watchdog, and renders the outcome — adding only what the CLI has
   no counterpart for: SRV003, SRV005 and SRV006. *)

module GP = Graphql_pg
module Json = GP.Json
module VR = GP.Validate_request

type config = {
  plan_capacity : int;
  snapshot_capacity : int;
  default_deadline_ms : float option;
  default_max_violations : int option;
  retries : int;
  debug_ops : bool;
}

let default_config =
  {
    plan_capacity = 16;
    snapshot_capacity = 16;
    default_deadline_ms = None;
    default_max_violations = None;
    retries = 0;
    debug_ops = false;
  }

(* One in-flight deadlined request, as the watchdog sees it.  Jobs with
   no deadline are not registered: their governor is the inert
   [Governor.make ()] (byte-parity contract) and cannot be cancelled,
   and "wedged" is only defined relative to a deadline anyway. *)
type job = {
  j_started : float;
  j_deadline_ms : float;
  j_gov : GP.Governor.t;
  mutable j_wedged : bool;
}

type t = {
  cfg : config;
  plans : (GP.Plan.t, GP.Diag.t list) result Cache.t;
  snapshots : (GP.Snapshot.t, GP.Diag.t list) result Cache.t;
  requests : int Atomic.t;
  crashes : int Atomic.t;
  shed : int Atomic.t;
  started_at : float;
  watchdog_cancels : int Atomic.t;
  jobs_lock : Mutex.t;
  jobs : (int, job) Hashtbl.t;
  next_job : int Atomic.t;
  (* host-installed extra health fields (queue depth, worker count...):
     the service cannot see the server's queue, so the server injects a
     probe at startup *)
  probe : (unit -> (string * Json.t) list) Atomic.t;
}

let create ?(config = default_config) () =
  {
    cfg = config;
    plans = Cache.create ~capacity:config.plan_capacity;
    snapshots = Cache.create ~capacity:config.snapshot_capacity;
    requests = Atomic.make 0;
    crashes = Atomic.make 0;
    shed = Atomic.make 0;
    started_at = Unix.gettimeofday ();
    watchdog_cancels = Atomic.make 0;
    jobs_lock = Mutex.create ();
    jobs = Hashtbl.create 16;
    next_job = Atomic.make 0;
    probe = Atomic.make (fun () -> []);
  }

let set_probe t f = Atomic.set t.probe f

(* Run [f] registered as a job visible to {!watchdog_sweep} and
   {!cancel_inflight}; returns [f]'s value and whether the watchdog
   cancelled the job while it ran.  Jobs without a deadline register
   with an infinite one: the drain can still cancel them, the watchdog
   never fires on them.  [drain] is the server's drain flag — re-checked
   after registration so a job that starts while the drain is already
   cancelling (and so was missed by {!cancel_inflight}'s sweep) still
   stops at its first checkpoint. *)
let with_job t ~drain ~deadline_ms ~gov f =
  let id = Atomic.fetch_and_add t.next_job 1 in
  let job =
    {
      j_started = Unix.gettimeofday ();
      j_deadline_ms = Option.value deadline_ms ~default:Float.infinity;
      j_gov = gov;
      j_wedged = false;
    }
  in
  Mutex.protect t.jobs_lock (fun () -> Hashtbl.replace t.jobs id job);
  (match drain with
  | Some c when Atomic.get c -> GP.Governor.cancel gov
  | _ -> ());
  let v =
    Fun.protect
      ~finally:(fun () -> Mutex.protect t.jobs_lock (fun () -> Hashtbl.remove t.jobs id))
      f
  in
  (v, job.j_wedged)

(* Drain support: cancel every registered in-flight job (each holds its
   own cancellation flag — the watchdog and the drain never touch a
   flag shared across requests). *)
let cancel_inflight t =
  Mutex.protect t.jobs_lock (fun () ->
    Hashtbl.iter (fun _ job -> GP.Governor.cancel job.j_gov) t.jobs)

let in_flight_jobs t = Mutex.protect t.jobs_lock (fun () -> Hashtbl.length t.jobs)

(* The watchdog: cancel (via the governor, so the engine stops at its
   next cooperative checkpoint) every registered job that has run past
   its own deadline plus [grace_ms].  A healthy deadlined job stops
   itself at the deadline; one that is still running [grace_ms] later is
   wedged — stuck in a non-polling loop or a blocked syscall the budget
   cannot see.  Returns how many jobs were cancelled by this sweep. *)
let watchdog_sweep t ~grace_ms =
  let now = Unix.gettimeofday () in
  Mutex.protect t.jobs_lock (fun () ->
    Hashtbl.fold
      (fun _ job n ->
        if
          (not job.j_wedged)
          && now > job.j_started +. ((job.j_deadline_ms +. grace_ms) /. 1000.)
        then begin
          job.j_wedged <- true;
          GP.Governor.cancel job.j_gov;
          Atomic.incr t.watchdog_cancels;
          n + 1
        end
        else n)
      t.jobs 0)

let watchdog_cancelled t = Atomic.get t.watchdog_cancels

let plan_stats t = Cache.stats t.plans
let snapshot_stats t = Cache.stats t.snapshots
let requests_served t = Atomic.get t.requests

(* ---- envelopes ---- *)

let render_envelope ~command ?summary ?cls diags =
  Protocol.render (GP.Diag_report.envelope ~command ?summary ?cls diags)

let srv_error ~command ~code ?subject ?cls message =
  render_envelope ~command ?cls [ GP.Diag.error ~code ?subject message ]

let malformed msg = srv_error ~command:"serve" ~code:"SRV001" ("malformed request frame: " ^ msg)

let oversized_response _t =
  srv_error ~command:"serve" ~code:"SRV002" "request frame exceeds the server's size limit"

let shed_response t =
  Atomic.incr t.shed;
  srv_error ~command:"serve" ~code:"SRV004"
    "server overloaded; the request was shed before execution"

(* ---- supervision ---- *)

(* Every job runs under the supervisor, even with retries disabled: the
   firewall (catch, classify, report) is what keeps a crashing engine
   from taking the worker domain down.  [retries] only adds attempts
   for transient failures. *)
let supervised t job =
  GP.Supervisor.supervise ~policy:(GP.Supervisor.policy ~retries:(max 0 t.cfg.retries) ()) job

let crash_response t ~command ~subject (crash : GP.Supervisor.crash) =
  Atomic.incr t.crashes;
  srv_error ~command ~code:"SRV005" ~subject
    (Printf.sprintf "%s: validation job crashed after %d attempt(s): %s" subject
       crash.GP.Supervisor.crash_attempts crash.GP.Supervisor.crash_exn)

(* ---- validate ---- *)

(* One cached compiled plan per (frontend, schema path, leniency).  The
   frontend and the leniency flag both change what parse_full accepts,
   so they are part of the key; the file content digest handles edits to
   the schema itself.  Keys read [<lang>:<strict|lenient>:<path>] — the
   stats op parses them back for its per-entry report. *)
let plan_key ~lang ~lenient path =
  Printf.sprintf "%s:%s:%s" (GP.Frontend.to_string lang)
    (if lenient then "lenient" else "strict")
    path

let plan_entry t ?lang ~lenient path =
  let lang = GP.Frontend.select ?lang ~path () in
  let key = plan_key ~lang ~lenient path in
  Cache.find t.plans ~key ~path ~load:(fun ~content ->
    match GP.Frontend.parse_full ~consistency:(not lenient) lang (Lazy.force content) with
    | Ok (sch, _warnings) -> Ok (GP.Plan.of_schema sch)
    | Error diags -> Error diags)

(* Snapshots intern labels into the symtab of the exact plan instance
   that loads them, so a cached snapshot is only valid against that one
   compiled plan value.  The key is the plan entry's uid — unique per
   build — never the schema content digest: the lenient and strict
   plans for one schema, and successive recompiles after an eviction,
   share a digest while holding different symtabs, and crossing them
   makes the kernels render violations through a symtab that lacks (or
   differently assigns) the snapshot's interned ids.  Callers hold the
   plan entry's lock. *)
let snapshot_entry t ~plan_uid ~symtab path =
  let key = string_of_int plan_uid ^ ":" ^ path in
  Cache.find t.snapshots ~key ~path ~load:(fun ~content:_ ->
    match GP.Snapshot_io.load symtab path with
    | Ok snap -> Ok snap
    | Error e -> Error [ GP.Diag.error ~code:e.GP.Snapshot_io.code e.GP.Snapshot_io.message ])

let io001 path msg = [ GP.Diag.error ~code:"IO001" (path ^ ": " ^ msg) ]

(* A cached plan as the pipeline borrows it.  Plan use is
   sequential-only (loading or rebasing a snapshot interns labels into
   its symtab), so those steps and the check run under the entry's lock.
   Ingesting and freezing text need no plan: the freeze runs outside the
   lock against a symbol table private to the request, and only the
   rebase onto the plan's runs under it.  Every snapshot, whatever the
   engine, comes from the snapshot cache.  An unreadable schema file
   has no CLI envelope to match (cmdliner rejects the path before the
   subcommand runs); IO001 is the natural code for it. *)
let held t ?lang ~lenient path () =
  match plan_entry t ?lang ~lenient path with
  | Error msg -> Error (path, io001 path msg)
  | Ok { Cache.value = Error diags; _ } -> Error (path, diags)
  | Ok ({ Cache.value = Ok plan; _ } as slot) ->
    let symtab = GP.Plan.symtab plan in
    Ok
      {
        VR.plan;
        exclusive = (fun f -> Mutex.protect slot.Cache.lock f);
        freeze =
          (fun columns ->
            let own = GP.Symtab.create () in
            let snap = GP.Snapshot.freeze own columns in
            fun () -> GP.Snapshot.rebase ~src:own symtab snap);
        snapshot =
          (fun graph ->
            match snapshot_entry t ~plan_uid:slot.Cache.uid ~symtab graph with
            | Ok { Cache.value; _ } -> value
            | Error msg -> Error (io001 graph msg));
      }

let run_validate t ~cancel (r : Protocol.validate_req) =
  (* Budget: the request's own flags win; the server defaults fill in
     for absent ones. *)
  let deadline_ms, imposed_deadline =
    match (r.deadline_ms, t.cfg.default_deadline_ms) with
    | (Some _ as d), _ -> (d, false)
    | None, (Some _ as d) -> (d, true)
    | None, None -> (None, false)
  in
  let max_violations =
    match r.max_violations with Some _ as m -> m | None -> t.cfg.default_max_violations
  in
  let request =
    {
      VR.snapshot = r.snapshot;
      engine = r.engine;
      mode = r.mode;
      domains = r.domains;
      shards = r.shards;
      stream = false;
      quarantine = None;
      max_input_errors = None;
      deadline_ms;
      max_violations;
      retries = max 0 t.cfg.retries;
    }
  in
  (* Budgeted jobs register with the watchdog and the drain, which
     cancel them through the governor's private flag; an unbudgeted one
     runs under the inert governor and cannot be cancelled. *)
  let wedged = ref false in
  let guard gov supervised =
    if GP.Governor.is_unlimited gov then supervised ()
    else begin
      let outcome, w = with_job t ~drain:cancel ~deadline_ms ~gov supervised in
      wedged := w;
      outcome
    end
  in
  let server_diag code fmt =
    Printf.ksprintf
      (fun msg -> [ GP.Diag.error ~code ~subject:r.graph (r.graph ^ ": " ^ msg) ])
      fmt
  in
  let plan = held t ?lang:r.schema_lang ~lenient:r.lenient r.schema in
  match VR.run ~guard ~plan request r.graph with
  | VR.Crashed { crash; graph; _ } -> crash_response t ~command:"validate" ~subject:graph crash
  | outcome ->
    let complete =
      match outcome with VR.Done { report; _ } -> report.GP.Validate.complete | _ -> true
    in
    let server_diags =
      (if imposed_deadline && not complete then
         server_diag "SRV003"
           "the server's default deadline (%gms) expired before validation completed"
           (Option.get deadline_ms)
       else [])
      @
      if !wedged then
        server_diag "SRV006"
          "request ran past its %gms deadline plus the watchdog grace and was cancelled"
          (Option.value deadline_ms ~default:0.)
      else []
    in
    render_envelope ~command:"validate" ~summary:(VR.summary outcome) ?cls:(VR.cls outcome)
      (VR.diagnostics outcome @ server_diags)

(* ---- other operations ---- *)

let ping_response () =
  render_envelope ~command:"ping" ~summary:[ ("pong", Json.Bool true) ] []

let cache_stats_json (s : Cache.stats) =
  Json.Assoc
    [
      ("hits", Json.Int s.hits);
      ("misses", Json.Int s.misses);
      ("evictions", Json.Int s.evictions);
      ("invalidations", Json.Int s.invalidations);
      ("size", Json.Int s.size);
    ]

(* One record per resident plan, with the frontend and leniency parsed
   back out of the cache key (see [plan_key]). *)
let plan_entry_json key =
  match String.split_on_char ':' key with
  | lang :: strictness :: rest ->
    Json.Assoc
      [
        ("schema", Json.String (String.concat ":" rest));
        ("frontend", Json.String lang);
        ("lenient", Json.Bool (strictness = "lenient"));
      ]
  | _ -> Json.Assoc [ ("schema", Json.String key) ]

let stats_response t =
  render_envelope ~command:"server-stats"
    ~summary:
      [
        ("requests", Json.Int (Atomic.get t.requests));
        ("crashed", Json.Int (Atomic.get t.crashes));
        ("shed", Json.Int (Atomic.get t.shed));
        ("plan_cache", cache_stats_json (Cache.stats t.plans));
        ("plan_entries", Json.List (List.map plan_entry_json (Cache.keys t.plans)));
        ("snapshot_cache", cache_stats_json (Cache.stats t.snapshots));
      ]
    []

(* The operational self-report.  Base fields come from the service's
   own counters; the host probe (installed by the server via
   {!set_probe}) appends what only the accept loop can see: queue
   depth, worker count, accept backoffs, drain state. *)
let health_response t =
  let base =
    [
      ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started_at));
      ("requests", Json.Int (Atomic.get t.requests));
      ("crashed", Json.Int (Atomic.get t.crashes));
      ("shed", Json.Int (Atomic.get t.shed));
      ("in_flight_jobs", Json.Int (in_flight_jobs t));
      ("watchdog_cancelled", Json.Int (Atomic.get t.watchdog_cancels));
      ("plan_cache", cache_stats_json (Cache.stats t.plans));
      ("snapshot_cache", cache_stats_json (Cache.stats t.snapshots));
    ]
  in
  render_envelope ~command:"server-health" ~summary:(base @ (Atomic.get t.probe) ()) []

let debug_disabled op =
  malformed (Printf.sprintf "op %S is a debug operation (start the server with --debug-ops)" op)

let handle t ?cancel line =
  Atomic.incr t.requests;
  try
    match Protocol.parse line with
    | Error msg -> malformed msg
    | Ok Protocol.Ping -> ping_response ()
    | Ok Protocol.Stats -> stats_response t
    | Ok Protocol.Health -> health_response t
    | Ok (Protocol.Validate r) -> run_validate t ~cancel r
    | Ok Protocol.Debug_boom when not t.cfg.debug_ops -> debug_disabled "boom"
    | Ok (Protocol.Debug_sleep _) when not t.cfg.debug_ops -> debug_disabled "sleep"
    | Ok (Protocol.Debug_stall _) when not t.cfg.debug_ops -> debug_disabled "stall"
    | Ok Protocol.Debug_boom -> (
      match supervised t (fun () -> failwith "injected crash (debug op)") with
      | GP.Supervisor.Done ((), _) -> ping_response ()
      | GP.Supervisor.Crashed crash -> crash_response t ~command:"boom" ~subject:"debug" crash)
    | Ok (Protocol.Debug_sleep s) ->
      Unix.sleepf (Float.max 0. s);
      render_envelope ~command:"sleep" ~summary:[ ("slept_s", Json.Float s) ] []
    | Ok (Protocol.Debug_stall s) ->
      (* A controllable wedged job: registered with a 0 ms deadline it
         then ignores, so only a cancellation — the watchdog's, or the
         drain's — ends it before its full duration. *)
      let flag = Atomic.make false in
      let gov = GP.Governor.make ~deadline_ms:0. ~cancel:flag () in
      let (), wedged =
        with_job t ~drain:cancel ~deadline_ms:(Some 0.) ~gov (fun () ->
          let stop_at = Unix.gettimeofday () +. Float.max 0. s in
          while Unix.gettimeofday () < stop_at && not (Atomic.get flag) do
            Unix.sleepf 0.02
          done)
      in
      if wedged then
        srv_error ~command:"stall" ~code:"SRV006" ~subject:"debug"
          ~cls:GP.Diag.Exit.Budget
          "debug: stalled request cancelled by the watchdog"
      else render_envelope ~command:"stall" ~summary:[ ("stalled_s", Json.Float s) ] []
  with e ->
    (* Nothing outside a supervised job should raise, but the worker
       must survive it if something does. *)
    Atomic.incr t.crashes;
    srv_error ~command:"serve" ~code:"SRV005"
      (Printf.sprintf "request handling crashed: %s" (Printexc.to_string e))
