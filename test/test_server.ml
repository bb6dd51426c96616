(* The validation daemon (lib/server): wire protocol goldens, byte
   parity of served envelopes with `gpgs validate --format json`
   (including a qcheck sweep over generated workloads and engines), the
   content-addressed LRU cache, and fault injection against a live
   server — garbage frames, oversized frames, mid-request disconnects,
   crash-injected jobs, overload shedding, and storm-then-drain. *)

module GP = Graphql_pg
module Json = GP.Json
module Cache = Pg_server.Cache
module Protocol = Pg_server.Protocol
module Service = Pg_server.Service
module Server = Pg_server.Server

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)

let test_dir = Filename.dirname Sys.executable_name
let in_repo rel = Filename.concat test_dir rel

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  text

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let movies_sdl = in_repo "../examples/movies.graphql"
let movies_pgs = in_repo "../examples/movies.pgs"
let movies_pgf = in_repo "../examples/movies.pgf"

(* Same CLI runner as test_diag.ml: capture stdout and the exit code. *)
let run_cli args =
  let out = Filename.temp_file "gpgs_served" ".out" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>/dev/null"
      (Filename.quote (in_repo "../bin/gpgs.exe"))
      args (Filename.quote out)
  in
  let code =
    match Sys.command cmd with
    | c when c land 0xff = 0 -> c lsr 8
    | c -> c
  in
  let text = read_file out in
  Sys.remove out;
  (code, text)

(* ---- request building / response decoding ---- *)

let validate_req ?schema_lang ?engine ?mode ?domains ?shards ?snapshot ?lenient ?deadline_ms
    ?max_violations ~schema ~graph () =
  let fields =
    List.filter_map
      (fun x -> x)
      [
        Some ("op", Json.String "validate");
        Some ("schema", Json.String schema);
        Option.map (fun l -> ("schema_lang", Json.String l)) schema_lang;
        Some ("graph", Json.String graph);
        Option.map (fun e -> ("engine", Json.String e)) engine;
        Option.map (fun m -> ("mode", Json.String m)) mode;
        Option.map (fun d -> ("domains", Json.Int d)) domains;
        Option.map (fun s -> ("shards", Json.Int s)) shards;
        Option.map (fun b -> ("snapshot", Json.Bool b)) snapshot;
        Option.map (fun b -> ("lenient", Json.Bool b)) lenient;
        Option.map (fun d -> ("deadline_ms", Json.Float d)) deadline_ms;
        Option.map (fun m -> ("max_violations", Json.Int m)) max_violations;
      ]
  in
  Json.to_string (Json.Assoc fields)

let decode line =
  match Json.of_string line with
  | Ok j -> j
  | Error msg -> Alcotest.failf "response is not JSON (%s): %s" msg line

let exit_of j = match Json.member "exit" j with Json.Int c -> c | _ -> -1

let codes_of j =
  match Json.member "diagnostics" j with
  | Json.List ds ->
    List.map (fun d -> match Json.member "code" d with Json.String c -> c | _ -> "?") ds
  | _ -> []

let has_code code j = List.mem code (codes_of j)

(* A served response (one compact line) must be the CLI's document:
   re-indent it and compare the bytes, and compare the embedded exit
   code against the process exit code. *)
let check_parity ~what served (cli_code, cli_out) =
  let j = decode served in
  check_string (what ^ ": envelope bytes") cli_out (Json.to_string ~indent:true j ^ "\n");
  check_int (what ^ ": exit code") cli_code (exit_of j)

(* ---- protocol ---- *)

let test_protocol_parse_ok () =
  (match Protocol.parse {|{"op":"ping"}|} with
  | Ok Protocol.Ping -> ()
  | _ -> Alcotest.fail "ping did not parse");
  (match Protocol.parse {|{"op":"stats"}|} with
  | Ok Protocol.Stats -> ()
  | _ -> Alcotest.fail "stats did not parse");
  match
    Protocol.parse
      {|{"op":"validate","schema":"s","graph":"g","engine":"sharded","mode":"weak","domains":2,"shards":8,"snapshot":true,"lenient":true,"deadline_ms":250,"max_violations":10,"future_field":[1]}|}
  with
  | Ok (Protocol.Validate r) ->
    check_bool "engine" true (r.Protocol.engine = GP.Validate.Sharded);
    check_bool "mode" true (r.Protocol.mode = GP.Validate.Weak);
    check_bool "domains" true (r.Protocol.domains = Some 2);
    check_bool "shards" true (r.Protocol.shards = Some 8);
    check_bool "snapshot" true r.Protocol.snapshot;
    check_bool "lenient" true r.Protocol.lenient;
    check_bool "deadline" true (r.Protocol.deadline_ms = Some 250.);
    check_bool "max_violations" true (r.Protocol.max_violations = Some 10)
  | _ -> Alcotest.fail "validate did not parse"

let test_protocol_schema_lang () =
  (match Protocol.parse {|{"op":"validate","schema":"s.pgs","graph":"g","schema_lang":"pgschema"}|} with
  | Ok (Protocol.Validate r) ->
    check_bool "pgschema" true (r.Protocol.schema_lang = Some GP.Frontend.Pgschema)
  | _ -> Alcotest.fail "schema_lang pgschema did not parse");
  (match Protocol.parse {|{"op":"validate","schema":"s","graph":"g","schema_lang":"sdl"}|} with
  | Ok (Protocol.Validate r) ->
    check_bool "sdl" true (r.Protocol.schema_lang = Some GP.Frontend.Sdl)
  | _ -> Alcotest.fail "schema_lang sdl did not parse");
  (match Protocol.parse {|{"op":"validate","schema":"s","graph":"g"}|} with
  | Ok (Protocol.Validate r) ->
    check_bool "absent means inferred" true (r.Protocol.schema_lang = None)
  | _ -> Alcotest.fail "minimal validate did not parse");
  match Protocol.parse {|{"op":"validate","schema":"s","graph":"g","schema_lang":"cypher"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown schema_lang accepted"

let test_protocol_defaults () =
  match Protocol.parse {|{"op":"validate","schema":"s","graph":"g"}|} with
  | Ok (Protocol.Validate r) ->
    check_bool "engine default" true (r.Protocol.engine = GP.Validate.Indexed);
    check_bool "mode default" true (r.Protocol.mode = GP.Validate.Strong);
    check_bool "no budget" true (r.Protocol.deadline_ms = None && r.Protocol.max_violations = None);
    check_bool "not snapshot" true (not r.Protocol.snapshot)
  | _ -> Alcotest.fail "minimal validate did not parse"

let test_protocol_rejects () =
  let bad line =
    match Protocol.parse line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted: %s" line
  in
  bad "not json";
  bad {|[1,2]|};
  bad {|{"no_op":1}|};
  bad {|{"op":"frobnicate"}|};
  bad {|{"op":"validate"}|};
  bad {|{"op":"validate","schema":"s"}|};
  bad {|{"op":"validate","schema":"s","graph":"g","engine":"warp"}|};
  bad {|{"op":"validate","schema":"s","graph":"g","mode":"loose"}|};
  bad {|{"op":"validate","schema":"s","graph":"g","domains":"four"}|};
  bad {|{"op":"validate","schema":1,"graph":"g"}|}

(* ---- the LRU cache (satellite: hit/miss, eviction order,
   content-hash invalidation) ---- *)

let temp_with content =
  let path = Filename.temp_file "gpgs_cache" ".txt" in
  write_file path content;
  path

let test_cache_hit_miss () =
  let c = Cache.create ~capacity:4 in
  let a = temp_with "alpha" in
  let load ~content = String.uppercase_ascii (Lazy.force content) in
  let v1 = Result.get_ok (Cache.find c ~key:"a" ~path:a ~load) in
  check_string "loaded" "ALPHA" v1.Cache.value;
  let v2 = Result.get_ok (Cache.find c ~key:"a" ~path:a ~load) in
  check_string "cached" "ALPHA" v2.Cache.value;
  let s = Cache.stats c in
  check_int "hits" 1 s.Cache.hits;
  check_int "misses" 1 s.Cache.misses;
  check_int "size" 1 s.Cache.size;
  check_int "no invalidations" 0 s.Cache.invalidations;
  Sys.remove a

let test_cache_invalidation () =
  let c = Cache.create ~capacity:4 in
  let a = temp_with "one" in
  let load ~content = Lazy.force content in
  let v1 = Result.get_ok (Cache.find c ~key:"a" ~path:a ~load) in
  check_string "first content" "one" v1.Cache.value;
  write_file a "two";
  let v2 = Result.get_ok (Cache.find c ~key:"a" ~path:a ~load) in
  check_string "rebuilt on content change" "two" v2.Cache.value;
  check_bool "digest changed" true (not (String.equal v1.Cache.digest v2.Cache.digest));
  let s = Cache.stats c in
  check_int "invalidations" 1 s.Cache.invalidations;
  check_int "misses (initial + rebuild)" 2 s.Cache.misses;
  check_int "hits" 0 s.Cache.hits;
  check_int "size" 1 s.Cache.size;
  Sys.remove a

let test_cache_eviction_order () =
  let c = Cache.create ~capacity:2 in
  let load ~content = Lazy.force content in
  let a = temp_with "A" and b = temp_with "B" and d = temp_with "D" in
  ignore (Cache.find c ~key:"a" ~path:a ~load);
  ignore (Cache.find c ~key:"b" ~path:b ~load);
  (* touch a so b becomes the least recently used *)
  ignore (Cache.find c ~key:"a" ~path:a ~load);
  ignore (Cache.find c ~key:"d" ~path:d ~load);
  let s = Cache.stats c in
  check_int "one eviction" 1 s.Cache.evictions;
  check_int "size at capacity" 2 s.Cache.size;
  (* a must still be resident (hit), b must be gone (miss) *)
  let before = (Cache.stats c).Cache.hits in
  ignore (Cache.find c ~key:"a" ~path:a ~load);
  check_int "a survived (LRU was b)" (before + 1) (Cache.stats c).Cache.hits;
  let misses = (Cache.stats c).Cache.misses in
  ignore (Cache.find c ~key:"b" ~path:b ~load);
  check_int "b was evicted" (misses + 1) (Cache.stats c).Cache.misses;
  List.iter Sys.remove [ a; b; d ]

let test_cache_unreadable () =
  let c = Cache.create ~capacity:2 in
  let load ~content = Lazy.force content in
  (match Cache.find c ~key:"x" ~path:"/nonexistent/gpgs/file" ~load with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unreadable path produced a value");
  check_int "nothing cached" 0 (Cache.stats c).Cache.size

let test_cache_uid_generations () =
  let c = Cache.create ~capacity:4 in
  let load ~content = Lazy.force content in
  let a = temp_with "one" in
  let v1 = Result.get_ok (Cache.find c ~key:"a" ~path:a ~load) in
  let v2 = Result.get_ok (Cache.find c ~key:"a" ~path:a ~load) in
  check_int "a hit is the same build (uid stable)" v1.Cache.uid v2.Cache.uid;
  write_file a "two";
  let v3 = Result.get_ok (Cache.find c ~key:"a" ~path:a ~load) in
  check_bool "a rebuild is a new value (uid moves)" true (v3.Cache.uid <> v1.Cache.uid);
  (* identical bytes under another key: same digest, never the same uid
     — that distinction is what snapshot keying relies on *)
  let b = temp_with "two" in
  let v4 = Result.get_ok (Cache.find c ~key:"b" ~path:b ~load) in
  check_string "identical bytes share a digest" v3.Cache.digest v4.Cache.digest;
  check_bool "but never a uid" true (v4.Cache.uid <> v3.Cache.uid);
  List.iter Sys.remove [ a; b ]

let test_cache_single_flight () =
  (* Concurrent lookups of one key must run [load] once: the builder
     holds the per-key latch, the rest park on it and take the built
     entry (as a digest-confirmed hit). *)
  let c = Cache.create ~capacity:4 in
  let a = temp_with "payload" in
  let loads = Atomic.make 0 in
  let load ~content =
    Atomic.incr loads;
    Unix.sleepf 0.05;
    Lazy.force content
  in
  let ds =
    List.init 4 (fun _ -> Domain.spawn (fun () -> Cache.find c ~key:"a" ~path:a ~load))
  in
  List.iter
    (fun d ->
      match Domain.join d with
      | Ok e -> check_string "value" "payload" e.Cache.value
      | Error msg -> Alcotest.fail msg)
    ds;
  check_int "load ran once" 1 (Atomic.get loads);
  check_int "one miss" 1 (Cache.stats c).Cache.misses;
  Sys.remove a

(* ---- service-level byte parity with the CLI ---- *)

let service ?(config = Service.default_config) () = Service.create ~config ()

let test_served_validate_golden () =
  (* the served movies validation must match the pinned CLI golden *)
  let svc = service () in
  let served = Service.handle svc (validate_req ~schema:movies_sdl ~graph:movies_pgf ()) in
  let j = decode served in
  check_string "golden envelope"
    (read_file (in_repo "golden/validate_movies.json"))
    (Json.to_string ~indent:true j ^ "\n");
  check_int "exit" 1 (exit_of j)

let quote = Filename.quote

let cli_validate_args ?(engine = "indexed") ?(mode = "strong") ?extra ~schema ~graph () =
  Printf.sprintf "validate %s %s --engine %s --mode %s%s --format json" (quote schema)
    (quote graph) engine mode
    (match extra with Some e -> " " ^ e | None -> "")

let test_served_parity_engines () =
  let svc = service () in
  List.iter
    (fun engine ->
      let served =
        Service.handle svc (validate_req ~engine ~schema:movies_sdl ~graph:movies_pgf ())
      in
      check_parity ~what:("engine " ^ engine) served
        (run_cli (cli_validate_args ~engine ~schema:movies_sdl ~graph:movies_pgf ())))
    [ "naive"; "linear"; "indexed"; "parallel"; "sharded" ]

let test_served_parity_budgeted () =
  (* an active budget changes the scan counters; the served request must
     still match the CLI run with the same flags *)
  let svc = service () in
  let served =
    Service.handle svc
      (validate_req ~max_violations:1 ~schema:movies_sdl ~graph:movies_pgf ())
  in
  check_parity ~what:"budgeted" served
    (run_cli
       (cli_validate_args ~extra:"--max-violations 1" ~schema:movies_sdl ~graph:movies_pgf ()));
  let served0 =
    Service.handle svc (validate_req ~deadline_ms:0. ~schema:movies_sdl ~graph:movies_pgf ())
  in
  check_parity ~what:"deadline 0" served0
    (run_cli (cli_validate_args ~extra:"--deadline-ms 0" ~schema:movies_sdl ~graph:movies_pgf ()));
  (* the request asked for the deadline itself: no SRV003 *)
  check_bool "no SRV003 for client budgets" false (has_code "SRV003" (decode served0))

let test_served_parity_errors () =
  let svc = service () in
  (* usage error: bad domain count, CLI001 with the CLI's message *)
  let served =
    Service.handle svc (validate_req ~domains:0 ~schema:movies_sdl ~graph:movies_pgf ())
  in
  let j = decode served in
  check_int "usage exit" 2 (exit_of j);
  check_bool "CLI001" true (has_code "CLI001" j);
  (* broken schema: same envelope as the CLI *)
  let broken = in_repo "../examples/broken.graphql" in
  let served = Service.handle svc (validate_req ~schema:broken ~graph:movies_pgf ()) in
  check_parity ~what:"broken schema" served
    (run_cli
       (Printf.sprintf "validate %s %s --format json" (quote broken) (quote movies_pgf)));
  (* unreadable graph file: IO001, input-error class *)
  let served = Service.handle svc (validate_req ~schema:movies_sdl ~graph:"/nonexistent.pgf" ()) in
  let j = decode served in
  check_int "missing graph exit" 2 (exit_of j);
  check_bool "IO001" true (has_code "IO001" j);
  (* unreadable schema file: IO001 without a CLI equivalent (cmdliner
     rejects the path before the subcommand runs) *)
  let served = Service.handle svc (validate_req ~schema:"/nonexistent.graphql" ~graph:movies_pgf ()) in
  check_int "missing schema exit" 2 (exit_of (decode served))

let test_served_parity_generated =
  QCheck.Test.make ~name:"served validate is byte-identical to the CLI" ~count:8
    QCheck.(
      triple (int_range 1 25) (int_range 0 1000)
        (oneofl [ "indexed"; "linear"; "parallel"; "naive" ]))
    (fun (persons, seed, engine) ->
      let svc = service () in
      let sch_path = Filename.temp_file "gpgs_social" ".graphql" in
      let pgf_path = Filename.temp_file "gpgs_social" ".pgf" in
      write_file sch_path GP.Social.schema_text;
      let g = GP.Social.generate ~seed ~persons () in
      (* corrupt half the runs so parity also covers findings *)
      let g =
        if seed mod 2 = 0 then
          GP.Social.corrupt_uniformly ~seed ~rate:0.2 (GP.Social.schema ()) g
        else g
      in
      write_file pgf_path (GP.Pgf.print g);
      let served = Service.handle svc (validate_req ~engine ~schema:sch_path ~graph:pgf_path ()) in
      let cli = run_cli (cli_validate_args ~engine ~schema:sch_path ~graph:pgf_path ()) in
      check_parity ~what:(Printf.sprintf "persons=%d seed=%d %s" persons seed engine) served cli;
      Sys.remove sch_path;
      Sys.remove pgf_path;
      true)

let test_served_snapshot_parity () =
  let svc = service () in
  let snap_path = Filename.temp_file "gpgs_snap" ".pgsnap" in
  let g = match GP.Pgf.load movies_pgf with Ok g -> g | Error _ -> Alcotest.fail "movies.pgf" in
  let st = GP.Symtab.create () in
  ignore (GP.Snapshot_io.write st (GP.Snapshot.build st g) snap_path);
  List.iter
    (fun engine ->
      let served =
        Service.handle svc
          (validate_req ~engine ~snapshot:true ~schema:movies_sdl ~graph:snap_path ())
      in
      check_parity ~what:("snapshot " ^ engine) served
        (run_cli
           (cli_validate_args ~engine ~extra:"--snapshot" ~schema:movies_sdl ~graph:snap_path ())))
    [ "indexed"; "sharded"; "indexed" ];
  (* every engine takes the snapshot from the cache: the first request
     loads it, the sharded one and the repeat hit it *)
  let s = Service.snapshot_stats svc in
  check_int "one load" 1 s.Cache.misses;
  check_int "two hits" 2 s.Cache.hits;
  check_int "one cached snapshot" 1 s.Cache.size;
  (* naive + snapshot is the CLI's usage error, same code *)
  let served =
    Service.handle svc
      (validate_req ~engine:"naive" ~snapshot:true ~schema:movies_sdl ~graph:snap_path ())
  in
  let j = decode served in
  check_int "naive snapshot exit" 2 (exit_of j);
  check_bool "CLI001" true (has_code "CLI001" j);
  Sys.remove snap_path

let test_snapshot_cache_keyed_by_plan_instance () =
  (* The lenient and strict plans for one schema, and successive
     recompiles after an eviction, share a schema content digest while
     holding different symtabs.  Loading a snapshot interns graph-only
     labels (here :Alien) into the symtab of the exact plan instance
     that loads it, so a snapshot cache keyed by digest served the
     cached snapshot to the *other* plan instances, whose symtabs never
     interned those ids — violation rendering then crashed the request
     (SRV005) or printed wrong names.  The cache key is the plan
     entry's uid now; every plan generation must get a snapshot loaded
     through its own symtab. *)
  let config = { Service.default_config with Service.plan_capacity = 1 } in
  let svc = service ~config () in
  let sdl =
    temp_with "type Person @key(fields: [\"name\"]) {\n  name: String! @required\n}\n"
  in
  let pgf = temp_with "node n0 :Person {name: \"Ripley\"}\nnode n1 :Alien {name: \"Xeno\"}\n" in
  let snap_path = Filename.temp_file "gpgs_snap_uid" ".pgsnap" in
  let g = match GP.Pgf.load pgf with Ok g -> g | Error _ -> Alcotest.fail "fixture pgf" in
  let st = GP.Symtab.create () in
  ignore (GP.Snapshot_io.write st (GP.Snapshot.build st g) snap_path);
  let req ?lenient () =
    validate_req ~engine:"indexed" ~snapshot:true ?lenient ~schema:sdl ~graph:snap_path ()
  in
  let first = decode (Service.handle svc (req ())) in
  check_bool "first run reports, not crashes" false (has_code "SRV005" first);
  (* same schema bytes, different plan instance: leniency *)
  let lenient = decode (Service.handle svc (req ~lenient:true ())) in
  check_bool "lenient plan does not crash on the cached snapshot" false
    (has_code "SRV005" lenient);
  (* same schema bytes, different plan instance: evict (capacity 1) and
     recompile *)
  let other_sdl =
    temp_with "type Movie @key(fields: [\"title\"]) {\n  title: String! @required\n}\n"
  in
  ignore (Service.handle svc (validate_req ~schema:other_sdl ~graph:pgf ()));
  let third = decode (Service.handle svc (req ())) in
  check_bool "recompiled plan does not crash on the cached snapshot" false
    (has_code "SRV005" third);
  check_string "envelope stable across plan generations" (Json.to_string first)
    (Json.to_string third);
  List.iter Sys.remove [ sdl; pgf; snap_path; other_sdl ]

let test_text_graph_rebased_per_plan () =
  (* A text graph is frozen against a symbol table private to its
     request and rebased onto the plan entry's own under the entry's
     lock.  The lenient and strict entries of one schema hold different
     symtabs, so each must get its own rebase: graph-only names (the
     :Alien label, the rank and w keys) must render exactly as the
     one-shot CLI renders them, whichever entry asked first. *)
  let svc = service () in
  let sdl =
    temp_with
      "type Person @key(fields: [\"name\"]) {\n\
      \  name: String! @required\n\
      \  likes: [Person]\n\
       }\n"
  in
  let pgf =
    temp_with
      "node n0 :Person {name: \"Ripley\", rank: 3}\n\
       node n1 :Alien {name: \"Xeno\"}\n\
       node n2 :Person {name: \"Ripley\"}\n\
       edge n0 -> n1 :likes {w: 1}\n\
       edge n2 -> n0 :hunts\n"
  in
  List.iter
    (fun lenient ->
      let served =
        Service.handle svc
          (validate_req ?lenient:(if lenient then Some true else None) ~schema:sdl ~graph:pgf ())
      in
      check_parity
        ~what:(if lenient then "lenient entry" else "strict entry")
        served
        (run_cli
           (cli_validate_args ?extra:(if lenient then Some "--lenient" else None) ~schema:sdl
              ~graph:pgf ())))
    [ false; true; false; true ];
  check_int "two plan entries" 2 (Service.plan_stats svc).Cache.size;
  List.iter Sys.remove [ sdl; pgf ]

let test_snapshot_pools_per_plan () =
  (* One snapshot file, validated through the lenient and the strict
     entry of one schema.  Each entry maps the file into its own symtab:
     a cached snapshot's property pool translates the file's key ids
     into that entry's symbols, so the graph-only names (the :Alien
     label, the rank and w keys, the nested list value) must render
     exactly as the one-shot CLI renders them, for both entries, on the
     first request and on every cache hit after it. *)
  let svc = service () in
  let sdl =
    temp_with
      "type Person @key(fields: [\"name\", \"score\"]) {\n\
      \  name: String! @required\n\
      \  score: Float\n\
      \  likes(w: Int): [Person]\n\
       }\n"
  in
  let pgf =
    temp_with
      "node n0 :Person {name: \"Ripley\", rank: 3, score: -0.0}\n\
       node n1 :Alien {name: \"Xeno\", tags: [[nan], []]}\n\
       node n2 :Person {name: \"Ripley\", score: 0.0}\n\
       edge n0 -> n1 :likes {w: \"one\"}\n\
       edge n2 -> n0 :hunts {w: 2}\n"
  in
  let snap_path = Filename.temp_file "gpgs_snap_pools" ".pgsnap" in
  let g = match GP.Pgf.load pgf with Ok g -> g | Error _ -> Alcotest.fail "fixture pgf" in
  let st = GP.Symtab.create () in
  ignore (GP.Snapshot_io.write st (GP.Snapshot.build st g) snap_path);
  List.iter
    (fun lenient ->
      let served =
        Service.handle svc
          (validate_req ?lenient:(if lenient then Some true else None) ~snapshot:true
             ~schema:sdl ~graph:snap_path ())
      in
      check_parity
        ~what:(if lenient then "lenient entry" else "strict entry")
        served
        (run_cli
           (cli_validate_args
              ~extra:(if lenient then "--snapshot --lenient" else "--snapshot")
              ~schema:sdl ~graph:snap_path ())))
    [ false; true; false; true ];
  check_int "two plan entries" 2 (Service.plan_stats svc).Cache.size;
  let s = Service.snapshot_stats svc in
  check_int "one cached snapshot per entry" 2 s.Cache.size;
  check_int "the repeats hit the cache" 2 s.Cache.hits;
  List.iter Sys.remove [ sdl; pgf; snap_path ]

let test_plan_cache_invalidation_end_to_end () =
  let svc = service () in
  let sch_path = Filename.temp_file "gpgs_inval" ".graphql" in
  write_file sch_path (read_file movies_sdl);
  let req = validate_req ~schema:sch_path ~graph:movies_pgf () in
  ignore (Service.handle svc req);
  ignore (Service.handle svc req);
  let s = Service.plan_stats svc in
  check_int "one compile" 1 s.Cache.misses;
  check_int "one cache hit" 1 s.Cache.hits;
  (* touch the schema content: same semantics, different digest *)
  write_file sch_path (read_file movies_sdl ^ "\n# revised\n");
  let served = Service.handle svc req in
  check_int "still validates" 1 (exit_of (decode served));
  let s = Service.plan_stats svc in
  check_int "invalidated" 1 s.Cache.invalidations;
  check_int "recompiled" 2 s.Cache.misses;
  Sys.remove sch_path

(* ---- the PG-Schema frontend through the wire protocol ---- *)

let test_served_pgschema_parity () =
  let svc = service () in
  (* explicit schema_lang and extension inference must serve the same
     envelope the CLI prints, and the same violations as the SDL twin *)
  let explicit =
    Service.handle svc
      (validate_req ~schema_lang:"pgschema" ~schema:movies_pgs ~graph:movies_pgf ())
  in
  check_parity ~what:"pgschema explicit" explicit
    (run_cli
       (Printf.sprintf "validate %s %s --schema-lang pgschema --format json"
          (Filename.quote movies_pgs) (Filename.quote movies_pgf)));
  let inferred = Service.handle svc (validate_req ~schema:movies_pgs ~graph:movies_pgf ()) in
  check_string "inference = explicit" explicit inferred;
  let sdl = Service.handle svc (validate_req ~schema:movies_sdl ~graph:movies_pgf ()) in
  check_bool "same violation codes as the SDL twin" true
    (codes_of (decode sdl) = codes_of (decode explicit));
  (* the two explicit/inferred requests share one plan cache entry *)
  let s = Service.plan_stats svc in
  check_int "one pgschema compile" 2 s.Cache.misses;
  check_int "inferred request hit the cache" 1 s.Cache.hits

let test_stats_frontend_tags () =
  let svc = service () in
  ignore (Service.handle svc (validate_req ~schema:movies_sdl ~graph:movies_pgf ()));
  ignore (Service.handle svc (validate_req ~schema:movies_pgs ~graph:movies_pgf ()));
  let j = decode (Service.handle svc {|{"op":"stats"}|}) in
  let entries =
    match Json.member "summary" j |> Json.member "plan_entries" with
    | Json.List es -> es
    | _ -> Alcotest.fail "stats lacks plan_entries"
  in
  check_int "two resident plans" 2 (List.length entries);
  let frontend_of schema =
    List.find_map
      (fun e ->
        match (Json.member "schema" e, Json.member "frontend" e) with
        | Json.String s, Json.String f when s = schema -> Some f
        | _ -> None)
      entries
  in
  check_bool "sdl entry tagged" true (frontend_of movies_sdl = Some "sdl");
  check_bool "pgschema entry tagged" true (frontend_of movies_pgs = Some "pgschema");
  List.iter
    (fun e ->
      match Json.member "lenient" e with
      | Json.Bool false -> ()
      | _ -> Alcotest.fail "strict entries must carry lenient=false")
    entries

let test_server_default_deadline_srv003 () =
  let config = { Service.default_config with Service.default_deadline_ms = Some 0. } in
  let svc = service ~config () in
  (* no budget in the request: the server's default applies and, having
     cut the run short, is reported as SRV003 *)
  let j = decode (Service.handle svc (validate_req ~schema:movies_sdl ~graph:movies_pgf ())) in
  check_bool "VAL001 (incomplete)" true (has_code "VAL001" j);
  check_bool "SRV003 (server deadline)" true (has_code "SRV003" j);
  check_int "budget exit" 3 (exit_of j);
  (* a request carrying its own deadline never gets SRV003 *)
  let j =
    decode
      (Service.handle svc (validate_req ~deadline_ms:0. ~schema:movies_sdl ~graph:movies_pgf ()))
  in
  check_bool "VAL001" true (has_code "VAL001" j);
  check_bool "no SRV003" false (has_code "SRV003" j)

let test_debug_ops_gate () =
  let svc = service () in
  let j = decode (Service.handle svc {|{"op":"boom"}|}) in
  check_bool "boom disabled -> SRV001" true (has_code "SRV001" j);
  let config = { Service.default_config with Service.debug_ops = true } in
  let svc = service ~config () in
  let j = decode (Service.handle svc {|{"op":"boom"}|}) in
  check_bool "boom -> SRV005" true (has_code "SRV005" j);
  check_int "crash exit" 3 (exit_of j)

let test_malformed_is_srv001 () =
  let svc = service () in
  let j = decode (Service.handle svc "not json at all") in
  check_bool "SRV001" true (has_code "SRV001" j);
  check_int "input exit" 2 (exit_of j)

(* ---- live server: sockets, faults, drain ---- *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let send_raw fd s =
  let b = Bytes.of_string s in
  let rec go pos = if pos < Bytes.length b then go (pos + Unix.write fd b pos (Bytes.length b - pos)) in
  go 0

let send_line fd s = send_raw fd (s ^ "\n")

(* Read one response line; "" means the server closed the connection. *)
let recv_line fd =
  let buf = Buffer.create 256 in
  let one = Bytes.create 1 in
  let rec go () =
    match Unix.read fd one 0 1 with
    | 0 -> Buffer.contents buf
    | _ ->
      if Bytes.get one 0 = '\n' then Buffer.contents buf
      else begin
        Buffer.add_char buf (Bytes.get one 0);
        go ()
      end
  in
  go ()

let roundtrip fd line =
  send_line fd line;
  recv_line fd

let with_server ?(workers = 2) ?(max_pending = 16) ?(max_request_bytes = 1 lsl 20)
    ?(watchdog_grace_ms = 10_000.) ?(stop = Atomic.make false)
    ?(svc_config = Service.default_config) f =
  let path = Filename.temp_file "gpgs_srv" ".sock" in
  let ready = Atomic.make false in
  let svc = Service.create ~config:svc_config () in
  let config =
    {
      (Server.default_config (Server.Unix_socket path)) with
      Server.workers;
      max_pending;
      max_request_bytes;
      read_timeout_ms = 10_000.;
      drain_grace_ms = 3_000.;
      watchdog_grace_ms;
    }
  in
  let daemon =
    Domain.spawn (fun () ->
      Server.run ~stop ~on_ready:(fun _ -> Atomic.set ready true) config svc)
  in
  let rec await n =
    if Atomic.get ready then ()
    else if n = 0 then Alcotest.fail "server never became ready"
    else begin
      Unix.sleepf 0.01;
      await (n - 1)
    end
  in
  await 1000;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join daemon;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path svc)

let test_live_roundtrip () =
  with_server (fun path _svc ->
    let fd = connect path in
    let ping = decode (roundtrip fd {|{"op":"ping"}|}) in
    check_int "ping exit" 0 (exit_of ping);
    let served = roundtrip fd (validate_req ~schema:movies_sdl ~graph:movies_pgf ()) in
    check_string "served over the wire = golden"
      (read_file (in_repo "golden/validate_movies.json"))
      (Json.to_string ~indent:true (decode served) ^ "\n");
    (* several requests on one connection *)
    check_int "second ping" 0 (exit_of (decode (roundtrip fd {|{"op":"ping"}|})));
    Unix.close fd)

let test_live_garbage_frame_keeps_connection () =
  with_server (fun path _svc ->
    let fd = connect path in
    let j = decode (roundtrip fd "{{{ definitely not json") in
    check_bool "SRV001" true (has_code "SRV001" j);
    (* the connection survives a malformed frame: newline framing
       resynchronizes on the next line *)
    check_int "still serving" 0 (exit_of (decode (roundtrip fd {|{"op":"ping"}|})));
    Unix.close fd)

let test_live_oversized_frame_closes () =
  with_server ~max_request_bytes:128 (fun path _svc ->
    let fd = connect path in
    (* the server may report and close before the whole flood is
       written; the tail of the send then fails with EPIPE, which is
       exactly the behaviour under test *)
    (try
       send_raw fd (String.make 4096 'x');
       send_raw fd "\n"
     with Unix.Unix_error (Unix.EPIPE, _, _) -> ());
    let j = decode (recv_line fd) in
    check_bool "SRV002" true (has_code "SRV002" j);
    check_int "input exit" 2 (exit_of j);
    (* past the report the server closes: EOF *)
    check_string "closed after oversized" "" (recv_line fd);
    Unix.close fd;
    (* and the server is still alive for new clients *)
    let fd = connect path in
    check_int "fresh connection works" 0 (exit_of (decode (roundtrip fd {|{"op":"ping"}|})));
    Unix.close fd)

let test_live_mid_request_disconnect () =
  with_server (fun path _svc ->
    (* a client that dies mid-frame must not hurt the server *)
    let fd = connect path in
    send_raw fd {|{"op":"vali|};
    Unix.close fd;
    Unix.sleepf 0.05;
    let fd = connect path in
    check_int "server survived" 0 (exit_of (decode (roundtrip fd {|{"op":"ping"}|})));
    Unix.close fd)

let test_live_crash_injected_job () =
  let svc_config = { Service.default_config with Service.debug_ops = true } in
  with_server ~svc_config (fun path _svc ->
    let fd = connect path in
    let j = decode (roundtrip fd {|{"op":"boom"}|}) in
    check_bool "SRV005" true (has_code "SRV005" j);
    check_int "crash exit" 3 (exit_of j);
    (* the worker survived its crashed job *)
    check_int "same connection serves on" 0 (exit_of (decode (roundtrip fd {|{"op":"ping"}|})));
    Unix.close fd)

let test_live_shedding () =
  let svc_config = { Service.default_config with Service.debug_ops = true } in
  with_server ~workers:1 ~max_pending:1 ~svc_config (fun path _svc ->
    (* occupy the only worker... *)
    let busy = connect path in
    send_line busy {|{"op":"sleep","seconds":1.2}|};
    Unix.sleepf 0.3;
    (* ...fill the pending queue... *)
    let queued = connect path in
    Unix.sleepf 0.1;
    (* ...and the next connection must be shed with SRV004 *)
    let extra = connect path in
    let j = decode (recv_line extra) in
    check_bool "SRV004" true (has_code "SRV004" j);
    check_int "overload exit" 3 (exit_of j);
    check_string "shed connection closed" "" (recv_line extra);
    Unix.close extra;
    (* the busy request still completes *)
    check_int "sleep completed" 0 (exit_of (decode (recv_line busy)));
    (* a worker owns a connection to EOF, so the queued one is picked up
       once the busy connection closes *)
    Unix.close busy;
    check_int "queued served" 0 (exit_of (decode (roundtrip queued {|{"op":"ping"}|})));
    Unix.close queued)

let test_live_storm_then_drain () =
  let requests_per_client = 10 and clients = 6 in
  let path_ref = ref "" in
  with_server ~workers:3 ~max_pending:64 (fun path _svc ->
    path_ref := path;
    let storm () =
      let fd = connect path in
      let ok = ref 0 in
      for _ = 1 to requests_per_client do
        let j = decode (roundtrip fd (validate_req ~schema:movies_sdl ~graph:movies_pgf ())) in
        if exit_of j = 1 && has_code "WS1" j then incr ok
      done;
      Unix.close fd;
      !ok
    in
    let domains = List.init clients (fun _ -> Domain.spawn storm) in
    let total = List.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
    check_int "every stormed request got the right envelope"
      (clients * requests_per_client) total);
  (* with_server has set stop and joined: the drain is complete and the
     socket must be gone *)
  check_bool "socket unlinked after drain" false (Sys.file_exists !path_ref);
  match connect !path_ref with
  | fd ->
    Unix.close fd;
    Alcotest.fail "server still accepting after drain"
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) -> ()

(* The watchdog beats from the accepting domain.  A lone connection's
   CPU-bound validate (the naive engine on a 200-person graph, about 2 s)
   must not starve it: a second connection's wedged request is still
   cancelled within the grace plus one beat of the accept loop's 200 ms
   select, while the validate is still running.  Stopping then drains:
   the unbudgeted validate is waited for and answered. *)
let test_live_watchdog_beats_while_computing () =
  let svc_config = { Service.default_config with Service.debug_ops = true } in
  let grace_s = 0.1 and beat_s = 0.2 and slack_s = 0.4 in
  let sch_path = Filename.temp_file "gpgs_busy" ".graphql" in
  let pgf_path = Filename.temp_file "gpgs_busy" ".pgf" in
  write_file sch_path GP.Social.schema_text;
  write_file pgf_path (GP.Pgf.print (GP.Social.generate ~persons:200 ()));
  let stop = Atomic.make false in
  with_server ~stop ~watchdog_grace_ms:(grace_s *. 1000.) ~svc_config (fun path _svc ->
    let busy = connect path in
    let t0 = Unix.gettimeofday () in
    send_line busy (validate_req ~engine:"naive" ~schema:sch_path ~graph:pgf_path ());
    Unix.sleepf 0.1;
    let fd = connect path in
    let t1 = Unix.gettimeofday () in
    let j = decode (roundtrip fd {|{"op":"stall","seconds":30}|}) in
    let stalled_s = Unix.gettimeofday () -. t1 in
    check_bool "SRV006" true (has_code "SRV006" j);
    check_bool
      (Printf.sprintf "cancelled within the grace plus one beat (%.3f s)" stalled_s)
      true
      (stalled_s < grace_s +. beat_s +. slack_s);
    check_bool "the validate is still computing" true
      (match Unix.select [ busy ] [] [] 0. with [], _, _ -> true | _ -> false);
    Atomic.set stop true;
    let v = decode (recv_line busy) in
    check_int "the drain waits for the validate" 0 (exit_of v);
    check_bool "the validate took at least 0.5 s" true (Unix.gettimeofday () -. t0 >= 0.5);
    Unix.close busy;
    Unix.close fd);
  Sys.remove sch_path;
  Sys.remove pgf_path

(* [health] reports the pool as it is: a lone connection is served on
   the accepting domain; a second connection held busy starts a worker
   domain; a third, past the host's domain count, a thread instead; once
   all close the worker domains have ended, leaving the accepting
   domain's parked worker. *)
let test_live_health_reports_the_pool () =
  let svc_config = { Service.default_config with Service.debug_ops = true } in
  let cores = Domain.recommended_domain_count () in
  with_server ~workers:3 ~svc_config (fun path _svc ->
    let pool fd =
      let s = Json.member "summary" (decode (roundtrip fd {|{"op":"health"}|})) in
      let int_field name =
        match Json.member name s with
        | Json.Int n -> n
        | _ -> Alcotest.failf "health summary lacks int field %S" name
      in
      (int_field "domains", int_field "live_workers", int_field "in_flight", int_field "workers")
    in
    let lone = connect path in
    let domains, live, in_flight, workers = pool lone in
    check_int "a lone connection: one domain" 1 domains;
    check_int "a lone connection: one live worker" 1 live;
    check_int "a lone connection: one connection served" 1 in_flight;
    check_int "configured workers" 3 workers;
    let hold () =
      let fd = connect path in
      send_line fd {|{"op":"sleep","seconds":1.0}|};
      Unix.sleepf 0.2;
      fd
    in
    let busy = hold () in
    let domains, live, in_flight, _ = pool lone in
    check_int "two connections: two domains" (min 2 cores) domains;
    check_int "two connections: two live workers" 2 live;
    check_int "two connections: two served" 2 in_flight;
    let busier = hold () in
    let domains, live, in_flight, _ = pool lone in
    check_int "three connections: no more domains than cores" (min 3 cores) domains;
    check_int "three connections: three live workers" 3 live;
    check_int "three connections: three served" 3 in_flight;
    List.iter
      (fun fd ->
        check_int "sleep completed" 0 (exit_of (decode (recv_line fd)));
        Unix.close fd)
      [ busy; busier ];
    Unix.close lone;
    (* a worker domain ends once its connection closes with none
       queued; a fresh connection then finds only the accepting domain *)
    let rec settle n =
      let fd = connect path in
      let p = pool fd in
      Unix.close fd;
      match p with
      | 1, 1, _, _ -> p
      | _ when n = 0 -> p
      | _ ->
        Unix.sleepf 0.02;
        settle (n - 1)
    in
    let domains, live, _, _ = settle 100 in
    check_int "all closed: the worker domains have ended" 1 domains;
    check_int "all closed: one live worker" 1 live)

(* Read one response a chunk at a time: every byte up to the read that
   brings a newline, so a line that does not end there shows. *)
let recv_response fd =
  let buf = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      if not (Bytes.contains (Bytes.sub chunk 0 n) '\n') then go ()
  in
  go ();
  Buffer.contents buf

let test_live_large_report () =
  let pgf = Filename.temp_file "gpgs_large" ".pgf" in
  write_file pgf (GP.Pgf.print (GP.Social.generate ~seed:5 ~persons:300 ()));
  Fun.protect
    ~finally:(fun () -> Sys.remove pgf)
    (fun () ->
      let req = validate_req ~schema:movies_sdl ~graph:pgf () in
      let expected = Service.handle (service ()) req in
      check_bool "the report spans many output buffers" true
        (String.length expected > 64 * 8192);
      let cli = run_cli (cli_validate_args ~schema:movies_sdl ~graph:pgf ()) in
      with_server (fun path _svc ->
        let once what =
          let fd = connect path in
          send_line fd req;
          let served = recv_response fd in
          Unix.close fd;
          check_int (what ^ ": one line") 1
            (List.length (String.split_on_char '\n' served) - 1);
          check_string (what ^ ": served = Service.handle") expected served;
          check_parity ~what (String.sub served 0 (String.length served - 1)) cli
        in
        once "plain";
        let p =
          GP.Fault.plan [ GP.Fault.on ~trigger:(GP.Fault.Every 3) GP.Fault.Write (GP.Fault.Partial 2) ]
        in
        GP.Fault.with_plan p (fun () -> once "partial writes");
        check_bool "the schedule cut writes short" true (GP.Fault.injected p GP.Fault.Write > 0);
        (* A client that leaves mid-response costs its own connection
           only: a connection opened before it and one opened after it
           are both answered. *)
        let before = connect path in
        check_int "earlier connection" 0 (exit_of (decode (roundtrip before {|{"op":"ping"}|})));
        let leaver = connect path in
        send_line leaver req;
        let head = Bytes.create 4096 in
        check_bool "the response had begun" true (Unix.read leaver head 0 4096 > 0);
        Unix.close leaver;
        check_int "earlier connection, after" 0
          (exit_of (decode (roundtrip before {|{"op":"ping"}|})));
        Unix.close before;
        once "next connection"))

let suite =
  [
    Alcotest.test_case "protocol: requests parse" `Quick test_protocol_parse_ok;
    Alcotest.test_case "protocol: defaults match the CLI" `Quick test_protocol_defaults;
    Alcotest.test_case "protocol: malformed requests rejected" `Quick test_protocol_rejects;
    Alcotest.test_case "protocol: schema_lang field" `Quick test_protocol_schema_lang;
    Alcotest.test_case "cache: hit and miss counters" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache: content-hash invalidation" `Quick test_cache_invalidation;
    Alcotest.test_case "cache: LRU eviction order" `Quick test_cache_eviction_order;
    Alcotest.test_case "cache: unreadable file caches nothing" `Quick test_cache_unreadable;
    Alcotest.test_case "cache: uid moves with every rebuild" `Quick test_cache_uid_generations;
    Alcotest.test_case "cache: concurrent lookups build once" `Quick test_cache_single_flight;
    Alcotest.test_case "served validate matches the pinned golden" `Quick
      test_served_validate_golden;
    Alcotest.test_case "served = CLI bytes for every engine" `Quick test_served_parity_engines;
    Alcotest.test_case "served = CLI bytes under budgets" `Quick test_served_parity_budgeted;
    Alcotest.test_case "served = CLI bytes on errors" `Quick test_served_parity_errors;
    QCheck_alcotest.to_alcotest test_served_parity_generated;
    Alcotest.test_case "served = CLI bytes on snapshots" `Quick test_served_snapshot_parity;
    Alcotest.test_case "snapshot cache is per plan instance" `Quick
      test_snapshot_cache_keyed_by_plan_instance;
    Alcotest.test_case "text graphs rebase onto each plan instance" `Quick
      test_text_graph_rebased_per_plan;
    Alcotest.test_case "snapshot pools translate per plan instance" `Quick
      test_snapshot_pools_per_plan;
    Alcotest.test_case "plan cache invalidates on schema edit" `Quick
      test_plan_cache_invalidation_end_to_end;
    Alcotest.test_case "served = CLI bytes for the pgschema frontend" `Quick
      test_served_pgschema_parity;
    Alcotest.test_case "stats tags resident plans with their frontend" `Quick
      test_stats_frontend_tags;
    Alcotest.test_case "server default deadline reports SRV003" `Quick
      test_server_default_deadline_srv003;
    Alcotest.test_case "debug ops are gated" `Quick test_debug_ops_gate;
    Alcotest.test_case "malformed request is SRV001" `Quick test_malformed_is_srv001;
    Alcotest.test_case "live: roundtrip over a unix socket" `Quick test_live_roundtrip;
    Alcotest.test_case "live: garbage frame keeps the connection" `Quick
      test_live_garbage_frame_keeps_connection;
    Alcotest.test_case "live: oversized frame reports and closes" `Quick
      test_live_oversized_frame_closes;
    Alcotest.test_case "live: mid-request disconnect" `Quick test_live_mid_request_disconnect;
    Alcotest.test_case "live: crash-injected job is confined" `Quick test_live_crash_injected_job;
    Alcotest.test_case "live: overload sheds with SRV004" `Quick test_live_shedding;
    Alcotest.test_case "live: storm then graceful drain" `Quick test_live_storm_then_drain;
    Alcotest.test_case "live: watchdog beats while a request computes" `Quick
      test_live_watchdog_beats_while_computing;
    Alcotest.test_case "live: health reports the pool as it is" `Quick
      test_live_health_reports_the_pool;
    Alcotest.test_case "live: a large report streams as one line" `Quick test_live_large_report;
  ]
