(* The fault-injection plane (lib/fault) and everything rebased onto it:

   - plane semantics: passthrough inertness, Nth/Every/Prob triggers,
     limits, counters, plan scoping, the GPGS_FAULT clause language;
   - schedule transparency: Chunked and Netio must be observably
     unaffected by EINTR storms and pathological short reads/writes;
   - the crash-point matrix: kill the writer (a forked child) at every
     Durable crash point and prove the destination is absent, the old
     content, or the new content — never a torn file;
   - failure classification: injected device errors surface as IO006
     (fd-level) or IO001 (channel-level) from Snapshot_io, and ENOSPC
     is never retried as transient;
   - a qcheck differential: an installed-but-empty plan is byte-
     invisible to served validation;
   - server self-healing, live: the health op, the watchdog cancelling
     a wedged request (SRV006), EMFILE accept backoff, and a seeded
     chaos storm under which every request is answered or cleanly
     closed and the drain still completes.                              *)

module GP = Graphql_pg
module Json = GP.Json
module Fault = GP.Fault
module Durable = GP.Durable
module Sio = GP.Snapshot_io
module Service = Pg_server.Service
module Server = Pg_server.Server
module Netio = Pg_server.Netio

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let test_dir = Filename.dirname Sys.executable_name
let in_repo rel = Filename.concat test_dir rel
let movies_sdl = in_repo "../examples/movies.graphql"
let movies_pgf = in_repo "../examples/movies.pgf"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let with_temp_file f =
  let path = Filename.temp_file "gpgs_fault" ".tmp" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      try Sys.remove (path ^ ".tmp") with Sys_error _ -> ())
    (fun () -> f path)

(* Every test must leave the global plane empty, even on failure. *)
let clean f = Fun.protect ~finally:Fault.deactivate f

(* ---- plane semantics ---- *)

let test_passthrough_inert () =
  clean @@ fun () ->
  Fault.deactivate ();
  check_bool "no plan active" false (Fault.active ());
  Fault.crash_point "durable.renamed";
  (* still alive *)
  with_temp_file (fun path ->
    let fd = Fault.openfile path [ Unix.O_WRONLY ] 0o644 in
    check_int "write is the primitive" 5 (Fault.write fd (Bytes.of_string "hello") 0 5);
    Fault.fsync fd;
    Unix.close fd;
    let ic = Fault.open_in_bin path in
    let b = Bytes.create 5 in
    check_int "input is the primitive" 5 (Fault.input ic b 0 5);
    check_string "bytes round-trip" "hello" (Bytes.to_string b);
    close_in ic)

let test_nth_trigger_and_counters () =
  clean @@ fun () ->
  with_temp_file @@ fun path ->
  write_file path "abcde";
  let p = Fault.plan [ Fault.on ~trigger:(Fault.Nth 3) Fault.Read (Fault.Errno Unix.EINTR) ] in
  Fault.with_plan p (fun () ->
    let ic = Fault.open_in_bin path in
    let b = Bytes.create 1 in
    let outcomes =
      List.init 5 (fun _ ->
        match Fault.input ic b 0 1 with
        | _ -> "ok"
        | exception Sys_error msg -> msg)
    in
    close_in ic;
    (* the channel surface raises the strerror(3) Sys_error, exactly
       what a real interrupted buffered read looks like *)
    check_string "only the 3rd read faults"
      (String.concat ","
         [ "ok"; "ok"; Unix.error_message Unix.EINTR; "ok"; "ok" ])
      (String.concat "," outcomes));
  check_int "5 read hits" 5 (Fault.hits p Fault.Read);
  check_int "1 injection" 1 (Fault.injected p Fault.Read);
  check_int "open uncounted as read" 0 (Fault.injected p Fault.Open)

let test_every_trigger_with_limit () =
  clean @@ fun () ->
  let p =
    Fault.plan
      [ Fault.on ~trigger:(Fault.Every 2) ~limit:2 Fault.Write (Fault.Errno Unix.EAGAIN) ]
  in
  let rd, wr = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close rd;
      Unix.close wr)
    (fun () ->
      Fault.with_plan p (fun () ->
        let b = Bytes.of_string "x" in
        let outcomes =
          List.init 6 (fun _ ->
            match Fault.write wr b 0 1 with
            | _ -> "ok"
            | exception Unix.Unix_error (Unix.EAGAIN, _, _) -> "eagain")
        in
        (* Every 2 fires on hits 2, 4, 6 — but the limit caps it at 2 *)
        check_string "every-2nd write, twice" "ok,eagain,ok,eagain,ok,ok"
          (String.concat "," outcomes)));
  check_int "6 write hits" 6 (Fault.hits p Fault.Write);
  check_int "2 injections" 2 (Fault.injected p Fault.Write)

let test_partial_transfers () =
  clean @@ fun () ->
  let rd, wr = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close rd;
      Unix.close wr)
    (fun () ->
      let p =
        Fault.plan
          [
            Fault.on Fault.Write (Fault.Partial 2);
            Fault.on Fault.Read (Fault.Partial 1);
          ]
      in
      Fault.with_plan p (fun () ->
        let b = Bytes.of_string "hello" in
        check_int "write shortened to 2" 2 (Fault.write wr b 0 5);
        let buf = Bytes.create 5 in
        check_int "read shortened to 1" 1 (Fault.read rd buf 0 5);
        check_string "the right byte" "h" (Bytes.sub_string buf 0 1)))

let test_prob_is_seed_deterministic () =
  clean @@ fun () ->
  let schedule seed =
    let p =
      Fault.plan ~seed [ Fault.on ~trigger:(Fault.Prob 0.3) Fault.Read (Fault.Errno Unix.EIO) ]
    in
    let fd = Unix.openfile "/dev/zero" [ Unix.O_RDONLY ] 0 in
    let buf = Bytes.create 1 in
    let fired =
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Fault.with_plan p (fun () ->
            List.init 200 (fun _ ->
              match Fault.read fd buf 0 1 with
              | _ -> false
              | exception Unix.Unix_error (Unix.EIO, _, _) -> true)))
    in
    (fired, Fault.injected p Fault.Read)
  in
  let a, na = schedule 42 in
  let b, nb = schedule 42 in
  let c, _ = schedule 43 in
  check_bool "same seed, same schedule" true (a = b);
  check_int "same seed, same injection count" na nb;
  check_bool "some fired" true (na > 0);
  check_bool "not all fired" true (na < 200);
  check_bool "different seed, different schedule" false (a = c)

let test_with_plan_restores () =
  clean @@ fun () ->
  let outer = Fault.plan [ Fault.on Fault.Write (Fault.Partial 1) ] in
  let inner = Fault.plan [] in
  Fault.activate outer;
  Fault.with_plan inner (fun () -> check_bool "inner active" true (Fault.active ()));
  let rd, wr = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close rd;
      Unix.close wr)
    (fun () ->
      check_int "outer plan restored (short write)" 1
        (Fault.write wr (Bytes.of_string "abc") 0 3);
      (match Fault.with_plan inner (fun () -> failwith "boom") with
      | _ -> Alcotest.fail "thunk should raise"
      | exception Failure _ -> ());
      check_int "restored after a raise too" 1 (Fault.write wr (Bytes.of_string "abc") 0 3));
  Fault.deactivate ();
  check_bool "deactivated" false (Fault.active ())

let test_of_spec () =
  clean @@ fun () ->
  (match Fault.of_spec "seed=42; read:eintr@3; write:partial=1%5; accept:emfilex2; crash@durable.renamed" with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "good spec rejected: %s" msg);
  List.iter
    (fun bad ->
      match Fault.of_spec bad with
      | Ok _ -> Alcotest.failf "bad spec accepted: %S" bad
      | Error _ -> ())
    [ ""; "read"; "read:bogus"; "tape:eintr"; "read:eintr@zero"; "seed=many" ];
  (* parsed plans behave like hand-built ones *)
  match Fault.of_spec "read:eintr@2" with
  | Error msg -> Alcotest.failf "spec rejected: %s" msg
  | Ok p ->
    with_temp_file (fun path ->
      write_file path "abc";
      Fault.with_plan p (fun () ->
        let ic = Fault.open_in_bin path in
        let b = Bytes.create 1 in
        let outcomes =
          List.init 3 (fun _ ->
            match Fault.input ic b 0 1 with _ -> "ok" | exception Sys_error _ -> "eintr")
        in
        close_in ic;
        check_string "spec semantics" "ok,eintr,ok" (String.concat "," outcomes)))

(* ---- schedule transparency: Chunked and Netio ---- *)

let collect_lines source =
  let acc = ref [] in
  GP.Chunked.iter_lines source (fun n s start stop ->
      acc := (n, Bytes.sub_string s start (stop - start)) :: !acc);
  List.rev !acc

let test_chunked_unmoved_by_schedules () =
  clean @@ fun () ->
  with_temp_file @@ fun path ->
  let text = "alpha\nbeta\n\ngamma delta\nlast-no-newline" in
  write_file path text;
  let read_under plan_opt =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let go () = collect_lines (GP.Chunked.of_channel ~chunk_size:7 ic) in
        match plan_opt with None -> go () | Some p -> Fault.with_plan p go)
  in
  let baseline = read_under None in
  let eintr =
    read_under
      (Some (Fault.plan [ Fault.on ~trigger:(Fault.Every 3) Fault.Read (Fault.Errno Unix.EINTR) ]))
  in
  let dribble = read_under (Some (Fault.plan [ Fault.on Fault.Read (Fault.Partial 1) ])) in
  check_bool "EINTR storm is unobservable" true (baseline = eintr);
  check_bool "1-byte reads are unobservable" true (baseline = dribble);
  check_int "all lines seen" 5 (List.length baseline)

let test_netio_frames_under_schedules () =
  clean @@ fun () ->
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      let p =
        Fault.plan
          [
            Fault.on ~trigger:(Fault.Every 2) Fault.Read (Fault.Errno Unix.EINTR);
            Fault.on ~trigger:(Fault.Every 3) Fault.Write (Fault.Partial 2);
          ]
      in
      Fault.with_plan p (fun () ->
        let conn = Netio.conn b in
        List.iter
          (fun payload ->
            (match Netio.write_frame a (payload ^ "\n") with
            | Ok () -> ()
            | Error msg -> Alcotest.failf "write_frame failed under schedule: %s" msg);
            match Netio.read_frame ~timeout_s:5. conn with
            | Netio.Frame got -> check_string "frame intact" payload got
            | _ -> Alcotest.fail "frame lost under schedule")
          [ {|{"op":"ping"}|}; String.make 300 'x'; "tail" ]);
      check_bool "the schedule actually hit reads" true (Fault.injected p Fault.Read > 0))

(* ---- the crash-point matrix ---- *)

let snapshot_graph () = GP.Social.generate ~seed:11 ~persons:8 ()

let write_snapshot path =
  let st = GP.Symtab.create () in
  match Sio.write st (GP.Snapshot.build st (snapshot_graph ())) path with
  | Ok () -> ()
  | Error e -> Alcotest.failf "snapshot write failed: %a" Sio.pp_error e

let run_crash_writer spec =
  match String.split_on_char '|' spec with
  | [ "snapshot"; path ] -> write_snapshot path
  | [ "artifact"; path ] -> Durable.write_file path [ "hello "; "world\n" ]
  | [ "quarantine"; q; pgf ] -> ignore (GP.Stream.load_pgf ~quarantine:q pgf)
  | _ -> exit 8

(* Crash-matrix child hook: the matrix re-executes this very test
   binary with GPGS_FAULT arming the crash point (installed by the
   fault library's own startup hook, exactly as it would be in a real
   process under test) and GPGS_CRASH_WRITER naming the writer to run.
   A forked child would be simpler, but OCaml 5 forbids [Unix.fork]
   once any domain has been spawned and earlier suites run servers.
   Exit 0 = the writer survived (the point was never reached), 9 = the
   writer failed for a non-crash reason; the crash itself is
   [Fault.crash_exit_code]. *)
let () =
  match Sys.getenv_opt "GPGS_CRASH_WRITER" with
  | None -> ()
  | Some spec -> ( try run_crash_writer spec; exit 0 with _ -> exit 9)

let crash_child ~point spec =
  let cmd =
    Printf.sprintf "GPGS_FAULT=%s GPGS_CRASH_WRITER=%s %s >/dev/null 2>&1"
      (Filename.quote ("crash@" ^ point))
      (Filename.quote spec)
      (Filename.quote Sys.executable_name)
  in
  match Sys.command cmd with c when c land 0xff = 0 -> c lsr 8 | c -> c

let test_crash_matrix_snapshot () =
  clean @@ fun () ->
  with_temp_file @@ fun path ->
  Sys.remove path;
  List.iter
    (fun point ->
      let code = crash_child ~point ("snapshot|" ^ path) in
      check_int (point ^ ": child crashed") Fault.crash_exit_code code;
      if Sys.file_exists path then begin
        (match Sio.info path with
        | Ok i -> check_bool (point ^ ": committed file is whole") true (i.Sio.bytes > 0)
        | Error e ->
          Alcotest.failf "%s: crash left a torn snapshot: %a" point Sio.pp_error e);
        Sys.remove path
      end)
    Durable.crash_points;
  (* a stale temp from any of those crashes must not trouble the next
     writer: create truncates it *)
  write_snapshot path;
  match Sio.info path with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "write over stale temp: %a" Sio.pp_error e

let test_crash_matrix_preserves_old_content () =
  clean @@ fun () ->
  with_temp_file @@ fun path ->
  (* a valid predecessor must survive a crashed rewrite at any point:
     the destination is only ever replaced by a complete rename *)
  write_snapshot path;
  List.iter
    (fun point ->
      let code = crash_child ~point ("snapshot|" ^ path) in
      check_int (point ^ ": child crashed") Fault.crash_exit_code code;
      match Sio.info path with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: predecessor torn: %a" point Sio.pp_error e)
    Durable.crash_points

let test_crash_matrix_artifact_and_quarantine () =
  clean @@ fun () ->
  with_temp_file @@ fun dest ->
  with_temp_file @@ fun quarantine ->
  with_temp_file @@ fun pgf ->
  Sys.remove dest;
  Sys.remove quarantine;
  write_file pgf "node n0 :A {}\nthis line is garbage\nnode n1 :B {}\nmore garbage\n";
  let expected_quarantine = "this line is garbage\nmore garbage\n" in
  List.iter
    (fun point ->
      (* the generic durable writer (bench artifacts use exactly this) *)
      let code = crash_child ~point ("artifact|" ^ dest) in
      check_int (point ^ ": artifact child crashed") Fault.crash_exit_code code;
      if Sys.file_exists dest then begin
        check_string (point ^ ": artifact whole") "hello world\n" (read_file dest);
        Sys.remove dest
      end;
      (* the streaming quarantine writer *)
      let code = crash_child ~point ("quarantine|" ^ quarantine ^ "|" ^ pgf) in
      check_int (point ^ ": quarantine child crashed") Fault.crash_exit_code code;
      if Sys.file_exists quarantine then begin
        check_string (point ^ ": quarantine whole") expected_quarantine (read_file quarantine);
        Sys.remove quarantine
      end)
    Durable.crash_points

(* Same CLI runner as test_server.ml, plus an environment prefix — the
   GPGS_FAULT hook is what lets the matrix kill a real gpgs process. *)
let run_cli ?(env = "") args =
  let out = Filename.temp_file "gpgs_fault" ".out" in
  let cmd =
    Printf.sprintf "%s%s %s > %s 2>/dev/null"
      (if env = "" then "" else env ^ " ")
      (Filename.quote (in_repo "../bin/gpgs.exe"))
      args (Filename.quote out)
  in
  let code = match Sys.command cmd with c when c land 0xff = 0 -> c lsr 8 | c -> c in
  let text = read_file out in
  Sys.remove out;
  (code, text)

let test_crash_matrix_end_to_end_cli () =
  clean @@ fun () ->
  with_temp_file @@ fun snap ->
  Sys.remove snap;
  let build env =
    run_cli ~env
      (Printf.sprintf "snapshot build %s -o %s" (Filename.quote movies_pgf)
         (Filename.quote snap))
  in
  let code, _ = build "GPGS_FAULT='crash@durable.file_synced'" in
  check_int "gpgs died at the crash point" Fault.crash_exit_code code;
  check_bool "no destination before the rename" false (Sys.file_exists snap);
  (* a malformed spec must refuse to run, not silently pass through *)
  let code, _ = build "GPGS_FAULT='read:bogus'" in
  check_int "typo'd fault plan refuses to run" 2 code;
  check_bool "and writes nothing" false (Sys.file_exists snap);
  (* and with the plane inert the same build succeeds and verifies *)
  let code, _ = build "" in
  check_int "clean build" 0 code;
  match Sio.info snap with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "clean build unreadable: %a" Sio.pp_error e

(* ---- failure classification ---- *)

let code_of = function
  | Ok _ -> Alcotest.fail "expected an error"
  | Error e -> e.Sio.code

let message_of = function Ok _ -> "" | Error e -> e.Sio.message

let test_io006_classification () =
  clean @@ fun () ->
  with_temp_file @@ fun path ->
  write_snapshot path;
  let st () = GP.Symtab.create () in
  (* a refused mmap is a device-level failure: IO006, naming the file *)
  let r =
    Fault.with_plan
      (Fault.plan [ Fault.on Fault.Mmap (Fault.Errno Unix.EIO) ])
      (fun () -> Result.map (fun m -> Sio.close_mapped m) (Sio.open_mapped (st ()) path))
  in
  let names_file m =
    let needle = Filename.basename path in
    let rec find i =
      i + String.length needle <= String.length m
      && (String.sub m i (String.length needle) = needle || find (i + 1))
    in
    find 0
  in
  check_string "mmap EIO -> IO006" "IO006" (code_of r);
  check_bool "IO006 names the snapshot" true (names_file (message_of r));
  (* open_mapped opens the header channel first (buffered: Sys_error ->
     IO001), then the mmap fd (raw: Unix_error -> IO006) *)
  let open_under rule =
    Fault.with_plan (Fault.plan [ rule ])
      (fun () -> Result.map (fun m -> Sio.close_mapped m) (Sio.open_mapped (st ()) path))
  in
  check_string "channel open EIO -> IO001" "IO001"
    (code_of (open_under (Fault.on ~trigger:(Fault.Nth 1) Fault.Open (Fault.Errno Unix.EIO))));
  check_string "fd open EIO -> IO006" "IO006"
    (code_of (open_under (Fault.on ~trigger:(Fault.Nth 2) Fault.Open (Fault.Errno Unix.EIO))));
  (* The property sections are mapped last, node pool then edge pool,
     after the twelve int columns.  A refused map of either one is
     IO006 naming the file, like a refused int column. *)
  let counting = Fault.plan [] in
  ignore (Fault.with_plan counting (fun () -> Sio.open_mapped (st ()) path));
  check_int "every section of the fixture is mapped" 14 (Fault.hits counting Fault.Mmap);
  List.iter
    (fun (what, nth) ->
      let r = open_under (Fault.on ~trigger:(Fault.Nth nth) Fault.Mmap (Fault.Errno Unix.EIO)) in
      check_string (what ^ " mmap EIO -> IO006") "IO006" (code_of r);
      check_bool (what ^ " IO006 names the snapshot") true (names_file (message_of r)))
    [ ("node properties", 13); ("edge properties", 14) ]

let test_enospc_is_not_transient () =
  let t = GP.Supervisor.default_transient in
  check_bool "EINTR is transient" true (t (Unix.Unix_error (Unix.EINTR, "read", "")));
  check_bool "EAGAIN is transient" true (t (Unix.Unix_error (Unix.EAGAIN, "read", "")));
  (* retrying a full disk burns the retry budget for nothing *)
  check_bool "ENOSPC is not" false (t (Unix.Unix_error (Unix.ENOSPC, "write", "")));
  check_bool "EIO is not" false (t (Unix.Unix_error (Unix.EIO, "read", "")))

(* ---- passthrough differential (qcheck) ---- *)

let validate_req ~schema ~graph =
  Json.to_string
    (Json.Assoc
       [
         ("op", Json.String "validate");
         ("schema", Json.String schema);
         ("graph", Json.String graph);
       ])

let test_passthrough_differential =
  QCheck.Test.make ~name:"an empty plan is byte-invisible to served validation" ~count:8
    QCheck.(pair (int_range 1 20) (int_range 0 1000))
    (fun (persons, seed) ->
      clean @@ fun () ->
      let sch = Filename.temp_file "gpgs_fault" ".graphql" in
      let pgf = Filename.temp_file "gpgs_fault" ".pgf" in
      Fun.protect
        ~finally:(fun () ->
          Sys.remove sch;
          Sys.remove pgf)
        (fun () ->
          write_file sch GP.Social.schema_text;
          let g = GP.Social.generate ~seed ~persons () in
          let g =
            if seed mod 2 = 0 then
              GP.Social.corrupt_uniformly ~seed ~rate:0.2 (GP.Social.schema ()) g
            else g
          in
          write_file pgf (GP.Pgf.print g);
          let req = validate_req ~schema:sch ~graph:pgf in
          Fault.deactivate ();
          let bare = Service.handle (Service.create ()) req in
          let planned =
            Fault.with_plan (Fault.plan []) (fun () -> Service.handle (Service.create ()) req)
          in
          check_string
            (Printf.sprintf "persons=%d seed=%d" persons seed)
            bare planned;
          true))

(* ---- server self-healing, live ---- *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let send_line fd s =
  let b = Bytes.of_string (s ^ "\n") in
  let rec go pos =
    if pos < Bytes.length b then go (pos + Unix.write fd b pos (Bytes.length b - pos))
  in
  go 0

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

let summary_of j = Json.member "summary" j

let with_server ?(workers = 2) ?(watchdog_grace_ms = 10_000.)
    ?(svc_config = Service.default_config) f =
  let path = Filename.temp_file "gpgs_fault_srv" ".sock" in
  let stop = Atomic.make false in
  let ready = Atomic.make false in
  let svc = Service.create ~config:svc_config () in
  let config =
    {
      (Server.default_config (Server.Unix_socket path)) with
      Server.workers;
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

let test_live_health_op () =
  clean @@ fun () ->
  with_server (fun path _svc ->
    let fd = connect path in
    ignore (roundtrip fd {|{"op":"ping"}|});
    let j = decode (roundtrip fd {|{"op":"health"}|}) in
    Unix.close fd;
    check_int "health exit" 0 (exit_of j);
    let s = summary_of j in
    let int_field name =
      match Json.member name s with
      | Json.Int n -> n
      | _ -> Alcotest.failf "health summary lacks int field %S" name
    in
    check_bool "uptime present" true
      (match Json.member "uptime_s" s with Json.Float u -> u >= 0. | _ -> false);
    check_bool "requests counted" true (int_field "requests" >= 2);
    check_int "nothing wedged" 0 (int_field "in_flight_jobs");
    check_int "nothing cancelled" 0 (int_field "watchdog_cancelled");
    (* probe fields: what only the accept loop can see *)
    check_int "worker count" 2 (int_field "workers");
    check_int "accept backoffs" 0 (int_field "accept_backoffs");
    check_bool "not draining" true
      (match Json.member "draining" s with Json.Bool b -> not b | _ -> false))

let test_live_watchdog_cancels_wedged () =
  clean @@ fun () ->
  let svc_config = { Service.default_config with Service.debug_ops = true } in
  with_server ~watchdog_grace_ms:100. ~svc_config (fun path svc ->
    let fd = connect path in
    let t0 = Unix.gettimeofday () in
    (* wedged for 30 s unless someone cancels it; the watchdog must *)
    let j = decode (roundtrip fd {|{"op":"stall","seconds":30}|}) in
    let elapsed = Unix.gettimeofday () -. t0 in
    check_bool "SRV006" true (has_code "SRV006" j);
    check_int "budget exit class" 3 (exit_of j);
    check_bool "cancelled promptly, not served to completion" true (elapsed < 10.);
    check_bool "cancellation counted" true (Service.watchdog_cancelled svc >= 1);
    (* the wedged job's cancellation is private: the server still serves *)
    check_int "still serving" 0 (exit_of (decode (roundtrip fd {|{"op":"ping"}|})));
    Unix.close fd)

let test_live_accept_backoff () =
  clean @@ fun () ->
  with_server (fun path _svc ->
    let p = Fault.plan [ Fault.on ~limit:2 Fault.Accept (Fault.Errno Unix.EMFILE) ] in
    Fault.activate p;
    let fd = connect path in
    (* the two EMFILE hits cost backoff sleeps, not the listener: the
       third accept succeeds and the request is served normally.  The
       roundtrip completing proves the accept happened, so the plan can
       only be dropped after it (the [clean] wrapper backstops). *)
    let ping = decode (roundtrip fd {|{"op":"ping"}|}) in
    Fault.deactivate ();
    check_int "served after backoff" 0 (exit_of ping);
    check_int "both refusals injected" 2 (Fault.injected p Fault.Accept);
    let j = decode (roundtrip fd {|{"op":"health"}|}) in
    check_bool "backoffs reported" true
      (match Json.member "accept_backoffs" (summary_of j) with
      | Json.Int n -> n >= 2
      | _ -> false);
    Unix.close fd)

(* ---- the seeded chaos storm ---- *)

let chaos_seeds () =
  let base = [ 11; 23; 47 ] in
  match Sys.getenv_opt "GPGS_CHAOS_SEEDS" with
  | None | Some "" -> base
  | Some s ->
    base
    @ (String.split_on_char ',' s
      |> List.filter_map (fun x -> int_of_string_opt (String.trim x)))

let chaos_plan seed =
  Fault.plan ~seed
    [
      Fault.on ~trigger:(Fault.Prob 0.05) Fault.Read (Fault.Errno Unix.EINTR);
      Fault.on ~trigger:(Fault.Prob 0.05) Fault.Read (Fault.Partial 1);
      Fault.on ~trigger:(Fault.Prob 0.03) Fault.Write (Fault.Partial 2);
      Fault.on ~trigger:(Fault.Prob 0.01) Fault.Read (Fault.Errno Unix.EIO);
      Fault.on ~trigger:(Fault.Prob 0.02) Fault.Accept (Fault.Errno Unix.EMFILE);
    ]

(* One client's worth of storm traffic.  The invariant under injection
   is weaker than correctness but ironclad: every request is answered
   with valid JSON or the connection is closed cleanly — never a hang,
   never garbage, and (checked by the harness) never a dead server. *)
let storm_client ~seed ~id path =
  let requests =
    [
      {|{"op":"ping"}|};
      {|{"op":"health"}|};
      validate_req ~schema:movies_sdl ~graph:movies_pgf;
      "{{{ definitely not json";
      {|{"op":"ping"}|};
    ]
  in
  let fresh () = connect path in
  let fd = ref (fresh ()) in
  for round = 1 to 3 do
    List.iteri
      (fun i req ->
        match
          send_line !fd req;
          recv_line !fd
        with
        | "" ->
          (* clean close (EOF): reconnect and keep storming *)
          (try Unix.close !fd with Unix.Unix_error _ -> ());
          fd := fresh ()
        | line -> (
          match Json.of_string line with
          | Ok _ -> ()
          | Error msg ->
            Alcotest.failf "seed %d client %d round %d req %d: garbage response (%s): %s"
              seed id round i msg line)
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          (try Unix.close !fd with Unix.Unix_error _ -> ());
          fd := fresh ())
      requests
  done;
  try Unix.close !fd with Unix.Unix_error _ -> ()

let test_chaos_storm () =
  clean @@ fun () ->
  List.iter
    (fun seed ->
      with_server ~workers:3 (fun path _svc ->
        Fault.activate (chaos_plan seed);
        let clients =
          List.init 3 (fun id -> Domain.spawn (fun () -> storm_client ~seed ~id path))
        in
        List.iter Domain.join clients;
        Fault.deactivate ();
        (* after the storm the server must be healthy, and the
           with_server finalizer proves the drain still completes *)
        let fd = connect path in
        check_int
          (Printf.sprintf "seed %d: healthy after the storm" seed)
          0
          (exit_of (decode (roundtrip fd {|{"op":"ping"}|})));
        Unix.close fd))
    (chaos_seeds ())

let suite =
  [
    Alcotest.test_case "plane: passthrough is inert" `Quick test_passthrough_inert;
    Alcotest.test_case "plane: Nth trigger and counters" `Quick test_nth_trigger_and_counters;
    Alcotest.test_case "plane: Every trigger with limit" `Quick test_every_trigger_with_limit;
    Alcotest.test_case "plane: partial transfers" `Quick test_partial_transfers;
    Alcotest.test_case "plane: Prob is seed-deterministic" `Quick test_prob_is_seed_deterministic;
    Alcotest.test_case "plane: with_plan restores" `Quick test_with_plan_restores;
    Alcotest.test_case "plane: GPGS_FAULT spec language" `Quick test_of_spec;
    Alcotest.test_case "chunked: unmoved by fault schedules" `Quick test_chunked_unmoved_by_schedules;
    Alcotest.test_case "netio: frames survive schedules" `Quick test_netio_frames_under_schedules;
    Alcotest.test_case "crash matrix: snapshot writer" `Quick test_crash_matrix_snapshot;
    Alcotest.test_case "crash matrix: old content survives" `Quick
      test_crash_matrix_preserves_old_content;
    Alcotest.test_case "crash matrix: artifacts and quarantine" `Quick
      test_crash_matrix_artifact_and_quarantine;
    Alcotest.test_case "crash matrix: end-to-end gpgs via GPGS_FAULT" `Quick
      test_crash_matrix_end_to_end_cli;
    Alcotest.test_case "classification: IO006 vs IO001" `Quick test_io006_classification;
    Alcotest.test_case "classification: ENOSPC not transient" `Quick test_enospc_is_not_transient;
    QCheck_alcotest.to_alcotest test_passthrough_differential;
    Alcotest.test_case "live: health op" `Quick test_live_health_op;
    Alcotest.test_case "live: watchdog cancels a wedged request" `Quick
      test_live_watchdog_cancels_wedged;
    Alcotest.test_case "live: EMFILE accept backoff" `Quick test_live_accept_backoff;
    Alcotest.test_case "live: seeded chaos storm" `Slow test_chaos_storm;
  ]
