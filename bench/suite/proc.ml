(* The program under test as a separate process: one-shot CLI runs, and
   a resident [gpgs serve] with its socket connections.  Every process
   started here is waited for before the function that started it
   returns or raises. *)

open Util

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0)

let rec restart f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart f
let waitpid pid = snd (restart (fun () -> Unix.waitpid [] pid))

let kill_and_reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (waitpid pid)

let select r timeout =
  let ready, _, _ = restart (fun () -> Unix.select r [] [] timeout) in
  ready

(* ---- one-shot runs ---- *)

type outcome = {
  stdout : string;
  code : int;  (** exit code; -1 when killed by a signal *)
  wall_ms : float;  (** spawn to reaped *)
  hwm_kib : int;  (** largest VmHWM seen while polling every 5 ms; 0 unpolled *)
}

(* Run [argv] to completion with stdout captured.  The child's exit
   shows as end-of-file on its stdout, so waiting on the pipe with a
   5 ms timeout both bounds the polling interval and stops the clock as
   soon as the child is done. *)
let run ?(poll_hwm = false) argv =
  let r, w = Unix.pipe ~cloexec:true () in
  let dn = Lazy.force devnull in
  let t0 = now_ns () in
  let pid =
    try Unix.create_process argv.(0) argv dn w dn
    with e ->
      Unix.close r;
      Unix.close w;
      raise e
  in
  Unix.close w;
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let hwm = ref 0 in
  let poll () =
    if poll_hwm then Option.iter (fun kb -> hwm := max !hwm kb) (vm_hwm_kib pid)
  in
  let rec drain () =
    poll ();
    match select [ r ] 0.005 with
    | [] -> drain ()
    | _ -> (
      match restart (fun () -> Unix.read r chunk 0 (Bytes.length chunk)) with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain ())
  in
  (match drain () with
  | () -> Unix.close r
  | exception e ->
    Unix.close r;
    kill_and_reap pid;
    raise e);
  let status = waitpid pid in
  {
    stdout = Buffer.contents buf;
    code = (match status with Unix.WEXITED c -> c | _ -> -1);
    wall_ms = ms_of_ns (Int64.sub (now_ns ()) t0);
    hwm_kib = !hwm;
  }

(* ---- the server ---- *)

type server = { pid : int; ready : Unix.file_descr }

(* Spawn [gpgs serve] on a unix socket and return once its ready line
   is out (the socket is then listening).  Pinned to 2 worker domains,
   one per benchmark connection; the caches keep their defaults. *)
let spawn_server ~gpgs ~socket =
  let r, w = Unix.pipe ~cloexec:true () in
  let argv = [| gpgs; "serve"; "--socket"; socket; "--workers"; "2" |] in
  let pid =
    try Unix.create_process gpgs argv (Lazy.force devnull) w Unix.stderr
    with e ->
      Unix.close r;
      Unix.close w;
      raise e
  in
  Unix.close w;
  let chunk = Bytes.create 256 in
  let rec ready_line deadline =
    if now_s () > deadline then failwith "gpgs serve printed no ready line within 60 s";
    match select [ r ] 1.0 with
    | [] -> ready_line deadline
    | _ ->
      let n = restart (fun () -> Unix.read r chunk 0 (Bytes.length chunk)) in
      if n = 0 then failwith "gpgs serve exited before it was ready";
      if not (Bytes.contains (Bytes.sub chunk 0 n) '\n') then ready_line deadline
  in
  (try ready_line (now_s () +. 60.)
   with e ->
     Unix.close r;
     kill_and_reap pid;
     raise e);
  { pid; ready = r }

(* SIGTERM is the server's clean drain; a server still running 10 s
   later is killed. *)
let stop_server s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now_s () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when now_s () > deadline -> kill_and_reap s.pid
    | 0, _ ->
      Unix.sleepf 0.005;
      wait ()
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  Unix.close s.ready

(* ---- connections ---- *)

type conn = { fd : Unix.file_descr; pending : Buffer.t; chunk : Bytes.t }

let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket)
   with e ->
     Unix.close fd;
     raise e);
  { fd; pending = Buffer.create 65536; chunk = Bytes.create 65536 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c frame =
  let b = Bytes.unsafe_of_string frame in
  let len = Bytes.length b in
  let rec go off =
    if off < len then go (off + restart (fun () -> Unix.write c.fd b off (len - off)))
  in
  go 0

(* One read; the response lines it completed, newline included.  Raises
   [End_of_file] when the server closed the socket.  [send] and
   [receive] raise [Unix.Unix_error] (EPIPE, ECONNRESET) when it died;
   SIGPIPE is ignored for that (see gpgs_bench.ml). *)
let receive c =
  let n = restart (fun () -> Unix.read c.fd c.chunk 0 (Bytes.length c.chunk)) in
  if n = 0 then raise End_of_file;
  let fresh = Bytes.sub_string c.chunk 0 n in
  Buffer.add_string c.pending fresh;
  if not (String.contains fresh '\n') then []
  else begin
    let pieces = String.split_on_char '\n' (Buffer.contents c.pending) in
    Buffer.clear c.pending;
    (* the last piece is the start of a line not yet complete *)
    let rec lines = function
      | [ rest ] ->
        Buffer.add_string c.pending rest;
        []
      | l :: tl -> (l ^ "\n") :: lines tl
      | [] -> []
    in
    lines pieces
  end

(* No response within 60 s: the server is wedged. *)
exception Stalled

let rec await_line c =
  match select [ c.fd ] 60. with
  | [] -> raise Stalled
  | _ -> ( match receive c with [] -> await_line c | line :: _ -> line)

let roundtrip c frame =
  send c frame;
  await_line c

let ping_frame = "{\"op\":\"ping\"}\n"
let stats_frame = "{\"op\":\"stats\"}\n"
