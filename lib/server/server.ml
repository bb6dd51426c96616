(* The daemon loop (see server.mli for the contract).

   Shape: the calling thread accepts and beats the watchdog; workers
   pull one accepted connection at a time from a bounded queue and
   serve it to EOF.  The first worker is a thread on the calling domain,
   so a lone connection runs with no other domain alive: every minor
   collection, and every phase change of a major one, stops the world
   across all domains, and a domain that only waits must still answer
   each stop.  A connection that finds no parked worker starts one more:
   a domain while there are fewer than [Domain.recommended_domain_count
   ()], else another thread on the calling domain; never more than
   [workers] in all.  Only the first worker parks between connections;
   every other one exits when its connection closes and none is queued.
   All blocking waits — accept, frame reads, the queue condition —
   either poll the stop flag or are woken by the drain broadcast, so no
   part of the server can sleep through a shutdown. *)

module Fault = Graphql_pg.Fault
module Json = Graphql_pg.Json

type address = Unix_socket of string | Tcp of string * int

type config = {
  address : address;
  workers : int;
  max_pending : int;
  max_request_bytes : int;
  read_timeout_ms : float;
  drain_grace_ms : float;
  watchdog_grace_ms : float;
}

let default_config address =
  {
    address;
    workers = 4;
    max_pending = 16;
    max_request_bytes = 1 lsl 20;
    read_timeout_ms = 30_000.;
    drain_grace_ms = 2_000.;
    watchdog_grace_ms = 10_000.;
  }

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
    match Unix.gethostbyname host with
    | exception Not_found -> invalid_arg (Printf.sprintf "cannot resolve host %S" host)
    | { Unix.h_addr_list = addrs; _ } when Array.length addrs > 0 -> addrs.(0)
    | _ -> invalid_arg (Printf.sprintf "cannot resolve host %S" host))

(* Bind, listen, and report the resolved address (an ephemeral TCP port
   becomes concrete here). *)
let listen_on address =
  match address with
  | Unix_socket path ->
    (* A stale socket file from a crashed predecessor would make bind
       fail; replacing it is the conventional contract for unix-socket
       daemons. *)
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try
       Unix.bind fd (Unix.ADDR_UNIX path);
       Unix.listen fd 128
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    (fd, address)
  | Tcp (host, port) ->
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt fd Unix.SO_REUSEADDR true;
       Unix.bind fd (Unix.ADDR_INET (resolve_host host, port));
       Unix.listen fd 128
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    let port =
      match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port
    in
    (fd, Tcp (host, port))

let run ?(stop = Atomic.make false) ?on_ready config service =
  if config.workers < 1 then invalid_arg "Server.run: workers must be at least 1";
  if config.max_pending < 0 then invalid_arg "Server.run: max_pending must be non-negative";
  if config.max_request_bytes < 1 then invalid_arg "Server.run: max_request_bytes must be positive";
  if config.read_timeout_ms <= 0. then invalid_arg "Server.run: read_timeout_ms must be positive";
  if config.drain_grace_ms < 0. then invalid_arg "Server.run: drain_grace_ms must be non-negative";
  if config.watchdog_grace_ms < 0. then
    invalid_arg "Server.run: watchdog_grace_ms must be non-negative";
  (* A client that disconnects while a worker is writing its response
     must cost an EPIPE error value, not a fatal signal. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let lfd, resolved = listen_on config.address in
  (* Drain-cancellation flag shared by every budgeted governor. *)
  let cancel = Atomic.make false in
  let queue : Unix.file_descr Queue.t = Queue.create () in
  let qm = Mutex.create () in
  let qc = Condition.create () in
  (* Guarded by [qm].  [in_flight] is only ever changed in the same
     critical sections that move connections: the drain wait below must
     never observe a connection that is neither queued nor counted.
     [live] counts the workers, threads and domains alike, from the
     moment one is claimed; [domains] the worker domains (the calling
     domain not included); [parked] is 1 while the first worker waits
     for a connection. *)
  let in_flight = ref 0 and live = ref 1 and domains = ref 0 and parked = ref 0 in
  let max_domains = Domain.recommended_domain_count () in
  let should_stop () = Atomic.get stop in
  let accept_backoffs = Atomic.make 0 in
  let draining = Atomic.make false in
  let last_drain = Atomic.make "never" in
  (* What only this loop can see, appended to the [health] summary. *)
  Service.set_probe service (fun () ->
    let queue_depth, inflight, live_workers, live_domains =
      Mutex.protect qm (fun () -> (Queue.length queue, !in_flight, !live, 1 + !domains))
    in
    [
      ("queue_depth", Json.Int queue_depth);
      ("in_flight", Json.Int inflight);
      ("workers", Json.Int config.workers);
      ("live_workers", Json.Int live_workers);
      ("domains", Json.Int live_domains);
      ("accept_backoffs", Json.Int (Atomic.get accept_backoffs));
      ("draining", Json.Bool (Atomic.get draining));
      ("last_drain", Json.String (Atomic.get last_drain));
    ]);

  let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> () in

  let serve_connection fd =
    let conn = Netio.conn fd in
    let timeout_s = config.read_timeout_ms /. 1000. in
    let rec loop () =
      match
        Netio.read_frame ~max_bytes:config.max_request_bytes ~timeout_s ~should_stop conn
      with
      | Netio.Frame line -> (
        let response = Service.respond service ~cancel line in
        match Netio.send conn (fun w -> Service.write w response) with
        | Ok () -> if should_stop () then () else loop ()
        | Error _ -> () (* peer is gone; nothing left to say *))
      | Netio.Oversized ->
        (* Report, then close: past an oversized frame there is no way
           to find the next frame boundary. *)
        ignore (Netio.write_frame fd (Service.oversized_response service))
      | Netio.Eof | Netio.Timeout | Netio.Stopped | Netio.Failed _ -> ()
    in
    (* The service never raises, but a worker dying would silently
       shrink the pool — keep the belt and the braces. *)
    (try loop () with _ -> ());
    close_quietly fd
  in

  (* A worker leaving the counts, under [qm]. *)
  let leave ~domain =
    decr live;
    if domain then decr domains
  in
  (* A worker's next connection, or [None] when the worker is to end:
     on [stop], or, for every worker but the first ([parks]), when none
     is queued.  An ending worker leaves the counts in the same critical
     section, so a connection queued after it left finds it gone. *)
  let next ~parks ~domain =
    Mutex.protect qm (fun () ->
      let rec await () =
        if Atomic.get stop then None
        else
          match Queue.take_opt queue with
          | Some fd ->
            (* Counted in the critical section that dequeues: a
               connection leaving the queue is in flight in the same
               instant, so the drain wait cannot slip between the two
               and cancel a just-picked-up request without grace. *)
            incr in_flight;
            Some fd
          | None when parks ->
            incr parked;
            Condition.wait qc qm;
            decr parked;
            await ()
          | None -> None
      in
      let job = await () in
      if job = None then leave ~domain;
      job)
  in
  let rec work ~parks ~domain () =
    match next ~parks ~domain with
    | None -> ()
    | Some fd ->
      serve_connection fd;
      Mutex.protect qm (fun () -> decr in_flight);
      work ~parks ~domain ()
  in
  let first = Thread.create (work ~parks:true ~domain:false) () in
  (* Every other worker, with the flag it raises on ending; owned by the
     accepting thread, which joins ended workers on each beat and the
     rest at the drain. *)
  let others : (bool Atomic.t * (unit -> unit)) list ref = ref [] in
  (* Called under [qm] right after a connection was queued: claim a new
     worker when the queue holds more connections than the parked
     worker can take.  [Some true] is a domain, [Some false] a thread. *)
  let claim () =
    if Queue.length queue > !parked && !live < config.workers then begin
      incr live;
      let domain = 1 + !domains < max_domains in
      if domain then incr domains;
      Some domain
    end
    else None
  in
  let start domain =
    let ended = Atomic.make false in
    let body () =
      work ~parks:false ~domain ();
      Atomic.set ended true
    in
    match
      if domain then
        let d = Domain.spawn body in
        fun () -> Domain.join d
      else
        let t = Thread.create body () in
        fun () -> Thread.join t
    with
    | join -> others := (ended, join) :: !others
    | exception _ ->
      (* out of domains or threads: the connection waits in the queue
         for a running worker to come free *)
      Mutex.protect qm (fun () -> leave ~domain)
  in
  let join_ended () =
    others :=
      List.filter
        (fun (ended, join) ->
          if Atomic.get ended then begin
            join ();
            false
          end
          else true)
        !others
  in
  Option.iter (fun f -> f resolved) on_ready;

  (* ---- accept loop (calling thread) ---- *)
  (* Descriptor-exhaustion backoff: EMFILE/ENFILE (and kernel buffer
     exhaustion) are load conditions, not listener defects.  Dying here
     would turn "too many clients" into "no server"; instead sleep an
     escalating beat — workers finishing requests close descriptors,
     so capacity returns on its own.  The delay resets on the first
     successful accept. *)
  let accept_delay = ref 0.05 in
  let accept_one () =
    match Unix.select [ lfd ] [] [] 0.2 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ -> (
      match Fault.accept ~cloexec:true lfd with
      | exception
          Unix.Unix_error
            ((Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
      | exception
          Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE | Unix.ENOBUFS | Unix.ENOMEM), _, _)
        ->
        Atomic.incr accept_backoffs;
        Unix.sleepf !accept_delay;
        accept_delay := Float.min (!accept_delay *. 2.) 1.0
      | cfd, _ -> (
        accept_delay := 0.05;
        let enqueued =
          Mutex.protect qm (fun () ->
            if Queue.length queue >= config.max_pending then Error ()
            else begin
              Queue.add cfd queue;
              Condition.signal qc;
              Ok (claim ())
            end)
        in
        match enqueued with
        | Ok claimed -> Option.iter start claimed
        | Error () ->
          (* Load shedding: tell the client explicitly (SRV004) instead
             of letting it time out against a silent close. *)
          ignore (Netio.write_frame cfd (Service.shed_response service));
          close_quietly cfd))
  in
  while not (Atomic.get stop) do
    accept_one ();
    join_ended ();
    (* Watchdog beat: rides the accept loop's ≤200 ms cadence, so a
       wedged request is cancelled within a beat of exceeding
       deadline + grace. *)
    ignore (Service.watchdog_sweep service ~grace_ms:config.watchdog_grace_ms)
  done;

  (* ---- graceful drain ---- *)
  Atomic.set draining true;
  let drain_started = Unix.gettimeofday () in
  close_quietly lfd;
  (match resolved with
  | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  (* Wake the parked worker; it observes [stop] and ends. *)
  Mutex.protect qm (fun () -> Condition.broadcast qc);
  (* Give in-flight requests the grace window... *)
  let deadline = Unix.gettimeofday () +. (config.drain_grace_ms /. 1000.) in
  while Mutex.protect qm (fun () -> !in_flight > 0) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.02
  done;
  (* ...then cut the budgeted ones loose at their next governor
     checkpoint: set the flag first (a job registering from now on
     self-cancels), then cancel every already-registered job through
     the registry.  (An unbudgeted job runs under the inert governor
     for byte-parity and is waited for: correctness of delivered
     responses over drain latency.) *)
  Atomic.set cancel true;
  Service.cancel_inflight service;
  Thread.join first;
  List.iter (fun (_, join) -> join ()) !others;
  (* Connections accepted but never picked up: close them; their clients
     see EOF rather than a hung socket. *)
  Mutex.protect qm (fun () ->
    Queue.iter close_quietly queue;
    Queue.clear queue);
  Atomic.set last_drain
    (Printf.sprintf "completed in %.0fms"
       ((Unix.gettimeofday () -. drain_started) *. 1000.));
  Atomic.set draining false
