(** The validation daemon: accept loop, worker pool, graceful drain.

    [run] binds the address and serves connections until the stop flag
    rises (the [gpgs serve] command wires it to SIGTERM/SIGINT).  The
    pool holds only the domains that have a connection to serve.  The
    calling domain runs two threads: the calling thread accepts and
    beats the watchdog, and the first worker serves connections.  A lone
    connection therefore runs with no other domain alive; an idle domain
    would still have to join every stop-the-world collection.  A
    connection that finds no parked worker starts one more: an OCaml 5
    domain while the process runs fewer than
    [Domain.recommended_domain_count ()], else another thread on the
    calling domain — never more than [workers] in all.  Each worker
    serves one connection at a time, to EOF.  The first worker parks
    between connections; every other one ends when its connection closes
    and none is queued.  [health] reports the pool: [workers] (the
    limit), [live_workers], [domains] (the calling domain included) and
    [in_flight] (connections being served).

    Robustness properties, each pinned by a fault-injection test:

    - a connection beyond [workers] running + [max_pending] queued is
      shed with an [SRV004] envelope, never silently dropped;
    - an oversized or garbage frame costs one error envelope ([SRV002] /
      [SRV001]), not the daemon (garbage keeps the connection, oversized
      closes it — there is no frame boundary to resynchronise to);
    - a crashing job is confined to its request ([SRV005]) by the
      supervisor firewall inside {!Service};
    - SIGPIPE is ignored process-wide, so a client that disconnects
      mid-response costs one failed write;
    - descriptor exhaustion ([EMFILE]/[ENFILE]) on [accept] backs the
      loop off with an escalating sleep instead of killing the
      listener — capacity returns when workers close connections;
    - a watchdog rides the accept loop: any budgeted request still
      running [watchdog_grace_ms] past its own deadline is cancelled
      through its governor and reports [SRV006] — also while the
      calling domain's own worker computes, since its threads take turns;
    - drain: stop accepting, let in-flight requests finish within
      [drain_grace_ms], then cancel the still-running budgeted jobs and
      join every worker.  [run] returning normally {e is} the clean
      drain (the CLI then exits 0). *)

type address =
  | Unix_socket of string  (** path; unlinked on bind and again on drain *)
  | Tcp of string * int  (** host, port; port [0] picks an ephemeral one *)

type config = {
  address : address;
  workers : int;  (** connections served at once; each worker owns one at a time *)
  max_pending : int;  (** accepted connections waiting for a worker *)
  max_request_bytes : int;  (** frame size limit (SRV002 beyond it) *)
  read_timeout_ms : float;  (** idle-connection cutoff; the socket is closed *)
  drain_grace_ms : float;  (** how long a drain waits before cancelling jobs *)
  watchdog_grace_ms : float;
      (** slack past a request's own deadline before the watchdog
          cancels it as wedged (SRV006) *)
}

val default_config : address -> config
(** 4 workers, 16 pending, 1 MiB frames, 30 s read timeout, 2 s drain
    grace, 10 s watchdog grace. *)

val run : ?stop:bool Atomic.t -> ?on_ready:(address -> unit) -> config -> Service.t -> unit
(** Serve until [stop] becomes true, then drain and return.  The accept
    loop runs on the calling thread, and the first worker on a thread of
    the calling domain.  [on_ready] fires once the socket is listening,
    with the resolved address (the actual port when the config said
    [0]) — tests and the CLI ready line use it.

    @raise Invalid_argument on a non-positive worker count or negative
    limits; [Unix.Unix_error] from the initial bind/listen propagates
    (a busy port is a startup error, not a request fault). *)
