(** Request execution for the validation daemon.

    One {!t} is shared by every worker domain.  It owns the compiled
    artefact caches (plans and snapshots, content-addressed — see
    {!Cache}) and the request counters, and turns one request line into
    one response line.

    The acceptance contract: a served [validate] response is the same
    JSON document [gpgs validate --format json] prints for the
    equivalent invocation, compact-rendered.  To keep that exact — an
    {e active} budget changes the report's scan counters — a request
    with no budget of its own (and no server default) runs under the
    inert [Governor.make ()] and cannot be cancelled; only budgeted
    requests can be cut short.  Each budgeted request owns a private
    cancellation flag and registers in a job table, through which the
    server's drain ({!cancel_inflight}) and the watchdog
    ({!watchdog_sweep}) cancel it — never through a flag shared across
    requests, so cancelling one wedged job leaves its neighbours
    running. *)

type config = {
  plan_capacity : int;  (** LRU capacity of the compiled-plan cache *)
  snapshot_capacity : int;  (** LRU capacity of the loaded-snapshot cache *)
  default_deadline_ms : float option;
      (** budget applied to requests that carry none; when it cuts a run
          short the response gains an [SRV003] diagnostic *)
  default_max_violations : int option;
  retries : int;
      (** supervisor retries per request (transient failures only);
          crashes always become [SRV005], never a dead worker *)
  debug_ops : bool;
      (** honour the fault-injection ops [boom] / [sleep] / [stall] *)
}

val default_config : config
(** 16-entry caches, no default budget, no retries, no debug ops. *)

type t

val create : ?config:config -> unit -> t

type response
(** One executed request's envelope, not yet rendered. *)

val respond : t -> ?cancel:bool Atomic.t -> string -> response
(** Execute one request line.  Never raises: malformed requests become
    [SRV001] envelopes and anything a job throws is caught by the
    supervisor firewall and reported as [SRV005].  [cancel] is the
    server's drain flag; budgeted requests re-check it when they
    register, so a request starting mid-drain stops at its first
    checkpoint.  Every lock the request took is released on return. *)

val write : Graphql_pg.Json.writer -> response -> unit
(** Write the response's envelope through a compact writer, one
    diagnostic at a time: {!handle}'s line without its newline.  Raises
    only what the writer's sink raises. *)

val handle : t -> ?cancel:bool Atomic.t -> string -> string
(** {!respond}, rendered as the response line (terminating newline
    included). *)

val watchdog_sweep : t -> grace_ms:float -> int
(** Cancel every registered job still running [grace_ms] past its own
    deadline.  A cancelled job's response gains an [SRV006] diagnostic.
    Returns the number of jobs cancelled by this sweep.  The server's
    accept loop calls this periodically; it is cheap when nothing is
    wedged (one mutex and a scan of the in-flight jobs). *)

val cancel_inflight : t -> unit
(** Cancel every registered in-flight job — the drain's lever, replacing
    a flag shared across requests. *)

val set_probe : t -> (unit -> (string * Graphql_pg.Json.t) list) -> unit
(** Install the host probe whose fields are appended to the [health]
    summary (queue depth, workers, accept backoffs, drain state — what
    only the accept loop can see). *)

val in_flight_jobs : t -> int
(** Registered (budgeted) jobs currently executing. *)

val watchdog_cancelled : t -> int
(** Total jobs ever cancelled by {!watchdog_sweep}. *)

val shed_response : t -> string
(** Count one load-shed and return the [SRV004] envelope line the
    acceptor writes before closing an over-capacity connection. *)

val oversized_response : t -> string
(** The [SRV002] envelope line for a frame that exceeded the size limit
    (the connection is unrecoverable and must be closed after it). *)

val plan_stats : t -> Cache.stats
val snapshot_stats : t -> Cache.stats
val requests_served : t -> int
