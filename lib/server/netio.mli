(** Socket framing for the validation service.

    The wire protocol is newline-delimited: one request per line in, one
    response per line out.  This module owns the robustness half of that
    contract — bounded frame sizes, read timeouts, cooperative stop
    polling, and writes that survive a vanished peer — so the layers
    above never see a raw [Unix] failure.

    The process must ignore [SIGPIPE] (the {!Server} does so at startup);
    a write to a closed peer then surfaces as an [EPIPE] error value
    instead of killing the daemon. *)

type conn
(** One connection's state: the descriptor, any bytes received beyond
    the last complete frame, the one read buffer its reads share, and
    the one output buffer its {!send}s share.  A [conn] has one reader
    and one writer at a time. *)

val conn : Unix.file_descr -> conn

type frame =
  | Frame of string  (** one complete request line, newline stripped *)
  | Eof  (** peer closed; any partial trailing line is discarded *)
  | Timeout  (** no complete frame within the read timeout *)
  | Stopped  (** the [should_stop] poll answered yes (server drain) *)
  | Oversized  (** frame exceeded [max_bytes] before its newline *)
  | Failed of string  (** the socket itself failed (reset, bad fd, ...) *)

val read_frame :
  ?max_bytes:int ->
  ?timeout_s:float ->
  ?should_stop:(unit -> bool) ->
  conn ->
  frame
(** Block until one full line arrives (default [max_bytes] 1 MiB, no
    timeout).  The wait is sliced into short [select] windows so
    [should_stop] is polled a few times a second — a draining server
    abandons an idle connection within one slice.  [EINTR] never
    surfaces: interrupted waits and reads resume.  After [Oversized] the
    connection cannot be re-synchronized and must be closed. *)

val write_frame : Unix.file_descr -> string -> (unit, string) result
(** Write the whole string (the caller includes the trailing newline),
    looping over partial writes with [EINTR] retry.  A dead peer
    ([EPIPE], [ECONNRESET], ...) is an [Error], never an exception or a
    signal. *)

val send : conn -> (Graphql_pg.Json.writer -> unit) -> (unit, string) result
(** Write one frame: [emit] writes a compact JSON document through the
    connection's output buffer, which goes to the socket each time it
    fills, and [send] ends the line.  Partial writes and [EINTR] are
    retried as in {!write_frame}; a dead peer is an [Error], with part
    of the frame perhaps already sent, after which the connection must
    be closed. *)
