(* Newline framing over Unix sockets, hardened for daemon residency.

   Reads are sliced into short [select] windows so a blocked worker still
   notices a server drain within a fraction of a second, and every
   syscall retries [EINTR] (signals are routine in a process that fields
   SIGTERM).  Writes loop over short counts and turn peer death into an
   [Error] value — with SIGPIPE ignored process-wide, [EPIPE] is just
   another errno. *)

module Json = Graphql_pg.Json
module Retry = Graphql_pg.Retry

(* [chunk] is the connection's one read buffer and [out] its one write
   buffer: a connection has one reader and one writer, and 8 KiB is past
   the minor heap's size limit, so a buffer per frame would be a
   major-heap block per frame.  [out] stays at 8 KiB too: 64 KiB saved
   write calls on large responses but raised a small-report daemon's
   peak by half a MiB. *)
type conn = { fd : Unix.file_descr; pending : Buffer.t; chunk : Bytes.t; out : Bytes.t }

let conn fd =
  { fd; pending = Buffer.create 256; chunk = Bytes.create 8192; out = Bytes.create 8192 }

type frame =
  | Frame of string
  | Eof
  | Timeout
  | Stopped
  | Oversized
  | Failed of string

(* How often the blocked read re-checks [should_stop]; also bounds how
   stale a [Timeout] verdict can be. *)
let slice_s = 0.25

(* Extract the first complete line from [pending], if any. *)
let take_line c =
  let s = Buffer.contents c.pending in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
    let line = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    Buffer.clear c.pending;
    Buffer.add_string c.pending rest;
    Some line

let read_frame ?(max_bytes = 1 lsl 20) ?(timeout_s = infinity) ?(should_stop = fun () -> false) c =
  let chunk = c.chunk in
  let start = Unix.gettimeofday () in
  let rec loop () =
    match take_line c with
    | Some line ->
      (* the limit also binds when a whole oversized frame lands in one
         read and so never trips the partial-buffer check below *)
      if String.length line > max_bytes then begin
        Buffer.clear c.pending;
        Oversized
      end
      else Frame line
    | None ->
      if Buffer.length c.pending > max_bytes then begin
        (* The rest of this frame is unbounded garbage; the caller must
           close the connection — there is no way to find the next
           frame boundary without reading it all. *)
        Buffer.clear c.pending;
        Oversized
      end
      else if should_stop () then Stopped
      else if Unix.gettimeofday () -. start > timeout_s then Timeout
      else begin
        match Unix.select [ c.fd ] [] [] slice_s with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
        | [], _, _ -> loop ()
        | _ -> (
          match Retry.read c.fd chunk 0 (Bytes.length chunk) with
          | 0 ->
            (* Peer closed.  A partial trailing line is a client that
               died mid-request: drop it rather than parse a truncated
               frame. *)
            Buffer.clear c.pending;
            Eof
          | n ->
            Buffer.add_subbytes c.pending chunk 0 n;
            loop ())
      end
  in
  match loop () with
  | frame -> frame
  | exception Unix.Unix_error (err, _, _) -> Failed (Unix.error_message err)

let write_frame fd s =
  let b = Bytes.unsafe_of_string s in
  match Retry.really_write fd b 0 (Bytes.length b) with
  | () -> Ok ()
  | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)

let send c emit =
  let w = Json.writer c.out (Retry.really_write c.fd) in
  match
    emit w;
    Json.end_line w
  with
  | () -> Ok ()
  | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)
