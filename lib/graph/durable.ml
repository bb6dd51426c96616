(* Crash-safe temp+fsync+rename writes.  See durable.mli. *)

module Fault = Pg_fault.Fault

type t = { dest : string; tmp : string; fd : Unix.file_descr }

let pt_tmp_open = "durable.tmp_open"
let pt_mid_write = "durable.mid_write"
let pt_data_written = "durable.data_written"
let pt_file_synced = "durable.file_synced"
let pt_renamed = "durable.renamed"

let crash_points =
  [ pt_tmp_open; pt_mid_write; pt_data_written; pt_file_synced; pt_renamed ]

let create dest =
  let tmp = dest ^ ".tmp" in
  let fd = Fault.openfile tmp [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  Fault.crash_point pt_tmp_open;
  { dest; tmp; fd }

let path t = t.dest

let write_bytes t buf pos len =
  let pos = ref pos and stop = pos + len in
  while !pos < stop do
    match Fault.write t.fd buf !pos (stop - !pos) with
    | n -> pos := !pos + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Fault.crash_point pt_mid_write

let write t s = write_bytes t (Bytes.unsafe_of_string s) 0 (String.length s)

(* fsync the directory so the rename entry itself is on disk.  Some
   filesystems reject fsync on a directory fd (EINVAL) — there the
   rename is as durable as the platform allows and we move on. *)
let fsync_dir dest =
  let dir = Filename.dirname dest in
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dfd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close dfd with Unix.Unix_error _ -> ())
      (fun () ->
        try Fault.fsync dfd with
        | Unix.Unix_error ((Unix.EINVAL | Unix.EBADF | Unix.EROFS), _, _) -> ())

let commit t =
  Fault.crash_point pt_data_written;
  Fault.fsync t.fd;
  Fault.crash_point pt_file_synced;
  Unix.close t.fd;
  Fault.rename t.tmp t.dest;
  Fault.crash_point pt_renamed;
  fsync_dir t.dest

let abort t =
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  try Sys.remove t.tmp with Sys_error _ -> ()

let write_file dest chunks =
  let t = create dest in
  match
    List.iter (write t) chunks;
    commit t
  with
  | () -> ()
  | exception e ->
    abort t;
    raise e
