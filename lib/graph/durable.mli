(** Crash-safe file writes: temp + fsync(file) + rename + fsync(dir).

    Every artifact this project persists (binary snapshots, quarantine
    records, bench JSON) goes through this writer, which gives the one
    guarantee a reader can build on: {e after a crash at any point, the
    destination path either does not exist, still holds its previous
    complete content, or holds the new complete content} — never a torn
    file.  The recipe is the classic one: write to [path ^ ".tmp"],
    [fsync] the file so the data precedes the rename in the journal,
    [rename] over the destination (atomic on POSIX), then [fsync] the
    containing directory so the rename itself survives power loss.

    Each boundary in that sequence carries a named {!Fault.crash_point}
    ({!crash_points}), which is what lets the crash-point matrix test
    the claim literally: kill the process at every point, then check
    the destination is absent or passes full validation. *)

type t
(** An open durable writer: an fd on [path ^ ".tmp"] plus the
    destination path.  Not thread-safe; one writer per file. *)

val create : string -> t
(** Open [path ^ ".tmp"] (truncating any stale temp from a previous
    crash) for writing to [path].  Raises [Unix_error] if the temp
    file cannot be created. *)

val write : t -> string -> unit
(** Append bytes to the temp file, looping over partial writes with
    EINTR retry. *)

val write_bytes : t -> Bytes.t -> int -> int -> unit
(** [write_bytes t buf pos len] appends [len] bytes of [buf] from
    [pos], like {!write}. *)

val commit : t -> unit
(** Seal the write: fsync the temp file, close it, rename it over the
    destination, fsync the directory.  After [commit] returns the new
    content is durable.  The writer must not be used afterwards. *)

val abort : t -> unit
(** Close and delete the temp file, leaving the destination untouched.
    Never raises — safe in an exception handler. *)

val path : t -> string
(** Destination path this writer commits to. *)

val write_file : string -> string list -> unit
(** [write_file path chunks]: the whole create/write/commit sequence,
    aborting (temp removed, destination untouched) if any step
    raises. *)

val crash_points : string list
(** The named crash points this module declares, in execution order:
    [durable.tmp_open] (temp file just created), [durable.mid_write]
    (after each chunk), [durable.data_written] (all data written,
    nothing synced), [durable.file_synced] (file fsynced, not yet
    renamed), [durable.renamed] (renamed, directory not yet fsynced).
    The crash-matrix test iterates this list — a new point added here
    is automatically covered. *)
