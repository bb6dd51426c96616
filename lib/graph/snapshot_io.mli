(** Persisted binary snapshots: write a frozen {!Snapshot} to disk once,
    reopen it in O(graph-independent work + one mmap) instead of
    reparsing the source text.

    {2 On-disk format (version 2)}

    All integers are 64-bit little-endian.  The file is:

    {v
    magic "GPGSNAP1" | version | n | m | nsyms | total size
    section offset table (15 entries)
    symtab section        nsyms length-prefixed strings
    10 integer sections   node_id, edge_id, node_label, edge_label,
                          edge_src, edge_tgt, out_start, out_adj,
                          in_start, in_adj (8-byte aligned, mmap-ready)
    2 offset indexes      node_prop_off (n+1), edge_prop_off (m+1):
                          absolute byte positions of each element's
                          property vector (mmap-ready int columns)
    2 property sections   node_props, edge_props: {!Props} pools
    trailing CRC-32       over every preceding byte
    v}

    {!load} verifies magic, version, size and checksum, and maps the
    twelve integer sections and both property sections with
    [Unix.map_file] (private pages — neither the CSR nor a property
    value is copied through the OCaml heap).  One scan at open proves
    every property vector well formed ({!Props.of_section}); a value is
    decoded only when a rule reads it.  The stored symbols are then
    {e remapped} into the caller's symbol table: label columns are
    rewritten through an [old id -> intern] table, and the property
    pools get that table as their translation, so no property byte
    changes.  Kernels only rely on equal labels being contiguous within
    a CSR segment, so the mapped adjacency needs no re-sort and
    validation reports are byte-identical to a fresh {!Snapshot.build}
    over the same graph.  A snapshot file is therefore self-contained
    and schema-independent: it can be validated against any plan.

    A loaded snapshot holds no file descriptor.  Its pages belong to the
    file: an I/O error paging one in is a [SIGBUS], as for any mapped
    file. *)

type error = { code : string; message : string }
(** [code] is a stable {!Pg_diag.Registry} code: [IO001] for filesystem
    failures, [IO004] for format errors (bad magic, unsupported version,
    truncation, malformed layout), [IO005] for checksum mismatches. *)

val pp_error : Format.formatter -> error -> unit

type info = {
  version : int;
  nodes : int;
  edges : int;
  symbols : int;
  bytes : int;  (** total file size *)
}

val format_version : int
(** The version this build writes (and the only one it reads). *)

val write : Symtab.t -> Snapshot.t -> string -> (unit, error) result
(** [write st snap path] persists [snap] together with the symbols of
    [st] it references.  The file is streamed, each section's length
    known before the first byte, to a temporary sibling that is renamed
    into place, so a crashed writer never leaves a torn file under
    [path]. *)

val load : Symtab.t -> string -> (Snapshot.t, error) result
(** [load st path] maps a snapshot back, interning its symbols into
    [st] (mutating it, like {!Snapshot.build} — sequential-only while
    interning).  The integer sections are validated structurally (CSR
    offsets monotone and closed, endpoints in range, property offset
    indexes monotone and within their sections) and the property
    sections scanned, so a malformed file fails with a diagnostic
    instead of a kernel exception. *)

val info : string -> (info, error) result
(** Header summary of a snapshot file, after the same magic / version /
    size / checksum verification as {!load}. *)

(** {2 Mapped handles} *)

type mapped
(** A verified, fully mapped snapshot: the same thing {!load} returns,
    as a handle.  It remains only for the benchmark replay; every
    validate path loads snapshots with {!load}. *)

val open_mapped : Symtab.t -> string -> (mapped, error) result
(** {!load}, as a handle. *)

val mapped_snapshot : mapped -> Snapshot.t

val close_mapped : mapped -> unit
(** Nothing to release: the handle holds no descriptor, and its
    mappings go with the snapshot when it is collected. *)

val checksum : string -> int64
(** The CRC-32 (IEEE, as used for the trailing checksum) of a raw byte
    string.  Exposed so corruption tests can re-seal a deliberately
    patched file and reach the checks behind the checksum. *)
