(** Chunked byte sources — the fixed-size-buffer reading discipline
    shared by the streaming loaders ({!Pgf.read}, {!Graphml.read},
    {!Stream}).

    A source yields successive chunks of an input and [None] at end of
    input.  Consumers never concatenate the chunks into one string: the
    streaming readers hold at most one record (plus one chunk) in memory
    at a time, so ingesting a multi-gigabyte graph file needs the memory
    of its largest record, not of the file. *)

type source = unit -> (Bytes.t * int) option
(** Successive chunks, [None] at end of input.  [Some (b, len)] is the
    chunk of the first [len] bytes of [b], and [len] is at least 1.  A
    chunk is valid only until the next pull: a source refills one buffer,
    so a consumer copies whatever it keeps.  Consumers only read the
    bytes, never write them. *)

val default_chunk_size : int
(** 64 KiB. *)

val of_channel : ?chunk_size:int -> in_channel -> source
(** Read the channel in chunks of at most [chunk_size] bytes, into one
    buffer of that size.  The source does not close the channel. *)

val of_string : ?chunk_size:int -> string -> source
(** Serve an in-memory string in chunks, copied into one buffer like
    {!of_channel}'s — the differential tests drive the streaming readers
    with every chunk size from 1 byte up to the whole input to pin down
    that chunking is unobservable. *)

val whole : string -> source
(** The string as a single chunk, without copying it: a loader reading
    through {!iter_lines} then scans the text in place. *)

val iter_lines : source -> (int -> Bytes.t -> int -> int -> unit) -> unit
(** [iter_lines source f] calls [f lineno b start stop] for every
    ['\n']-terminated line (terminator stripped) and for a non-empty
    final line; the line is the range [\[start, stop)] of [b], which is
    the chunk itself when the line lies inside one chunk and a carry
    buffer only when it spans several (so a line costs no copy).  The
    range is valid only during the call: [f] copies what it keeps.  Line
    numbers are 1-based and count terminators, exactly like
    [String.split_on_char '\n'] — whose trailing [""] artifact is the
    only line this iteration does not deliver, which is observably
    identical for consumers that skip blank lines.  Exceptions raised by
    [f] abort the iteration and propagate. *)

type fault = {
  record : int;
      (** 1-based record ordinal (PGF: line number; a GraphML document
          cut before [</graphml>] faults one past its last record) *)
  subject : string;  (** e.g. ["line 7"] or [node "n3"] *)
  text : string;  (** raw text of the offending record *)
  message : string;  (** the parser's error message *)
}
(** A malformed record that a streaming loader skipped: the faults of
    {!Stream}'s readers and of {!Graphml.read_tolerant}. *)
