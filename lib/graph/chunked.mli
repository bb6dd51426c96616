(** Chunked byte sources — the fixed-size-buffer reading discipline
    shared by the streaming loaders ({!Pgf.read}, {!Graphml.read},
    {!Stream}).

    A source yields successive chunks of an input and [None] at end of
    input.  Consumers never concatenate the chunks into one string: the
    streaming readers hold at most one record (plus one chunk) in memory
    at a time, so ingesting a multi-gigabyte graph file needs the memory
    of its largest record, not of the file. *)

type source = unit -> string option
(** Successive chunks, [None] at end of input.  A source must never
    yield an empty chunk. *)

val default_chunk_size : int
(** 64 KiB. *)

val of_channel : ?chunk_size:int -> in_channel -> source
(** Read the channel in chunks of at most [chunk_size] bytes.  The
    source does not close the channel. *)

val of_string : ?chunk_size:int -> string -> source
(** Serve an in-memory string in chunks — the differential tests drive
    the streaming readers with every chunk size from 1 byte up to the
    whole input to pin down that chunking is unobservable. *)

val whole : string -> source
(** The string as a single chunk, without copying it: a loader reading
    through {!iter_lines} then scans the text in place. *)

val iter_lines : source -> (int -> string -> int -> int -> unit) -> unit
(** [iter_lines source f] calls [f lineno s start stop] for every
    ['\n']-terminated line (terminator stripped) and for a non-empty
    final line; the line is the range [\[start, stop)] of [s], which is
    the chunk itself when the line lies inside one chunk and a fresh
    string only when it spans several (so a line costs no copy).  Line
    numbers are 1-based and count terminators, exactly like
    [String.split_on_char '\n'] — whose trailing [""] artifact is the
    only line this iteration does not deliver, which is observably
    identical for consumers that skip blank lines.  Exceptions raised by
    [f] abort the iteration and propagate. *)
