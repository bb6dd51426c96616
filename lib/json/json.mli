(** JSON values — the response format of GraphQL execution (spec
    Section 7).  Self-contained (no JSON library ships with the sealed
    environment); the printer emits standards-compliant JSON and the
    parser accepts it back, which is property-tested. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list  (** insertion order preserved *)

val equal : t -> t -> bool

val member : string -> t -> t
(** [member k (Assoc ...)] or [Null]. *)

val index : int -> t -> t
(** [index i (List ...)] or [Null]. *)

val to_string : ?indent:bool -> t -> string
(** Compact by default; [~indent:true] pretty-prints with two spaces.
    {!write} into a [Buffer].  A float that is not finite prints as
    [null]. *)

(** {1 Streaming}

    The one printer behind {!to_string}.  A writer fills a fixed buffer
    and hands each full one to its sink, so a document of any size
    costs the buffer; a caller can write a list one element at a time
    with the event functions, and the bytes equal {!to_string}'s of the
    whole tree. *)

type writer

val writer : ?indent:bool -> Bytes.t -> (Bytes.t -> int -> int -> unit) -> writer
(** [writer buf out] fills [buf] and calls [out buf 0 len] when it is
    full and at {!flush}.  Compact by default.  Whatever [out] raises
    passes through to the caller of the writing function.
    @raise Invalid_argument if [buf] is empty. *)

val write : writer -> t -> unit
(** The next value: the whole document, a list element, or the value of
    the {!key} just written. *)

val begin_object : writer -> unit
val end_object : writer -> unit

val key : writer -> string -> unit
(** The next member's key, inside {!begin_object}; its value follows
    with {!write} or a [begin_*]. *)

val begin_list : writer -> unit
val end_list : writer -> unit

val flush : writer -> unit
(** Hand what is buffered to the sink. *)

val end_line : writer -> unit
(** A newline after the document (the line ending of a report, the
    frame terminator of NDJSON), then {!flush}. *)

val pp : Format.formatter -> t -> unit
(** Pretty-printed. *)

val of_string : string -> (t, string) result

val of_property_value : Pg_graph.Value.t -> t
(** Embed a Property Graph value ([Id] and [Enum] become strings). *)
