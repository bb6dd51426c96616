(** Encoded property pools: the one representation of property values,
    from staging through a frozen {!Snapshot} to a mapped snapshot file.

    A pool holds the properties of one element kind (nodes or edges).
    Element [i]'s property vector is a run of bytes located through an
    offset index, in exactly the encoding of snapshot format version 2:

    {v
    vector   count, then count entries in strictly increasing key order
    entry    key (a pool symbol id), then one tagged value
    value    'i' int | 'f' IEEE-754 bits | 's' / 'd' / 'e' length + bytes
             | 'b' one byte (0 = false) | 'l' count + that many values
    v}

    Every integer is 64-bit little-endian; the tags are the ASCII bytes
    shown, for [Int], [Float], [String], [Id], [Enum], [Bool] and [List].

    Keys stay in the pool's own symbol space (the staging area's, or the
    writer's symbol table for a file), and a translation table maps them
    to the symbol table the snapshot is frozen against.  Re-expressing a
    pool in another table therefore rewrites the translation, never a
    byte.  Reading decodes a value only when asked for it: a rule that
    tests keys alone touches no value bytes.

    This module is the only one that encodes, decodes or validates
    these bytes. *)

type data = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Off-heap bytes: a pool's storage, or a mapped file section. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t
(** A frozen pool: its bytes are one pointer-free heap block (a frozen
    staging buffer) or a mapped file section.  Immutable, and safe to
    share across domains. *)

val count : t -> int
(** The number of elements. *)

val size : t -> int
(** The encoded size of all vectors, in bytes. *)

val offset : t -> int -> int
(** [offset p i] is the position of element [i]'s vector from the start
    of the pool; [offset p (count p) = size p]. *)

(** {2 Reading} *)

val length : t -> int -> int
(** The number of properties of an element. *)

val fold : t -> int -> (int -> int -> 'a -> 'a) -> 'a -> 'a
(** [fold p i f acc] applies [f key pos] to each property of element
    [i] in pool key order: [key] is the property's symbol table id and
    [pos] locates its encoded value for {!value} and its kin. *)

val find : t -> int -> int -> int
(** [find p i key] locates the value element [i] binds to symbol
    [key], or is [-1] when the element has no such property. *)

val value : t -> int -> Value.t
(** Decode the value at a position. *)

val is_nonempty_list : t -> int -> bool
(** Is the value at a position a list of at least one item?  Reads the
    tag and count only. *)

val add_canonical : Buffer.t -> t -> int -> unit
(** Append a serialization of the value at a position that is
    collision-free and equal exactly for values {!Value.equal} calls
    equal: the encoded bytes, with every float made canonical ([-0.0]
    as [+0.0], one [nan]) and every boolean byte as 0 or 1. *)

val bindings : t -> int -> (int * Value.t) list
(** An element's properties decoded, keys as symbol table ids, in pool
    key order. *)

val translate : (int -> int) -> t -> t
(** The same pool with every key's symbol id [id] re-expressed as
    [f id].  [f] must be injective on the ids in use.  No byte is
    copied. *)

(** {2 Building} *)

type pending
(** The bindings of the record under construction, already encoded. *)

val pending : unit -> pending

val bind : pending -> int -> Value.t -> unit
(** [bind p key v] encodes [v] as the value of pool key [key] in the
    pending record.  Binding a key again replaces its value: the last
    binding wins. *)

type builder
(** A growable pool, one vector appended per element. *)

val builder : bytes:int -> int -> builder
(** An empty pool with room for the given number of encoded bytes and
    elements before the first growth. *)

val commit : builder -> pending -> unit
(** Append the next element's vector: the pending bindings, sorted by
    key.  The pending record is empty afterwards. *)

val iter_keys : builder -> int -> (int -> unit) -> unit
(** The pool keys of an element's vector, in key order. *)

val freeze : builder -> int array -> t
(** The vectors committed so far, translated through the array (pool
    key to symbol id; [-1] for a pool key no vector uses).  Shares the
    builder's storage: later commits append beyond what the result
    sees. *)

(** {2 Files} *)

val of_section :
  data -> ints -> base:int -> nsyms:int -> int array -> (t, string) result
(** [of_section data off ~base ~nsyms trans] is the pool stored in a
    file section: [data] holds the section's bytes, which start at file
    position [base], and [off] is its offset index of absolute file
    positions (one more entry than there are elements), already known to
    be non-decreasing and to end within [data].  Keys are ids below
    [nsyms] that [trans] translates.  One scan, which allocates nothing,
    proves every vector well formed — known tags; every count and length
    in bounds; key ids below [nsyms] and strictly increasing; the vector
    ending exactly at the next offset entry — so reading never fails
    later.  The error names the first fault found. *)

val output : t -> (Bytes.t -> int -> unit) -> unit
(** Emit the pool as a file section: every vector with its keys written
    as their symbol ids and its entries sorted by them, values copied
    byte for byte.  The bytes arrive through [write buf len] calls that
    reuse one buffer, [size] bytes in all. *)
