(** Growable int columns, the staging area's storage: appended to one
    entry at a time, read by index, and copied once into an exact
    Bigarray when frozen.

    A column grows in fixed blocks of 16 Ki entries after a first block
    that starts at 64 entries and doubles.  Growing never copies a block,
    so a column holds at most one partly used block and leaves no
    grown-out arrays behind on the major heap. *)

type t

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : unit -> t
(** An empty column. *)

val length : t -> int

val get : t -> int -> int
(** @raise Invalid_argument unless the index is below {!length}. *)

val push : t -> int -> unit
(** Append an entry; its index is the length before the call. *)

val to_ints : t -> ints
(** The entries, copied into a Bigarray of exactly {!length} entries. *)
