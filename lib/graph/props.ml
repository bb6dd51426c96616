(* Encoded property pools (see props.mli for the byte layout).

   A frozen pool is an offset index, the bytes it indexes and two
   translation tables.  Index and bytes live in one of two places:

   - on the OCaml heap, as the staging buffer a freeze hands over: an
     int array and one pointer-free byte block, which the GC never scans
     and which, unlike a malloc'd Bigarray, does not count as
     out-of-heap memory that speeds up major collections;
   - in a mapped file section, as Bigarrays.

   Every read goes through [byte] and [i64_at], whose match on the
   store is the only difference.  Readers trust the bytes: the builder
   only writes well-formed vectors, and [of_section] proves a file's
   well formed before anything reads it. *)

type data = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type store = Heap of Bytes.t | Mapped of data
type index = Heap_index of int array | Mapped_index of ints

(* The compiler's bigstring primitive loads a native-endian word; the
   format is little-endian, so a big-endian host swaps. *)
external get64 : data -> int -> int64 = "%caml_bigstring_get64"
external swap64 : int64 -> int64 = "%bswap_int64"
external big_endian : unit -> bool = "%big_endian"

let[@inline] get_i64 d pos =
  let v = get64 d pos in
  if big_endian () then swap64 v else v

let[@inline] byte s pos =
  match s with Heap b -> Bytes.get b pos | Mapped d -> Bigarray.Array1.get d pos

let[@inline] i64_at s pos =
  match s with Heap b -> Bytes.get_int64_le b pos | Mapped d -> get_i64 d pos

let[@inline] int_at s pos = Int64.to_int (i64_at s pos)

let[@inline] index_at x i =
  match x with Heap_index a -> a.(i) | Mapped_index o -> Bigarray.Array1.get o i

type t = {
  count : int;
  index : index;  (** element i's vector starts at [index_at index i - base] *)
  base : int;
  store : store;
  trans : int array;  (** pool key -> symbol id, -1 where unused *)
  inv : int array;  (** symbol id -> pool key, -1 where absent *)
}

let invert trans =
  let inv = Array.make (Array.fold_left Int.max (-1) trans + 1) (-1) in
  Array.iteri (fun k id -> if id >= 0 then inv.(id) <- k) trans;
  inv

let make ~count ~index ~base store trans =
  { count; index; base; store; trans; inv = invert trans }

let count p = p.count
let offset p i = index_at p.index i - index_at p.index 0
let size p = offset p p.count

let translate f p =
  make ~count:p.count ~index:p.index ~base:p.base p.store
    (Array.map (fun id -> if id < 0 then id else f id) p.trans)

(* ---- reading ---- *)

(* The position just past [todo] values from [pos].  Iterative: a list
   only adds its items to the values still to skip. *)
let skip_values s pos todo =
  let pos = ref pos and todo = ref todo in
  while !todo > 0 do
    decr todo;
    let p = !pos in
    match byte s p with
    | 'b' -> pos := p + 2
    | 's' | 'd' | 'e' -> pos := p + 9 + int_at s (p + 1)
    | 'l' ->
      todo := !todo + int_at s (p + 1);
      pos := p + 9
    | _ -> pos := p + 9
  done;
  !pos

let[@inline] skip s pos =
  match byte s pos with
  | 'b' -> pos + 2
  | 's' | 'd' | 'e' -> pos + 9 + int_at s (pos + 1)
  | 'l' -> skip_values s pos 1
  | _ -> pos + 9

let start p i = index_at p.index i - p.base
let length p i = int_at p.store (start p i)

let fold p i f acc =
  let s = p.store and trans = p.trans in
  let at = start p i in
  let pos = ref (at + 8) and acc = ref acc in
  for _ = 1 to int_at s at do
    let vpos = !pos + 8 in
    acc := f trans.(int_at s !pos) vpos !acc;
    pos := skip s vpos
  done;
  !acc

(* Vectors are sorted by pool key, so the scan stops at the first key
   past the one sought. *)
let rec find_in s target k pos =
  if k = 0 then -1
  else
    let key = int_at s pos in
    if key = target then pos + 8
    else if key > target then -1
    else find_in s target (k - 1) (skip s (pos + 8))

let find p i key =
  if key < 0 || key >= Array.length p.inv then -1
  else
    let target = p.inv.(key) in
    if target < 0 then -1
    else
      let pos = start p i in
      find_in p.store target (int_at p.store pos) (pos + 8)

let string_at s pos =
  let len = int_at s pos in
  match s with
  | Heap b -> Bytes.sub_string b (pos + 8) len
  | Mapped d ->
    let b = Bytes.create len in
    for k = 0 to len - 1 do
      Bytes.unsafe_set b k (Bigarray.Array1.get d (pos + 8 + k))
    done;
    Bytes.unsafe_to_string b

let rec decode s pos =
  match byte s pos with
  | 'i' -> Value.Int (int_at s (pos + 1))
  | 'f' -> Value.Float (Int64.float_of_bits (i64_at s (pos + 1)))
  | 's' -> Value.String (string_at s (pos + 1))
  | 'd' -> Value.Id (string_at s (pos + 1))
  | 'e' -> Value.Enum (string_at s (pos + 1))
  | 'b' -> Value.Bool (byte s (pos + 1) <> '\000')
  | 'l' ->
    let rec items k pos acc =
      if k = 0 then List.rev acc else items (k - 1) (skip s pos) (decode s pos :: acc)
    in
    Value.List (items (int_at s (pos + 1)) (pos + 9) [])
  | c -> invalid_arg (Printf.sprintf "Props.value: unknown value tag %C" c)

let value p pos = decode p.store pos
let is_nonempty_list p pos = byte p.store pos = 'l' && int_at p.store (pos + 1) > 0

let add_bytes buf s pos len =
  match s with
  | Heap b -> Buffer.add_subbytes buf b pos len
  | Mapped d ->
    for k = pos to pos + len - 1 do
      Buffer.add_char buf (Bigarray.Array1.get d k)
    done

let nan_bits = Int64.bits_of_float Float.nan

let add_canonical buf p pos =
  let s = p.store in
  let pos = ref pos and todo = ref 1 in
  while !todo > 0 do
    decr todo;
    let at = !pos in
    let tag = byte s at in
    Buffer.add_char buf tag;
    match tag with
    | 'f' ->
      let f = Int64.float_of_bits (i64_at s (at + 1)) in
      Buffer.add_int64_le buf (if Float.is_nan f then nan_bits else Int64.bits_of_float (f +. 0.0));
      pos := at + 9
    | 'b' ->
      Buffer.add_char buf (if byte s (at + 1) = '\000' then '\000' else '\001');
      pos := at + 2
    | 's' | 'd' | 'e' ->
      let len = int_at s (at + 1) in
      add_bytes buf s (at + 1) (8 + len);
      pos := at + 9 + len
    | 'l' ->
      todo := !todo + int_at s (at + 1);
      add_bytes buf s (at + 1) 8;
      pos := at + 9
    | _ ->
      add_bytes buf s (at + 1) 8;
      pos := at + 9
  done

let bindings p i = List.rev (fold p i (fun key pos acc -> (key, value p pos) :: acc) [])

(* ---- building ---- *)

(* [b], whose first [used] bytes are live, grown by doubling to hold
   [len] more *)
let grow b used len =
  let b' = Bytes.create (max (used + len) (2 * Bytes.length b)) in
  Bytes.blit b 0 b' 0 used;
  b'

(* [a] with room for index [need], doubling *)
let room a need =
  let len = Array.length a in
  if need < len then a
  else begin
    let b = Array.make (max (need + 1) (2 * len)) 0 in
    Array.blit a 0 b 0 len;
    b
  end

(* The pending record: each binding's encoded value is the range
   [starts.(x), stops.(x)) of [scratch].  A rebinding appends the new
   encoding and repoints its key; the dead bytes go when the record is
   committed. *)
type pending = {
  mutable keys : int array;
  mutable starts : int array;
  mutable stops : int array;
  mutable bound : int;
  mutable scratch : Bytes.t;
  mutable used : int;
}

let pending () =
  {
    keys = Array.make 8 0;
    starts = Array.make 8 0;
    stops = Array.make 8 0;
    bound = 0;
    scratch = Bytes.create 256;
    used = 0;
  }

let reserve p len =
  if p.used + len > Bytes.length p.scratch then p.scratch <- grow p.scratch p.used len

let put_char p c =
  reserve p 1;
  Bytes.unsafe_set p.scratch p.used c;
  p.used <- p.used + 1

let put_i64 p v =
  reserve p 8;
  Bytes.set_int64_le p.scratch p.used v;
  p.used <- p.used + 8

let put_int p i = put_i64 p (Int64.of_int i)

let put_string p tag s =
  put_char p tag;
  put_int p (String.length s);
  reserve p (String.length s);
  Bytes.blit_string s 0 p.scratch p.used (String.length s);
  p.used <- p.used + String.length s

let rec encode p (v : Value.t) =
  match v with
  | Int i ->
    put_char p 'i';
    put_int p i
  | Float f ->
    put_char p 'f';
    put_i64 p (Int64.bits_of_float f)
  | String s -> put_string p 's' s
  | Id s -> put_string p 'd' s
  | Enum s -> put_string p 'e' s
  | Bool b ->
    put_char p 'b';
    put_char p (if b then '\001' else '\000')
  | List vs ->
    put_char p 'l';
    put_int p (List.length vs);
    List.iter (encode p) vs

let bind p key v =
  let x = ref 0 in
  while !x < p.bound && p.keys.(!x) <> key do
    incr x
  done;
  let x = !x in
  if x = p.bound then begin
    p.keys <- room p.keys x;
    p.starts <- room p.starts x;
    p.stops <- room p.stops x;
    p.keys.(x) <- key;
    p.bound <- x + 1
  end;
  p.starts.(x) <- p.used;
  encode p v;
  p.stops.(x) <- p.used

type builder = {
  mutable b_off : int array;  (** vector k starts at [b_off.(k)]; [b_off.(b_count)] = [b_len] *)
  mutable b_data : Bytes.t;
  mutable b_len : int;
  mutable b_count : int;
}

let builder ~bytes capacity =
  {
    b_off = Array.make (max 1 capacity + 1) 0;
    b_data = Bytes.create (max 1024 bytes);
    b_len = 0;
    b_count = 0;
  }

let commit b p =
  (* insertion sort of the bindings by key: records are short *)
  for x = 1 to p.bound - 1 do
    let key = p.keys.(x) and s = p.starts.(x) and e = p.stops.(x) in
    let y = ref (x - 1) in
    while !y >= 0 && p.keys.(!y) > key do
      p.keys.(!y + 1) <- p.keys.(!y);
      p.starts.(!y + 1) <- p.starts.(!y);
      p.stops.(!y + 1) <- p.stops.(!y);
      decr y
    done;
    p.keys.(!y + 1) <- key;
    p.starts.(!y + 1) <- s;
    p.stops.(!y + 1) <- e
  done;
  let need = ref 8 in
  for x = 0 to p.bound - 1 do
    need := !need + 8 + p.stops.(x) - p.starts.(x)
  done;
  if b.b_len + !need > Bytes.length b.b_data then b.b_data <- grow b.b_data b.b_len !need;
  let d = b.b_data in
  Bytes.set_int64_le d b.b_len (Int64.of_int p.bound);
  let pos = ref (b.b_len + 8) in
  for x = 0 to p.bound - 1 do
    Bytes.set_int64_le d !pos (Int64.of_int p.keys.(x));
    let len = p.stops.(x) - p.starts.(x) in
    Bytes.blit p.scratch p.starts.(x) d (!pos + 8) len;
    pos := !pos + 8 + len
  done;
  if b.b_count + 1 >= Array.length b.b_off then b.b_off <- room b.b_off (b.b_count + 1);
  b.b_len <- !pos;
  b.b_count <- b.b_count + 1;
  b.b_off.(b.b_count) <- !pos;
  p.bound <- 0;
  p.used <- 0

let iter_keys b i f =
  let s = Heap b.b_data in
  let rec go k pos =
    if k > 0 then begin
      f (int_at s pos);
      go (k - 1) (skip s (pos + 8))
    end
  in
  let pos = b.b_off.(i) in
  go (int_at s pos) (pos + 8)

let freeze b trans =
  make ~count:b.b_count ~index:(Heap_index b.b_off) ~base:0 (Heap b.b_data) trans

(* ---- files ---- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt

(* A native int from the 8 bytes at [pos], which must end by [stop]. *)
let native d pos stop =
  if pos + 8 > stop then raise (Bad "unexpected end of section");
  let v = get_i64 d pos in
  let n = Int64.to_int v in
  if not (Int64.equal (Int64.of_int n) v) then raise (Bad "integer out of native range");
  n

(* A count or length at [pos]: at least 0, at most the bytes after it *)
let length_at d pos stop what =
  let n = native d pos stop in
  if n < 0 || n > stop - (pos + 8) then bad "bad %s length %d" what n;
  n

(* The position just past the well-formed value at [pos], ending by
   [stop].  Iterative like [skip_values], so no nesting depth can
   exhaust the stack; every step consumes at least two bytes, so it
   terminates. *)
let check_value (d : data) pos stop =
  let pos = ref pos and todo = ref 1 in
  while !todo > 0 do
    decr todo;
    let p = !pos in
    if p >= stop then raise (Bad "unexpected end of section");
    match Bigarray.Array1.get d p with
    | 'i' ->
      ignore (native d (p + 1) stop);
      pos := p + 9
    | 'f' ->
      if p + 9 > stop then raise (Bad "unexpected end of section");
      pos := p + 9
    | 's' | 'd' | 'e' -> pos := p + 9 + length_at d (p + 1) stop "string"
    | 'b' ->
      if p + 2 > stop then raise (Bad "unexpected end of section");
      pos := p + 2
    | 'l' ->
      todo := !todo + length_at d (p + 1) stop "list";
      pos := p + 9
    | c -> bad "unknown value tag %C" c
  done;
  !pos

let check_vector d i start stop nsyms =
  let count = length_at d start stop "property vector" in
  let pos = ref (start + 8) and prev = ref (-1) in
  for _ = 1 to count do
    let key = native d !pos stop in
    if key < 0 || key >= nsyms then bad "symbol id %d out of range" key;
    if key <= !prev then bad "property vector %d does not have strictly increasing keys" i;
    prev := key;
    pos := check_value d (!pos + 8) stop
  done;
  if !pos <> stop then bad "property vector %d does not end at its offset" i

let of_section data (off : ints) ~base ~nsyms trans =
  let count = Bigarray.Array1.dim off - 1 in
  match
    for i = 0 to count - 1 do
      check_vector data i (off.{i} - base) (off.{i + 1} - base) nsyms
    done
  with
  | () -> Ok (make ~count ~index:(Mapped_index off) ~base (Mapped data) trans)
  | exception Bad msg -> Error msg

let output p write =
  let s = p.store in
  let buf = Bytes.create 65536 in
  let len = ref 0 in
  let room n =
    if !len + n > Bytes.length buf then begin
      write buf !len;
      len := 0
    end
  in
  let put_int i =
    room 8;
    Bytes.set_int64_le buf !len (Int64.of_int i);
    len := !len + 8
  in
  let put_range pos stop =
    for k = pos to stop - 1 do
      room 1;
      Bytes.unsafe_set buf !len (byte s k);
      incr len
    done
  in
  (* one vector's entries: translated key, start of the value, its end *)
  let keys = ref [||] and starts = ref [||] and stops = ref [||] in
  for i = 0 to p.count - 1 do
    let at = start p i in
    let n = int_at s at in
    if Array.length !keys < n then begin
      keys := Array.make n 0;
      starts := Array.make n 0;
      stops := Array.make n 0
    end;
    let keys = !keys and starts = !starts and stops = !stops in
    let pos = ref (at + 8) in
    for x = 0 to n - 1 do
      keys.(x) <- p.trans.(int_at s !pos);
      starts.(x) <- !pos + 8;
      pos := skip s (!pos + 8);
      stops.(x) <- !pos
    done;
    (* insertion sort by translated key *)
    for x = 1 to n - 1 do
      let key = keys.(x) and a = starts.(x) and e = stops.(x) in
      let y = ref (x - 1) in
      while !y >= 0 && keys.(!y) > key do
        keys.(!y + 1) <- keys.(!y);
        starts.(!y + 1) <- starts.(!y);
        stops.(!y + 1) <- stops.(!y);
        decr y
      done;
      keys.(!y + 1) <- key;
      starts.(!y + 1) <- a;
      stops.(!y + 1) <- e
    done;
    put_int n;
    for x = 0 to n - 1 do
      put_int keys.(x);
      put_range starts.(x) stops.(x)
    done
  done;
  if !len > 0 then write buf !len
