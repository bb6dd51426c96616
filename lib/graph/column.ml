(* Growable int columns in blocks.  See column.mli.

   Entry [i] lives in [blocks.(i lsr block_bits)] at [i land mask].
   Block 0 starts small and doubles until it is a whole block, so a
   small column stays small; past that, every block holds [block_size]
   entries and growing adds one, so no entry is copied again and no
   grown-out block is left for the GC. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let block_bits = 14
let block_size = 1 lsl block_bits
let mask = block_size - 1

type t = { mutable blocks : int array array; mutable len : int }

let create () = { blocks = [| Array.make 64 0 |]; len = 0 }
let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Column.get";
  Array.unsafe_get (Array.unsafe_get t.blocks (i lsr block_bits)) (i land mask)

let push t v =
  let i = t.len in
  let b = i lsr block_bits in
  if b = 0 && i = Array.length t.blocks.(0) then begin
    let first = Array.make (min block_size (2 * i)) 0 in
    Array.blit t.blocks.(0) 0 first 0 i;
    t.blocks.(0) <- first
  end
  else if b > 0 && i land mask = 0 then begin
    if b = Array.length t.blocks then begin
      let spine = Array.make (2 * b) [||] in
      Array.blit t.blocks 0 spine 0 b;
      t.blocks <- spine
    end;
    t.blocks.(b) <- Array.make block_size 0
  end;
  Array.unsafe_set t.blocks.(b) (i land mask) v;
  t.len <- i + 1

let to_ints t =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout t.len in
  let i = ref 0 and b = ref 0 in
  while !i < t.len do
    let block = t.blocks.(!b) in
    let n = min (Array.length block) (t.len - !i) in
    for k = 0 to n - 1 do
      Bigarray.Array1.unsafe_set a (!i + k) (Array.unsafe_get block k)
    done;
    i := !i + n;
    incr b
  done;
  a
