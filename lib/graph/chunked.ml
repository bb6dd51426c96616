(* Chunked byte sources: the fixed-size-buffer reading discipline shared
   by the streaming loaders.  See chunked.mli. *)

let default_chunk_size = 65536

type source = unit -> (Bytes.t * int) option

let of_channel ?(chunk_size = default_chunk_size) ic =
  if chunk_size <= 0 then
    invalid_arg "Chunked.of_channel: chunk_size must be positive";
  let buf = Bytes.create chunk_size in
  fun () ->
    (* EINTR-retried: a signal delivered to a daemon-resident reader must
       not truncate the stream (Retry.input) *)
    match Retry.input ic buf 0 chunk_size with
    | 0 -> None
    | n -> Some (buf, n)
    | exception End_of_file -> None

let of_string ?(chunk_size = default_chunk_size) text =
  if chunk_size <= 0 then
    invalid_arg "Chunked.of_string: chunk_size must be positive";
  let buf = Bytes.create (min chunk_size (max 1 (String.length text))) in
  let pos = ref 0 in
  fun () ->
    if !pos >= String.length text then None
    else begin
      let n = min chunk_size (String.length text - !pos) in
      Bytes.blit_string text !pos buf 0 n;
      pos := !pos + n;
      Some (buf, n)
    end

let rec newline_byte b i stop =
  if i >= stop then -1 else if Bytes.unsafe_get b i = '\n' then i else newline_byte b (i + 1) stop

(* The first '\n' of [b] in [\[i, stop)], or -1.  A word at a time: xor
   with eight '\n's zeroes the newline bytes, and a word holds a zero
   byte exactly when [(x - 0x01..01) land (lnot x) land 0x80..80] is not
   zero.  The word that holds one, and the tail, go byte by byte. *)
let rec newline b i stop =
  if stop - i < 8 then newline_byte b i stop
  else
    let x = Int64.logxor (Bytes.get_int64_ne b i) 0x0a0a0a0a0a0a0a0aL in
    let zero =
      Int64.logand
        (Int64.logand (Int64.sub x 0x0101010101010101L) (Int64.lognot x))
        0x8080808080808080L
    in
    if Int64.equal zero 0L then newline b (i + 8) stop else newline_byte b i stop

(* A line that lies inside one chunk is handed over as a range of that
   chunk; only a line split across chunks is copied (into [carry]). *)
let iter_lines source f =
  let carry = ref (Bytes.create 256) and carried = ref 0 in
  let keep chunk start stop =
    let len = stop - start in
    if !carried + len > Bytes.length !carry then begin
      let bigger = Bytes.create (max (!carried + len) (2 * Bytes.length !carry)) in
      Bytes.blit !carry 0 bigger 0 !carried;
      carry := bigger
    end;
    Bytes.blit chunk start !carry !carried len;
    carried := !carried + len
  in
  let lineno = ref 1 in
  let rec drain chunk len start =
    match newline chunk start len with
    | -1 -> keep chunk start len
    | i ->
      if !carried = 0 then f !lineno chunk start i
      else begin
        keep chunk start i;
        let l = !carried in
        carried := 0;
        f !lineno !carry 0 l
      end;
      incr lineno;
      drain chunk len (i + 1)
  in
  let rec loop () =
    match source () with
    | Some (chunk, len) ->
      drain chunk len 0;
      loop ()
    | None -> if !carried > 0 then f !lineno !carry 0 !carried
  in
  loop ()

let whole text =
  let given = ref (text = "") in
  fun () ->
    if !given then None
    else begin
      given := true;
      (* no byte of [text] is ever written: sources are read-only *)
      Some (Bytes.unsafe_of_string text, String.length text)
    end

type fault = { record : int; subject : string; text : string; message : string }
