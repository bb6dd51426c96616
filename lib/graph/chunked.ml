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

let rec newline b i stop =
  if i >= stop then -1 else if Bytes.unsafe_get b i = '\n' then i else newline b (i + 1) stop

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
