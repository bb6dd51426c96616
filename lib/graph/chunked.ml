(* Chunked byte sources: the fixed-size-buffer reading discipline shared
   by the streaming loaders.  See chunked.mli. *)

let default_chunk_size = 65536

type source = unit -> string option

let of_channel ?(chunk_size = default_chunk_size) ic =
  if chunk_size <= 0 then
    invalid_arg "Chunked.of_channel: chunk_size must be positive";
  let buf = Bytes.create chunk_size in
  fun () ->
    (* EINTR-retried: a signal delivered to a daemon-resident reader must
       not truncate the stream (Retry.input) *)
    match Retry.input ic buf 0 chunk_size with
    | 0 -> None
    | n -> Some (Bytes.sub_string buf 0 n)
    | exception End_of_file -> None

let of_string ?(chunk_size = default_chunk_size) text =
  if chunk_size <= 0 then
    invalid_arg "Chunked.of_string: chunk_size must be positive";
  let pos = ref 0 in
  fun () ->
    if !pos >= String.length text then None
    else begin
      let n = min chunk_size (String.length text - !pos) in
      let s = String.sub text !pos n in
      pos := !pos + n;
      Some s
    end

(* A line that lies inside one chunk is handed over as a range of that
   chunk; only a line split across chunks is copied (into [carry]). *)
let iter_lines source f =
  let carry = Buffer.create 256 in
  let lineno = ref 1 in
  let rec drain chunk start =
    match String.index_from_opt chunk start '\n' with
    | Some i ->
      if Buffer.length carry = 0 then f !lineno chunk start i
      else begin
        Buffer.add_substring carry chunk start (i - start);
        let l = Buffer.contents carry in
        Buffer.clear carry;
        f !lineno l 0 (String.length l)
      end;
      incr lineno;
      drain chunk (i + 1)
    | None -> Buffer.add_substring carry chunk start (String.length chunk - start)
  in
  let rec loop () =
    match source () with
    | Some chunk ->
      drain chunk 0;
      loop ()
    | None ->
      if Buffer.length carry > 0 then begin
        let l = Buffer.contents carry in
        f !lineno l 0 (String.length l)
      end
  in
  loop ()

let whole text =
  let given = ref (text = "") in
  fun () ->
    if !given then None
    else begin
      given := true;
      Some text
    end
