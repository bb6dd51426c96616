type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

let rec equal a b =
  match a, b with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y || (Float.is_nan x && Float.is_nan y)
  | String x, String y -> String.equal x y
  | List x, List y -> List.length x = List.length y && List.for_all2 equal x y
  | Assoc x, Assoc y ->
    List.length x = List.length y
    && List.for_all2 (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2) x y
  | (Null | Bool _ | Int _ | Float _ | String _ | List _ | Assoc _), _ -> false

let member k = function Assoc fields -> Option.value ~default:Null (List.assoc_opt k fields) | _ -> Null
let index i = function List l when i >= 0 && i < List.length l -> List.nth l i | _ -> Null

(* ---- the printer ----

   One streaming printer serves every caller: it fills a fixed buffer
   and hands each full one to a sink (a socket, a channel, a [Buffer]).
   A document is written as a sequence of events — open, key, value,
   close — so a caller can stream a list one element at a time without
   building it; [write] is the same events over a whole tree.  [first]
   is whether the innermost open container has no element yet, and
   [keyed] whether a key was just written, so the next value needs no
   separator. *)

type writer = {
  buf : Bytes.t;
  out : Bytes.t -> int -> int -> unit;
  indent : bool;
  mutable pos : int;
  mutable depth : int;
  mutable first : bool;
  mutable keyed : bool;
}

let writer ?(indent = false) buf out =
  if Bytes.length buf = 0 then invalid_arg "Json.writer: empty buffer";
  { buf; out; indent; pos = 0; depth = 0; first = true; keyed = false }

let flush w =
  if w.pos > 0 then begin
    let n = w.pos in
    w.pos <- 0;
    w.out w.buf 0 n
  end

let add_char w c =
  if w.pos = Bytes.length w.buf then flush w;
  Bytes.unsafe_set w.buf w.pos c;
  w.pos <- w.pos + 1

let rec add_sub w s off len =
  let room = Bytes.length w.buf - w.pos in
  if len <= room then begin
    Bytes.blit_string s off w.buf w.pos len;
    w.pos <- w.pos + len
  end
  else begin
    Bytes.blit_string s off w.buf w.pos room;
    w.pos <- Bytes.length w.buf;
    flush w;
    add_sub w s (off + room) (len - room)
  end

let add_string w s = add_sub w s 0 (String.length s)

let hex = "0123456789ABCDEF"

(* Runs of bytes that need no escape are copied whole. *)
let add_escaped w s =
  let n = String.length s in
  let rec go start i =
    if i = n then add_sub w s start (i - start)
    else
      match String.unsafe_get s i with
      | '"' | '\\' | '\000' .. '\031' as c ->
        add_sub w s start (i - start);
        (match c with
        | '"' -> add_string w "\\\""
        | '\\' -> add_string w "\\\\"
        | '\n' -> add_string w "\\n"
        | '\r' -> add_string w "\\r"
        | '\t' -> add_string w "\\t"
        | c ->
          add_string w "\\u00";
          add_char w hex.[Char.code c lsr 4];
          add_char w hex.[Char.code c land 15]);
        go (i + 1) (i + 1)
      | _ -> go start (i + 1)
  in
  go 0 0

let newline w =
  add_char w '\n';
  for _ = 1 to 2 * w.depth do
    add_char w ' '
  done

(* Before an element of the innermost container: a comma after the
   first, then in indented mode the element's own line. *)
let separate w =
  if w.first then w.first <- false else add_char w ',';
  if w.indent then newline w

let element w = if w.keyed then w.keyed <- false else if w.depth > 0 then separate w

let open_ w c =
  element w;
  add_char w c;
  w.depth <- w.depth + 1;
  w.first <- true

let close_ w c =
  w.depth <- w.depth - 1;
  if (not w.first) && w.indent then newline w;
  add_char w c;
  w.first <- false

let begin_object w = open_ w '{'
let end_object w = close_ w '}'
let begin_list w = open_ w '['
let end_list w = close_ w ']'

let key w k =
  separate w;
  add_char w '"';
  add_escaped w k;
  add_string w (if w.indent then "\": " else "\":");
  w.keyed <- true

let float_literal f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let r = Printf.sprintf "%.12g" f in
    if float_of_string r = f then r else Printf.sprintf "%.17g" f

let scalar w s =
  element w;
  add_string w s

let rec write w = function
  | Null -> scalar w "null"
  | Bool b -> scalar w (if b then "true" else "false")
  | Int i -> scalar w (string_of_int i)
  | Float f -> scalar w (float_literal f)
  | String s ->
    element w;
    add_char w '"';
    add_escaped w s;
    add_char w '"'
  | List items ->
    begin_list w;
    List.iter (write w) items;
    end_list w
  | Assoc fields ->
    begin_object w;
    List.iter
      (fun (k, v) ->
        key w k;
        write w v)
      fields;
    end_object w

let end_line w =
  add_char w '\n';
  flush w

let to_string ?indent json =
  let b = Buffer.create 256 in
  let w = writer ?indent (Bytes.create 256) (Buffer.add_subbytes b) in
  write w json;
  flush w;
  Buffer.contents b

let pp ppf json = Format.pp_print_string ppf (to_string ~indent:true json)

(* ------------------------------------------------------------------ *)

exception Parse_error of string

let of_string text =
  let pos = ref 0 in
  let n = String.length text in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub text !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail (Printf.sprintf "expected %S" word)
  in
  let string_body () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some '"' -> Buffer.add_char buf '"'; advance (); go ()
        | Some '\\' -> Buffer.add_char buf '\\'; advance (); go ()
        | Some '/' -> Buffer.add_char buf '/'; advance (); go ()
        | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
        | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance (); go ()
        | Some 'b' -> Buffer.add_char buf '\b'; advance (); go ()
        | Some 'f' -> Buffer.add_char buf '\012'; advance (); go ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then fail "truncated \\u escape";
          let hex = String.sub text !pos 4 in
          pos := !pos + 4;
          (match int_of_string_opt ("0x" ^ hex) with
          | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
          | Some code when code < 0x800 ->
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          | Some code ->
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          | None -> fail "malformed \\u escape");
          go ()
        | _ -> fail "bad escape")
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let is_digit c = c >= '0' && c <= '9' in
    let rec digits () =
      match peek () with Some c when is_digit c -> advance (); digits () | _ -> ()
    in
    digits ();
    let is_float = ref false in
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      is_float := true;
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    let textv = String.sub text start (!pos - start) in
    if !is_float then
      match float_of_string_opt textv with Some f -> Float f | None -> fail "bad number"
    else
      match int_of_string_opt textv with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt textv with Some f -> Float f | None -> fail "bad number")
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (string_body ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        List (items [])
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Assoc []
      end
      else begin
        let entry () =
          skip_ws ();
          let k = string_body () in
          skip_ws ();
          expect ':';
          let v = value () in
          (k, v)
        in
        let rec entries acc =
          let e = entry () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            entries (e :: acc)
          | Some '}' ->
            advance ();
            List.rev (e :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Assoc (entries [])
      end
    | Some c when c = '-' || (c >= '0' && c <= '9') -> number ()
    | _ -> fail "expected a JSON value"
  in
  try
    let v = value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing characters at offset %d" !pos)
    else Ok v
  with Parse_error msg -> Error msg

let rec of_property_value (v : Pg_graph.Value.t) =
  match v with
  | Pg_graph.Value.Int i -> Int i
  | Pg_graph.Value.Float f -> Float f
  | Pg_graph.Value.String s -> String s
  | Pg_graph.Value.Bool b -> Bool b
  | Pg_graph.Value.Id s -> String s
  | Pg_graph.Value.Enum s -> String s
  | Pg_graph.Value.List vs -> List (List.map of_property_value vs)
