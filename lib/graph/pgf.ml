type error = { line : int; message : string }

let pp_error ppf e =
  (* line 0 marks an I/O failure, which has no position in the text *)
  if e.line = 0 then Format.fprintf ppf "PGF error: %s" e.message
  else Format.fprintf ppf "PGF parse error at line %d: %s" e.line e.message

exception Error of error

(* The scanner.  PGF is line-oriented, so each record is scanned on its
   own; values never span lines.  One scanner is reused for every line:
   it reads the range [pos, stop) of [s] by index — the whole document
   for [parse], a chunk or a carried line when streaming.  Its helpers
   are closed functions (no local closures), so scanning allocates only
   the values it returns, and an escape-free string literal is one
   [String.sub]. *)
type scanner = {
  mutable s : string;
  mutable pos : int;
  mutable stop : int;
  mutable line : int;
  (* the record's properties: key ranges of [s] and their values *)
  mutable key_pos : int array;
  mutable key_len : int array;
  mutable vals : Value.t array;
  mutable np : int;
}

let scanner s ~pos ~stop ~line =
  {
    s;
    pos;
    stop;
    line;
    key_pos = Array.make 8 0;
    key_len = Array.make 8 0;
    vals = Array.make 8 (Value.Bool false);
    np = 0;
  }

let fail sc message = raise (Error { line = sc.line; message })
let is_blank = function ' ' | '\t' | '\r' -> true | _ -> false
let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

let skip_ws sc =
  while sc.pos < sc.stop && is_blank (String.unsafe_get sc.s sc.pos) do
    sc.pos <- sc.pos + 1
  done

let at_end sc =
  skip_ws sc;
  sc.pos >= sc.stop

let expect_char sc c =
  skip_ws sc;
  if sc.pos >= sc.stop then fail sc (Printf.sprintf "expected %C, found end of line" c);
  let c' = sc.s.[sc.pos] in
  if c' = c then sc.pos <- sc.pos + 1
  else fail sc (Printf.sprintf "expected %C, found %C" c c')

let try_char sc c =
  skip_ws sc;
  if sc.pos < sc.stop && sc.s.[sc.pos] = c then begin
    sc.pos <- sc.pos + 1;
    true
  end
  else false

let try_arrow sc =
  skip_ws sc;
  if sc.pos + 1 < sc.stop && sc.s.[sc.pos] = '-' && sc.s.[sc.pos + 1] = '>' then begin
    sc.pos <- sc.pos + 2;
    true
  end
  else false

(* An identifier: returns its start; it ends at [sc.pos]. *)
let ident sc =
  skip_ws sc;
  if sc.pos >= sc.stop then fail sc "expected identifier, found end of line";
  let c = sc.s.[sc.pos] in
  if not (is_ident_start c) then fail sc (Printf.sprintf "expected identifier, found %C" c);
  let start = sc.pos in
  sc.pos <- sc.pos + 1;
  while sc.pos < sc.stop && is_ident_char (String.unsafe_get sc.s sc.pos) do
    sc.pos <- sc.pos + 1
  done;
  start

let since sc start = String.sub sc.s start (sc.pos - start)

let rec same_bytes s start w i =
  i = String.length w
  || String.unsafe_get s (start + i) = String.unsafe_get w i && same_bytes s start w (i + 1)

(* the token from [start] to [sc.pos] is [w] *)
let is_word sc start w = sc.pos - start = String.length w && same_bytes sc.s start w 0

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* The slow path of a literal with escapes; [start] is just past the
   opening quote and [sc.pos] on the first backslash. *)
let escaped_literal sc start =
  let buf = Buffer.create (2 * (sc.pos - start) + 16) in
  Buffer.add_substring buf sc.s start (sc.pos - start);
  let rec loop () =
    if sc.pos >= sc.stop then fail sc "unterminated string literal";
    match sc.s.[sc.pos] with
    | '"' -> sc.pos <- sc.pos + 1
    | '\\' ->
      sc.pos <- sc.pos + 1;
      if sc.pos >= sc.stop then fail sc "unterminated escape";
      (match sc.s.[sc.pos] with
      | 'n' -> Buffer.add_char buf '\n'
      | 't' -> Buffer.add_char buf '\t'
      | 'r' -> Buffer.add_char buf '\r'
      | '"' -> Buffer.add_char buf '"'
      | '\\' -> Buffer.add_char buf '\\'
      | '/' -> Buffer.add_char buf '/'
      | 'u' ->
        (* \uXXXX, kept as the raw byte for code points < 256; PGF is a
           test/interchange format and does not claim full Unicode.  The
           digits are decoded by hand: int_of_string_opt on "0x…" would
           also accept OCaml numeric-literal underscores, letting "\u1_2f"
           through *)
        let p = sc.pos + 1 in
        if p + 4 > sc.stop then fail sc "truncated \\u escape";
        let code = ref 0 in
        for k = p to p + 3 do
          let d = hex_digit sc.s.[k] in
          code := if !code < 0 || d < 0 then -1 else (!code * 16) + d
        done;
        if !code < 0 then fail sc "malformed \\u escape";
        if !code >= 256 then fail sc "\\u escape above \\u00FF is not supported by PGF";
        Buffer.add_char buf (Char.chr !code);
        sc.pos <- p + 3
      | c -> fail sc (Printf.sprintf "invalid escape \\%c" c));
      sc.pos <- sc.pos + 1;
      loop ()
    | c ->
      Buffer.add_char buf c;
      sc.pos <- sc.pos + 1;
      loop ()
  in
  loop ();
  Buffer.contents buf

let rec plain_literal sc start i =
  if i >= sc.stop then fail sc "unterminated string literal"
  else
    match String.unsafe_get sc.s i with
    | '"' ->
      sc.pos <- i + 1;
      String.sub sc.s start (i - start)
    | '\\' ->
      sc.pos <- i;
      escaped_literal sc start
    | _ -> plain_literal sc start (i + 1)

let string_literal sc =
  expect_char sc '"';
  plain_literal sc sc.pos sc.pos

let digits sc =
  while sc.pos < sc.stop && is_digit (String.unsafe_get sc.s sc.pos) do
    sc.pos <- sc.pos + 1
  done

let number sc =
  let start = sc.pos in
  if sc.pos < sc.stop && sc.s.[sc.pos] = '-' then sc.pos <- sc.pos + 1;
  let first = sc.pos in
  digits sc;
  let int_digits = sc.pos - first in
  let is_float = ref false in
  if sc.pos < sc.stop && sc.s.[sc.pos] = '.' then begin
    is_float := true;
    sc.pos <- sc.pos + 1;
    digits sc
  end;
  if sc.pos < sc.stop && (sc.s.[sc.pos] = 'e' || sc.s.[sc.pos] = 'E') then begin
    is_float := true;
    sc.pos <- sc.pos + 1;
    if sc.pos < sc.stop && (sc.s.[sc.pos] = '+' || sc.s.[sc.pos] = '-') then sc.pos <- sc.pos + 1;
    digits sc
  end;
  if !is_float then
    let text = since sc start in
    match float_of_string_opt text with
    | Some f -> Value.Float f
    | None -> fail sc (Printf.sprintf "malformed float %S" text)
  else if int_digits > 0 && int_digits <= 18 then begin
    (* cannot overflow: the common case needs no substring *)
    let v = ref 0 in
    for k = first to sc.pos - 1 do
      v := (!v * 10) + Char.code sc.s.[k] - Char.code '0'
    done;
    Value.Int (if first > start then - !v else !v)
  end
  else
    let text = since sc start in
    match int_of_string_opt text with
    | Some i -> Value.Int i
    | None -> fail sc (Printf.sprintf "malformed integer %S" text)

let v_true = Value.Bool true
let v_false = Value.Bool false
let v_nan = Value.Float Float.nan
let v_inf = Value.Float Float.infinity
let v_neg_inf = Value.Float Float.neg_infinity

let rec value sc =
  skip_ws sc;
  if sc.pos >= sc.stop then fail sc "expected a value, found end of line";
  match sc.s.[sc.pos] with
  | '"' -> Value.String (string_literal sc)
  | '@' ->
    sc.pos <- sc.pos + 1;
    Value.Id (string_literal sc)
  | '[' ->
    sc.pos <- sc.pos + 1;
    Value.List (elements sc [])
  | '-' when sc.pos + 1 < sc.stop && is_ident_start sc.s.[sc.pos + 1] ->
    (* the printer renders negative infinity as "-inf" *)
    sc.pos <- sc.pos + 1;
    let w = ident sc in
    if is_word sc w "inf" || is_word sc w "infinity" then v_neg_inf
    else fail sc (Printf.sprintf "unknown numeric literal -%s" (since sc w))
  | c when c = '-' || is_digit c -> number sc
  | c when is_ident_start c ->
    (* true/false/nan/inf are value keywords, not enum symbols *)
    let w = ident sc in
    if is_word sc w "true" then v_true
    else if is_word sc w "false" then v_false
    else if is_word sc w "nan" then v_nan
    else if is_word sc w "inf" || is_word sc w "infinity" then v_inf
    else Value.Enum (since sc w)
  | c -> fail sc (Printf.sprintf "expected a value, found %C" c)

and elements sc acc =
  skip_ws sc;
  if try_char sc ']' then List.rev acc
  else begin
    let v = value sc in
    skip_ws sc;
    if try_char sc ',' then elements sc (v :: acc)
    else begin
      expect_char sc ']';
      List.rev (v :: acc)
    end
  end

let push_prop sc key key_len v =
  let k = sc.np in
  if k = Array.length sc.key_pos then begin
    let grow a fill = Array.append a (Array.make k fill) in
    sc.key_pos <- grow sc.key_pos 0;
    sc.key_len <- grow sc.key_len 0;
    sc.vals <- grow sc.vals v_false
  end;
  sc.key_pos.(k) <- key;
  sc.key_len.(k) <- key_len;
  sc.vals.(k) <- v;
  sc.np <- k + 1

let rec entries sc =
  skip_ws sc;
  if not (try_char sc '}') then begin
    let key = ident sc in
    let key_len = sc.pos - key in
    expect_char sc ':';
    push_prop sc key key_len (value sc);
    skip_ws sc;
    if try_char sc ',' then entries sc else expect_char sc '}'
  end

(* an optional property map, into the scanner's property slots *)
let props sc =
  sc.np <- 0;
  if try_char sc '{' then entries sc

(* Record-at-a-time ingest.  One PGF line is one record; [record]
   applies it to the staging columns atomically — every scan check and
   handle lookup happens before the first append, so a failing line
   leaves the graph under construction exactly as it was.  [parse],
   [read], [load] and the fault-tolerant {!Stream} reader are all folds
   of this one function over {!Chunked.iter_lines}, which is what
   makes slurp and streaming byte-identical.  Node handles live in
   their own table, whose ids are the node indexes (a node and its
   handle are appended together). *)

type inc = { st : Staging.t; handles : Staging.Names.t; sc : scanner }

(* [size], the length of the text to come if known, sizes each property
   pool at half of it: growing a pool by doubling leaves as much garbage
   on the major heap as the pool ends up holding, and that churn slows
   collection for every request of a server. *)
let inc_create ?size () =
  {
    st = Staging.create ?prop_bytes:(Option.map (fun n -> n / 2) size) ();
    handles = Staging.Names.create ();
    sc = scanner "" ~pos:0 ~stop:0 ~line:0;
  }

let inc_columns b = b.st

(* String.trim's notion of whitespace *)
let is_trimmed = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let stage_props b =
  let sc = b.sc in
  for k = 0 to sc.np - 1 do
    Staging.prop b.st (Staging.symbol_sub b.st sc.s sc.key_pos.(k) sc.key_len.(k)) sc.vals.(k)
  done

let node_of_handle b h len =
  match Staging.Names.find_sub b.handles b.sc.s h len with
  | -1 -> fail b.sc (Printf.sprintf "unknown node handle %S" (String.sub b.sc.s h len))
  | i -> i

let record b line s start stop =
  let lo = ref start and hi = ref stop in
  while !lo < !hi && is_trimmed s.[!lo] do
    incr lo
  done;
  while !hi > !lo && is_trimmed s.[!hi - 1] do
    decr hi
  done;
  if !lo = !hi || s.[!lo] = '#' then false
  else begin
    let sc = b.sc in
    sc.s <- s;
    sc.pos <- !lo;
    sc.stop <- !hi;
    sc.line <- line;
    let kw = ident sc in
    if is_word sc kw "node" then begin
      let h = ident sc in
      let h_len = sc.pos - h in
      if Staging.Names.find_sub b.handles s h h_len >= 0 then
        fail sc (Printf.sprintf "duplicate node handle %S" (since sc h));
      expect_char sc ':';
      let l = ident sc in
      let l_len = sc.pos - l in
      props sc;
      if not (at_end sc) then fail sc "trailing characters";
      stage_props b;
      Staging.add_node b.st ~id:(Staging.node_count b.st)
        ~label:(Staging.symbol_sub b.st s l l_len);
      ignore (Staging.Names.add b.handles (String.sub s h h_len))
    end
    else if is_word sc kw "edge" then begin
      (* "edge e0 n1 -> n0 :l" (handle + endpoints) or "edge n1 -> n0 :l" *)
      let first = ident sc in
      let first_len = sc.pos - first in
      let src, src_len =
        if try_arrow sc then (first, first_len)
        else begin
          let second = ident sc in
          let second_len = sc.pos - second in
          if not (try_arrow sc) then fail sc "expected '->'";
          (second, second_len)
        end
      in
      let tgt = ident sc in
      let tgt_len = sc.pos - tgt in
      expect_char sc ':';
      let l = ident sc in
      let l_len = sc.pos - l in
      props sc;
      if not (at_end sc) then fail sc "trailing characters";
      (* target resolved first: the historical parser passed both
         lookups as arguments to [add_edge], which OCaml evaluates
         right-to-left, so when both handles are unknown the error names
         the target *)
      let tgt = node_of_handle b tgt tgt_len in
      let src = node_of_handle b src src_len in
      stage_props b;
      Staging.add_edge b.st ~id:(Staging.edge_count b.st)
        ~label:(Staging.symbol_sub b.st s l l_len) ~src ~tgt
    end
    else fail sc (Printf.sprintf "expected 'node' or 'edge', found %S" (since sc kw));
    true
  end

let inc_line b line s start stop =
  match record b line s start stop with
  | applied -> Ok applied
  | exception Error e -> Result.Error e

let ingest ?size source =
  let b = inc_create ?size () in
  match
    Chunked.iter_lines source (fun line s start stop ->
        ignore (record b line s start stop))
  with
  | () -> Ok b.st
  | exception Error e -> Result.Error e

let read_columns source = ingest source
let parse_columns text = ingest ~size:(String.length text) (Chunked.whole text)

let load_columns path =
  (* streams the file through the record-at-a-time reader; behaviour
     (graphs and error Results) is identical to parsing the slurped text *)
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> ingest ~size:(in_channel_length ic) (Chunked.of_channel ic))
  with
  | exception Sys_error message -> Result.Error { line = 0; message }
  | r -> r

let parse text = Result.map Staging.thaw (parse_columns text)
let read source = Result.map Staging.thaw (read_columns source)
let load path = Result.map Staging.thaw (load_columns path)

let print_value buf v =
  let rec go = function
    | Value.Id s ->
      Buffer.add_char buf '@';
      Buffer.add_string buf (Value.to_string (Value.String s))
    | Value.List vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ", ";
          go v)
        vs;
      Buffer.add_char buf ']'
    | v -> Buffer.add_string buf (Value.to_string v)
  in
  go v

let print_props buf props =
  if props <> [] then begin
    Buffer.add_string buf " {";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf k;
        Buffer.add_string buf ": ";
        print_value buf v)
      props;
    Buffer.add_char buf '}'
  end

let print g =
  let buf = Buffer.create 1024 in
  List.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "node n%d :%s" (Property_graph.node_id v) (Property_graph.node_label g v));
      print_props buf (Property_graph.node_props g v);
      Buffer.add_char buf '\n')
    (Property_graph.nodes g);
  List.iter
    (fun e ->
      let src, tgt = Property_graph.edge_ends g e in
      Buffer.add_string buf
        (Printf.sprintf "edge e%d n%d -> n%d :%s" (Property_graph.edge_id e)
           (Property_graph.node_id src) (Property_graph.node_id tgt)
           (Property_graph.edge_label g e));
      print_props buf (Property_graph.edge_props g e);
      Buffer.add_char buf '\n')
    (Property_graph.edges g);
  Buffer.contents buf

let value_to_string v =
  let buf = Buffer.create 16 in
  print_value buf v;
  Buffer.contents buf

let value_of_string s =
  let sc = scanner s ~pos:0 ~stop:(String.length s) ~line:1 in
  match value sc with
  | v ->
    if at_end sc then Ok v
    else Result.Error { line = 1; message = "trailing characters after value" }
  | exception Error e -> Result.Error e

let save path g = Durable.write_file path [ print g ]
