module Sm = Map.Make (String)

type error = { message : string }

let pp_error ppf e = Format.fprintf ppf "GraphML parse error: %s" e.message

exception Fail of string

let xml_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | '\'' -> Buffer.add_string buf "&apos;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let xml_unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (if s.[!i] = '&' then begin
       match String.index_from_opt s !i ';' with
       | Some j when j - !i <= 6 ->
         (match String.sub s !i (j - !i + 1) with
         | "&amp;" -> Buffer.add_char buf '&'
         | "&lt;" -> Buffer.add_char buf '<'
         | "&gt;" -> Buffer.add_char buf '>'
         | "&quot;" -> Buffer.add_char buf '"'
         | "&apos;" -> Buffer.add_char buf '\''
         | ent -> raise (Fail (Printf.sprintf "unknown XML entity %S" ent)));
         i := j
       | _ -> raise (Fail "unterminated XML entity")
     end
     else Buffer.add_char buf s.[!i]);
    incr i
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Export                                                               *)

(* The kind of a single value.  Kinds refine GraphML's attr.type so that
   the value vocabulary round-trips: int/double/boolean/string are the
   standard types; id/enum/list (and mixed, for a property used at more
   than one kind) are declared as attr.type="string" with a pg.kind
   attribute, their values rendered in PGF literal syntax. *)
let kind_of (v : Value.t) =
  match v with
  | Value.Int _ -> "int"
  | Value.Float _ -> "double"
  | Value.Bool _ -> "boolean"
  | Value.String _ -> "string"
  | Value.Id _ -> "id"
  | Value.Enum _ -> "enum"
  | Value.List _ -> "list"

let is_standard = function "int" | "double" | "boolean" | "string" -> true | _ -> false

let render_value kind (v : Value.t) =
  match kind, v with
  | "int", Value.Int i -> string_of_int i
  | "double", Value.Float f -> Printf.sprintf "%.17g" f
  | "boolean", Value.Bool b -> string_of_bool b
  | "string", Value.String s -> s
  | "id", Value.Id s -> s
  | "enum", Value.Enum s -> s
  | _, v -> Pgf.value_to_string v

(* One key declaration per (domain, property name); a name used at
   several kinds degrades to "mixed". *)
let collect_keys g =
  let merge keys domain props =
    List.fold_left
      (fun keys (name, v) ->
        let id = domain ^ "_" ^ name in
        let kind = kind_of v in
        Sm.update id
          (function
            | Some (d, n, existing) ->
              Some (d, n, if String.equal existing kind then existing else "mixed")
            | None -> Some (domain, name, kind))
          keys)
      keys props
  in
  let keys =
    List.fold_left
      (fun keys v -> merge keys "node" (Property_graph.node_props g v))
      Sm.empty (Property_graph.nodes g)
  in
  List.fold_left
    (fun keys e -> merge keys "edge" (Property_graph.edge_props g e))
    keys (Property_graph.edges g)

let to_string g =
  let module G = Property_graph in
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  line {|<?xml version="1.0" encoding="UTF-8"?>|};
  line {|<graphml xmlns="http://graphml.graphdrawing.org/xmlns">|};
  line {|  <key id="node_label" for="node" attr.name="label" attr.type="string"/>|};
  line {|  <key id="edge_label" for="edge" attr.name="label" attr.type="string"/>|};
  let keys = collect_keys g in
  Sm.iter
    (fun id (domain, name, kind) ->
      if is_standard kind then
        line {|  <key id="%s" for="%s" attr.name="%s" attr.type="%s"/>|} (xml_escape id)
          domain (xml_escape name) kind
      else
        line {|  <key id="%s" for="%s" attr.name="%s" attr.type="string" pg.kind="%s"/>|}
          (xml_escape id) domain (xml_escape name) kind)
    keys;
  let kind_at domain name =
    match Sm.find_opt (domain ^ "_" ^ name) keys with
    | Some (_, _, kind) -> kind
    | None -> "mixed"
  in
  line {|  <graph id="G" edgedefault="directed">|};
  List.iter
    (fun v ->
      line {|    <node id="n%d">|} (G.node_id v);
      line {|      <data key="node_label">%s</data>|} (xml_escape (G.node_label g v));
      List.iter
        (fun (name, value) ->
          line {|      <data key="node_%s">%s</data>|} (xml_escape name)
            (xml_escape (render_value (kind_at "node" name) value)))
        (G.node_props g v);
      line {|    </node>|})
    (G.nodes g);
  List.iter
    (fun e ->
      let src, tgt = G.edge_ends g e in
      line {|    <edge id="e%d" source="n%d" target="n%d">|} (G.edge_id e) (G.node_id src)
        (G.node_id tgt);
      line {|      <data key="edge_label">%s</data>|} (xml_escape (G.edge_label g e));
      List.iter
        (fun (name, value) ->
          line {|      <data key="edge_%s">%s</data>|} (xml_escape name)
            (xml_escape (render_value (kind_at "edge" name) value)))
        (G.edge_props g e);
      line {|    </edge>|})
    (G.edges g);
  line {|  </graph>|};
  line {|</graphml>|};
  Buffer.contents buf

let save path g = Durable.write_file path [ to_string g ]

(* ------------------------------------------------------------------ *)
(* Import: a minimal XML event scanner covering the subset {!to_string}
   emits (declarations, comments, start/end tags with double-quoted
   attributes, text content; no CDATA, no nested documents).            *)

type event =
  | Start of string * (string * string) list * bool  (* name, attrs, self-closing *)
  | End of string
  | Text of string

let scan_events (s : string) =
  let n = String.length s in
  let pos = ref 0 in
  let events = ref [] in
  let emit e = events := e :: !events in
  let rest_has prefix =
    !pos + String.length prefix <= n && String.sub s !pos (String.length prefix) = prefix
  in
  let skip_until sub =
    match
      let m = String.length sub in
      let rec find i = if i + m > n then None else if String.sub s i m = sub then Some i else find (i + 1) in
      find !pos
    with
    | Some i -> pos := i + String.length sub
    | None -> raise (Fail (Printf.sprintf "unterminated construct (no %S)" sub))
  in
  let is_name_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = '-' || c = '.' || c = ':'
  in
  let name () =
    let start = !pos in
    while !pos < n && is_name_char s.[!pos] do incr pos done;
    if !pos = start then raise (Fail "expected an XML name");
    String.sub s start (!pos - start)
  in
  let skip_ws () = while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t' || s.[!pos] = '\n' || s.[!pos] = '\r') do incr pos done in
  while !pos < n do
    if s.[!pos] = '<' then begin
      if rest_has "<?" then skip_until "?>"
      else if rest_has "<!--" then skip_until "-->"
      else if rest_has "</" then begin
        pos := !pos + 2;
        let tag = name () in
        skip_ws ();
        if !pos < n && s.[!pos] = '>' then incr pos else raise (Fail "expected '>'");
        emit (End tag)
      end
      else begin
        incr pos;
        let tag = name () in
        let attrs = ref [] in
        let self_closing = ref false in
        let rec attrs_loop () =
          skip_ws ();
          if !pos >= n then raise (Fail "unterminated tag")
          else if s.[!pos] = '>' then incr pos
          else if rest_has "/>" then begin
            pos := !pos + 2;
            self_closing := true
          end
          else begin
            let a = name () in
            skip_ws ();
            if not (!pos < n && s.[!pos] = '=') then raise (Fail "expected '='");
            incr pos;
            skip_ws ();
            if not (!pos < n && s.[!pos] = '"') then raise (Fail "expected '\"'");
            incr pos;
            let start = !pos in
            while !pos < n && s.[!pos] <> '"' do incr pos done;
            if !pos >= n then raise (Fail "unterminated attribute value");
            attrs := (a, xml_unescape (String.sub s start (!pos - start))) :: !attrs;
            incr pos;
            attrs_loop ()
          end
        in
        attrs_loop ();
        emit (Start (tag, List.rev !attrs, !self_closing))
      end
    end
    else begin
      let start = !pos in
      while !pos < n && s.[!pos] <> '<' do incr pos done;
      let text = String.sub s start (!pos - start) in
      if String.trim text <> "" then emit (Text (xml_unescape text))
    end
  done;
  List.rev !events

let decode_value kind text =
  match kind with
  | "int" -> (
    match int_of_string_opt text with
    | Some i -> Value.Int i
    | None -> raise (Fail (Printf.sprintf "malformed int %S" text)))
  | "double" -> (
    match float_of_string_opt text with
    | Some f -> Value.Float f
    | None -> raise (Fail (Printf.sprintf "malformed double %S" text)))
  | "boolean" -> (
    match bool_of_string_opt text with
    | Some b -> Value.Bool b
    | None -> raise (Fail (Printf.sprintf "malformed boolean %S" text)))
  | "string" -> Value.String text
  | "id" -> Value.Id text
  | "enum" -> Value.Enum text
  | "list" | "mixed" -> (
    match Pgf.value_of_string text with
    | Ok v -> v
    | Error e -> raise (Fail (Printf.sprintf "malformed %s value %S: %s" kind text e.Pgf.message)))
  | k -> raise (Fail (Printf.sprintf "unknown attr.type %S" k))

type pending = {
  p_domain : string;  (* "node" or "edge" *)
  p_xml_id : string;
  p_source : string;  (* edges only *)
  p_target : string;
  mutable p_label : string option;
  mutable p_props : (string * Value.t) list;  (* reversed *)
}

(* The semantic phase, shared by the slurp and streaming strict parsers.
   Raises [Fail].  Scan errors must preempt semantic errors for
   byte-identical behaviour, so both callers fully scan the event stream
   before calling this. *)
let graph_of_events events =
  begin
    let keys : (string, string * string) Hashtbl.t = Hashtbl.create 16 in
    let nodes = ref [] and edges = ref [] in
    let current : pending option ref = ref None in
    let data_key : string option ref = ref None in
    let data_text = Buffer.create 64 in
    let attr name attrs =
      match List.assoc_opt name attrs with
      | Some v -> v
      | None -> raise (Fail (Printf.sprintf "missing attribute %S" name))
    in
    let finish_data () =
      match !current, !data_key with
      | _, None -> ()
      | None, Some _ -> raise (Fail "<data> outside a node or edge")
      | Some p, Some key ->
        let text = Buffer.contents data_text in
        (if String.equal key (p.p_domain ^ "_label") then p.p_label <- Some text
         else begin
           match Hashtbl.find_opt keys key with
           | Some (name, kind) -> p.p_props <- (name, decode_value kind text) :: p.p_props
           | None -> raise (Fail (Printf.sprintf "undeclared data key %S" key))
         end);
        data_key := None
    in
    List.iter
      (fun ev ->
        match ev with
        | Start ("key", attrs, _) ->
          let kind =
            match List.assoc_opt "pg.kind" attrs with
            | Some k -> k
            | None -> attr "attr.type" attrs
          in
          Hashtbl.replace keys (attr "id" attrs) (attr "attr.name" attrs, kind)
        | Start ("node", attrs, self) ->
          let p =
            {
              p_domain = "node";
              p_xml_id = attr "id" attrs;
              p_source = "";
              p_target = "";
              p_label = None;
              p_props = [];
            }
          in
          if self then nodes := p :: !nodes else current := Some p
        | Start ("edge", attrs, self) ->
          let p =
            {
              p_domain = "edge";
              p_xml_id = (match List.assoc_opt "id" attrs with Some i -> i | None -> "");
              p_source = attr "source" attrs;
              p_target = attr "target" attrs;
              p_label = None;
              p_props = [];
            }
          in
          if self then edges := p :: !edges else current := Some p
        | Start ("data", attrs, self) ->
          if self then ()
          else begin
            data_key := Some (attr "key" attrs);
            Buffer.clear data_text
          end
        | Start (("graphml" | "graph"), _, _) -> ()
        | Start (t, _, _) -> raise (Fail (Printf.sprintf "unexpected element <%s>" t))
        | Text t -> if !data_key <> None then Buffer.add_string data_text t
        | End "data" -> finish_data ()
        | End "node" | End "edge" -> (
          match !current with
          | Some p ->
            (if p.p_domain = "node" then nodes := p :: !nodes else edges := p :: !edges);
            current := None
          | None -> raise (Fail "unmatched end tag"))
        | End _ -> ())
      events;
    let by_xml_id : (string, Property_graph.node) Hashtbl.t = Hashtbl.create 64 in
    let g =
      List.fold_left
        (fun g p ->
          let label =
            match p.p_label with
            | Some l -> l
            | None -> raise (Fail (Printf.sprintf "node %S has no label" p.p_xml_id))
          in
          let g, v = Property_graph.add_node g ~label ~props:(List.rev p.p_props) () in
          if Hashtbl.mem by_xml_id p.p_xml_id then
            raise (Fail (Printf.sprintf "duplicate node id %S" p.p_xml_id));
          Hashtbl.add by_xml_id p.p_xml_id v;
          g)
        Property_graph.empty (List.rev !nodes)
    in
    let node_of id =
      match Hashtbl.find_opt by_xml_id id with
      | Some v -> v
      | None -> raise (Fail (Printf.sprintf "unknown node id %S" id))
    in
    let g =
      List.fold_left
        (fun g p ->
          let label =
            match p.p_label with
            | Some l -> l
            | None -> raise (Fail (Printf.sprintf "edge %S has no label" p.p_xml_id))
          in
          let g, _ =
            Property_graph.add_edge g ~label ~props:(List.rev p.p_props)
              (node_of p.p_source) (node_of p.p_target)
          in
          g)
        g (List.rev !edges)
    in
    g
  end

let parse text =
  try Ok (graph_of_events (scan_events text)) with Fail message -> Result.Error { message }

(* ------------------------------------------------------------------ *)
(* Incremental scanning: the same grammar as {!scan_events}, but over a
   chunked source.  [scan_construct] scans exactly one construct of the
   buffered window; [Incomplete] signals that the construct may extend
   past the buffered input and the driver must refill.  With [eof = true]
   it never raises [Incomplete] and fails with exactly the message the
   whole-string scanner would produce, so the two scanners agree
   event-for-event (the differential tests drive this at every chunk
   size).  Memory is bounded by the largest single construct plus one
   chunk, never the document.                                           *)

exception Incomplete

let scan_construct ~eof s start =
  let n = String.length s in
  let pos = ref start in
  (* at the end of the buffered window: if more input may follow, the
     construct is incomplete; at eof, fall through to the whole-string
     scanner's behaviour *)
  let more () = if not eof then raise Incomplete in
  let rest_has prefix =
    let m = String.length prefix in
    let avail = n - !pos in
    if avail >= m then String.sub s !pos m = prefix
    else if String.sub s !pos avail = String.sub prefix 0 avail then begin
      more ();
      false
    end
    else false
  in
  let skip_until sub =
    let m = String.length sub in
    let rec find i = if i + m > n then None else if String.sub s i m = sub then Some i else find (i + 1) in
    match find !pos with
    | Some i -> pos := i + m
    | None ->
      more ();
      raise (Fail (Printf.sprintf "unterminated construct (no %S)" sub))
  in
  let is_name_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = '-' || c = '.' || c = ':'
  in
  let name () =
    let st = !pos in
    while !pos < n && is_name_char s.[!pos] do incr pos done;
    if !pos = n then more ();
    if !pos = st then raise (Fail "expected an XML name");
    String.sub s st (!pos - st)
  in
  let skip_ws () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t' || s.[!pos] = '\n' || s.[!pos] = '\r') do
      incr pos
    done;
    if !pos = n then more ()
  in
  let event =
    if s.[!pos] = '<' then begin
      if rest_has "<?" then begin
        skip_until "?>";
        None
      end
      else if rest_has "<!--" then begin
        skip_until "-->";
        None
      end
      else if rest_has "</" then begin
        pos := !pos + 2;
        let tag = name () in
        skip_ws ();
        if !pos < n && s.[!pos] = '>' then incr pos else raise (Fail "expected '>'");
        Some (End tag)
      end
      else begin
        incr pos;
        let tag = name () in
        let attrs = ref [] in
        let self_closing = ref false in
        let rec attrs_loop () =
          skip_ws ();
          if !pos >= n then raise (Fail "unterminated tag")
          else if s.[!pos] = '>' then incr pos
          else if rest_has "/>" then begin
            pos := !pos + 2;
            self_closing := true
          end
          else begin
            let a = name () in
            skip_ws ();
            if not (!pos < n && s.[!pos] = '=') then raise (Fail "expected '='");
            incr pos;
            skip_ws ();
            if not (!pos < n && s.[!pos] = '"') then raise (Fail "expected '\"'");
            incr pos;
            let st = !pos in
            while !pos < n && s.[!pos] <> '"' do incr pos done;
            if !pos >= n then begin
              more ();
              raise (Fail "unterminated attribute value")
            end;
            attrs := (a, xml_unescape (String.sub s st (!pos - st))) :: !attrs;
            incr pos;
            attrs_loop ()
          end
        in
        attrs_loop ();
        Some (Start (tag, List.rev !attrs, !self_closing))
      end
    end
    else begin
      (* a text run is one construct: it is never split at a chunk
         boundary, so the whitespace-only filter sees the same runs as
         the whole-string scanner *)
      let st = !pos in
      while !pos < n && s.[!pos] <> '<' do incr pos done;
      if !pos = n then more ();
      let text = String.sub s st (!pos - st) in
      if String.trim text <> "" then Some (Text (xml_unescape text)) else None
    end
  in
  (event, !pos)

(* Drive [scan_construct] over a chunked source; [f raw event] receives
   each construct's raw text and its event ([None] for declarations,
   comments and whitespace).  Raises [Fail] on scan errors. *)
let scan_source source f =
  let buf = ref "" in
  let pos = ref 0 in
  let eof = ref false in
  let refill () =
    if !pos > 0 then begin
      buf := String.sub !buf !pos (String.length !buf - !pos);
      pos := 0
    end;
    match source () with
    | Some chunk -> buf := (if !buf = "" then chunk else !buf ^ chunk)
    | None -> eof := true
  in
  let rec next () =
    if !pos >= String.length !buf then begin
      if not !eof then begin
        refill ();
        next ()
      end
    end
    else
      match scan_construct ~eof:!eof !buf !pos with
      | event, pos' ->
        f (String.sub !buf !pos (pos' - !pos)) event;
        pos := pos';
        next ()
      | exception Incomplete ->
        refill ();
        next ()
  in
  next ()

let read source =
  (* the event stream must be fully scanned before the semantic phase so
     that scan errors preempt semantic errors exactly like [parse]; the
     event list is structured data — the input text itself is never held
     whole *)
  match
    let events = ref [] in
    scan_source source (fun _raw ev -> Option.iter (fun e -> events := e :: !events) ev);
    graph_of_events (List.rev !events)
  with
  | g -> Ok g
  | exception Fail message -> Result.Error { message }

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> read (Chunked.of_channel ic))
  with
  | exception Sys_error message -> Result.Error { message }
  | r -> r

(* ------------------------------------------------------------------ *)
(* Fault-tolerant streaming import.  Records (key / node / edge
   elements) are applied eagerly as they complete; a malformed record is
   reported as a [fault] and skipped, leaving the graph as if the record
   were absent.  Edges are queued and resolved once the scan finishes so
   forward references keep working.  Unlike the strict path this holds
   only the open record in memory.  Scanner-level XML errors stay fatal:
   after a structural break there is no reliable record boundary to
   resync on.                                                           *)

type fault = {
  f_record : int;
  f_subject : string;
  f_raw : string;
  f_message : string;
}

exception Stop_tolerant

let read_tolerant ?max_skipped ?(on_fault = fun _ -> ()) source =
  let keys : (string, string * string) Hashtbl.t = Hashtbl.create 16 in
  let b = Builder.create () in
  let edges = ref [] in
  let current = ref None in
  let current_record = ref 0 in
  let current_raw = Buffer.create 256 in
  let current_tag = ref "" in
  let skip = ref None in
  let data_key = ref None in
  let data_text = Buffer.create 64 in
  let records = ref 0 in
  let faults = ref [] in
  let nfaults = ref 0 in
  let exhausted = ref false in
  let fault ~record ~subject ~raw message =
    let f = { f_record = record; f_subject = subject; f_raw = raw; f_message = message } in
    faults := f :: !faults;
    incr nfaults;
    on_fault f;
    match max_skipped with
    | Some m when !nfaults > m ->
      exhausted := true;
      raise Stop_tolerant
    | _ -> ()
  in
  let attr name attrs =
    match List.assoc_opt name attrs with
    | Some v -> Ok v
    | None -> Result.Error (Printf.sprintf "missing attribute %S" name)
  in
  let subject_of p = Printf.sprintf "%s %S" p.p_domain p.p_xml_id in
  (* discard the open record and resync at its end tag *)
  let fault_current p message =
    let record = !current_record and raw = Buffer.contents current_raw in
    current := None;
    data_key := None;
    skip := Some !current_tag;
    fault ~record ~subject:(subject_of p) ~raw message
  in
  let open_record p tag raw =
    current := Some p;
    current_record := !records;
    current_tag := tag;
    Buffer.clear current_raw;
    Buffer.add_string current_raw raw
  in
  let commit p ~record ~raw =
    match p.p_label with
    | None ->
      fault ~record ~subject:(subject_of p) ~raw
        (Printf.sprintf "%s %S has no label" p.p_domain p.p_xml_id)
    | Some label ->
      if p.p_domain = "node" then begin
        if Builder.mem b p.p_xml_id then
          fault ~record ~subject:(subject_of p) ~raw
            (Printf.sprintf "duplicate node id %S" p.p_xml_id)
        else ignore (Builder.node b p.p_xml_id ~label ~props:(List.rev p.p_props) ())
      end
      else edges := (record, raw, p) :: !edges
  in
  let finish_data raw =
    match !current, !data_key with
    | _, None -> ()
    | None, Some _ ->
      data_key := None;
      fault ~record:!records ~subject:"data" ~raw "<data> outside a node or edge"
    | Some p, Some key ->
      let text = Buffer.contents data_text in
      data_key := None;
      if String.equal key (p.p_domain ^ "_label") then p.p_label <- Some text
      else begin
        match Hashtbl.find_opt keys key with
        | Some (name, kind) -> (
          match decode_value kind text with
          | v -> p.p_props <- (name, v) :: p.p_props
          | exception Fail message -> fault_current p message)
        | None -> fault_current p (Printf.sprintf "undeclared data key %S" key)
      end
  in
  let handle raw ev =
    match !skip, ev with
    | Some tag, Some (End t) when String.equal t tag -> skip := None
    | Some _, _ -> ()
    | None, None -> if !current <> None then Buffer.add_string current_raw raw
    | None, Some ev ->
      if !current <> None then Buffer.add_string current_raw raw;
      (match ev with
      | Start ("key", attrs, _) -> (
        incr records;
        let kind =
          match List.assoc_opt "pg.kind" attrs with
          | Some k -> Ok k
          | None -> attr "attr.type" attrs
        in
        match attr "id" attrs, attr "attr.name" attrs, kind with
        | Ok id, Ok name, Ok kind -> Hashtbl.replace keys id (name, kind)
        | Error m, _, _ | _, Error m, _ | _, _, Error m ->
          fault ~record:!records ~subject:"key" ~raw m)
      | Start ("node", attrs, self) -> (
        incr records;
        match attr "id" attrs with
        | Error m ->
          fault ~record:!records ~subject:"node" ~raw m;
          if not self then skip := Some "node"
        | Ok id ->
          let p =
            { p_domain = "node"; p_xml_id = id; p_source = ""; p_target = "";
              p_label = None; p_props = [] }
          in
          if self then commit p ~record:!records ~raw else open_record p "node" raw)
      | Start ("edge", attrs, self) -> (
        incr records;
        match attr "source" attrs, attr "target" attrs with
        | Ok src, Ok tgt ->
          let p =
            { p_domain = "edge";
              p_xml_id = (match List.assoc_opt "id" attrs with Some i -> i | None -> "");
              p_source = src; p_target = tgt; p_label = None; p_props = [] }
          in
          if self then commit p ~record:!records ~raw else open_record p "edge" raw
        | Error m, _ | _, Error m ->
          fault ~record:!records ~subject:"edge" ~raw m;
          if not self then skip := Some "edge")
      | Start ("data", attrs, self) ->
        if not self then begin
          match attr "key" attrs with
          | Ok k ->
            data_key := Some k;
            Buffer.clear data_text
          | Error m -> (
            match !current with
            | Some p -> fault_current p m
            | None -> fault ~record:!records ~subject:"data" ~raw m)
        end
      | Start (("graphml" | "graph"), _, _) -> ()
      | Start (t, _, self) ->
        fault ~record:!records ~subject:(Printf.sprintf "<%s>" t) ~raw
          (Printf.sprintf "unexpected element <%s>" t);
        if not self && !current = None then skip := Some t
      | Text t -> if !data_key <> None then Buffer.add_string data_text t
      | End "data" -> finish_data raw
      | End (("node" | "edge") as t) -> (
        match !current with
        | Some p ->
          let record = !current_record and raw = Buffer.contents current_raw in
          current := None;
          commit p ~record ~raw
        | None ->
          fault ~record:!records ~subject:(Printf.sprintf "</%s>" t) ~raw "unmatched end tag")
      | End _ -> ())
  in
  match
    (try
       scan_source source handle;
       (match !current with
       | Some p -> fault_current p "unterminated element"
       | None -> ());
       (* resolve queued edges in record order; faults may exhaust the
          budget, which stops resolution where it stands *)
       List.iter
         (fun (record, raw, p) ->
           let label = Option.get p.p_label in
           match Builder.find_opt b p.p_source, Builder.find_opt b p.p_target with
           | Some vsrc, Some vtgt ->
             ignore (Builder.connect b vsrc vtgt ~label ~props:(List.rev p.p_props) ())
           | None, _ ->
             fault ~record ~subject:(subject_of p) ~raw
               (Printf.sprintf "unknown node id %S" p.p_source)
           | _, None ->
             fault ~record ~subject:(subject_of p) ~raw
               (Printf.sprintf "unknown node id %S" p.p_target))
         (List.rev !edges)
     with Stop_tolerant -> ())
  with
  | () ->
    (* edge faults surface during end-of-scan resolution; stable-sort by
       record ordinal restores document order *)
    let faults =
      List.stable_sort (fun a b -> compare a.f_record b.f_record) (List.rev !faults)
    in
    Ok (Builder.graph b, faults, !exhausted, !records)
  | exception Fail message -> Result.Error { message }
