(* Columnar staging: the growable columns a graph is ingested into
   before {!Snapshot.freeze}.  See staging.mli. *)

module G = Property_graph

exception Build_error of string

(* ---- substring-keyed name tables ---- *)

module Names = struct
  (* Open addressing over [slots] (an id, or -1 for an empty slot) with
     linear probing; [names] is the id -> name column.  Lookups hash and
     compare the bytes in place, so resolving a name that is already
     known allocates nothing. *)
  type t = { mutable names : string array; mutable count : int; mutable slots : int array }

  let create () = { names = Array.make 16 ""; count = 0; slots = Array.make 32 (-1) }
  let count t = t.count
  let name t id = t.names.(id)

  (* FNV-1a, with a final shift so the low bits the mask keeps also
     depend on the last bytes: handles such as n0..n99999 differ only
     there *)
  let hash s pos len =
    let h = ref 0x811c9dc5 in
    for i = pos to pos + len - 1 do
      h := (!h lxor Char.code (Bytes.unsafe_get s i)) * 0x01000193
    done;
    (!h lxor (!h lsr 29)) land max_int

  (* the helpers below are closed functions, so a lookup allocates no
     closure *)
  let rec same_bytes name s pos i len =
    i = len
    || String.unsafe_get name i = Bytes.unsafe_get s (pos + i)
       && same_bytes name s pos (i + 1) len

  let rec probe slots names mask s pos len i =
    let id = Array.unsafe_get slots i in
    if id < 0 then id
    else begin
      let name = Array.unsafe_get names id in
      if String.length name = len && same_bytes name s pos 0 len then id
      else probe slots names mask s pos len ((i + 1) land mask)
    end

  let find_sub t s pos len =
    let mask = Array.length t.slots - 1 in
    probe t.slots t.names mask s pos len (hash s pos len land mask)

  let rec free_slot slots mask i =
    if slots.(i) < 0 then i else free_slot slots mask ((i + 1) land mask)

  let place slots name id =
    let mask = Array.length slots - 1 in
    let h = hash (Bytes.unsafe_of_string name) 0 (String.length name) in
    slots.(free_slot slots mask (h land mask)) <- id

  (* [name] must be absent; it becomes the next dense id *)
  let add t name =
    let id = t.count in
    if id = Array.length t.names then begin
      let bigger = Array.make (2 * id) "" in
      Array.blit t.names 0 bigger 0 id;
      t.names <- bigger
    end;
    t.names.(id) <- name;
    t.count <- id + 1;
    if 2 * t.count > Array.length t.slots then begin
      let slots = Array.make (2 * Array.length t.slots) (-1) in
      for k = 0 to t.count - 1 do
        place slots t.names.(k) k
      done;
      t.slots <- slots
    end
    else place t.slots name id;
    id

  let intern_sub t s pos len =
    match find_sub t s pos len with -1 -> add t (Bytes.sub_string s pos len) | id -> id

  (* [find_sub] only reads the bytes *)
  let intern t name =
    match find_sub t (Bytes.unsafe_of_string name) 0 (String.length name) with
    | -1 -> add t name
    | id -> id
end

(* ---- the staging columns ---- *)

type t = {
  syms : Names.t;
  node_id : Column.t;
  node_label : Column.t;
  node_props : Props.builder;
  edge_id : Column.t;
  edge_label : Column.t;
  edge_src : Column.t;
  edge_tgt : Column.t;
  edge_props : Props.builder;
  pend : Props.pending;  (** the properties of the record about to be added *)
}

let create ?(prop_bytes = 0) () =
  {
    syms = Names.create ();
    node_id = Column.create ();
    node_label = Column.create ();
    node_props = Props.builder prop_bytes;
    edge_id = Column.create ();
    edge_label = Column.create ();
    edge_src = Column.create ();
    edge_tgt = Column.create ();
    edge_props = Props.builder prop_bytes;
    pend = Props.pending ();
  }

let node_count t = Column.length t.node_id
let edge_count t = Column.length t.edge_id
let symbol t name = Names.intern t.syms name
let symbol_sub t s pos len = Names.intern_sub t.syms s pos len
let symbol_name t id = Names.name t.syms id
let symbols t = Names.count t.syms

let prop t key v = Props.bind t.pend key v

let add_node t ~id ~label =
  Props.commit t.node_props t.pend;
  Column.push t.node_id id;
  Column.push t.node_label label

let add_edge t ~id ~label ~src ~tgt =
  let n = node_count t in
  if src < 0 || src >= n || tgt < 0 || tgt >= n then
    invalid_arg "Staging.add_edge: endpoint is not a staged node";
  Props.commit t.edge_props t.pend;
  Column.push t.edge_id id;
  Column.push t.edge_label label;
  Column.push t.edge_src src;
  Column.push t.edge_tgt tgt

(* ---- the graph feed ---- *)

let of_graph g =
  let nodes, edges = G.to_arrays g in
  let t = create () in
  let index_of_id = Hashtbl.create (2 * Array.length nodes) in
  let stage_props props = List.iter (fun (k, v) -> prop t (symbol t k) v) props in
  Array.iteri
    (fun i v ->
      let id = G.node_id v in
      if Hashtbl.mem index_of_id id then
        raise
          (Build_error
             (Printf.sprintf "duplicate node id n%d: two distinct nodes share one external id" id));
      Hashtbl.add index_of_id id i;
      stage_props (G.node_props g v);
      add_node t ~id ~label:(symbol t (G.node_label g v)))
    nodes;
  Array.iter
    (fun e ->
      let resolve v =
        match Hashtbl.find_opt index_of_id (G.node_id v) with
        | Some i -> i
        | None ->
          raise
            (Build_error
               (Printf.sprintf "edge e%d references node n%d, which is not in the graph"
                  (G.edge_id e) (G.node_id v)))
      in
      let v1, v2 = G.edge_ends g e in
      let src = resolve v1 and tgt = resolve v2 in
      stage_props (G.edge_props g e);
      add_edge t ~id:(G.edge_id e) ~label:(symbol t (G.edge_label g e)) ~src ~tgt)
    edges;
  t

(* ---- the thaw ---- *)

let thaw t =
  let ids = Array.init (symbols t) Fun.id in
  let node_props = Props.freeze t.node_props ids and edge_props = Props.freeze t.edge_props ids in
  let bindings p i = List.map (fun (k, v) -> (symbol_name t k, v)) (Props.bindings p i) in
  let g = ref G.empty in
  let label column i = symbol_name t (Column.get column i) in
  let nodes =
    Array.init (node_count t) (fun i ->
        let props = bindings node_props i in
        let g', v = G.add_node !g ~label:(label t.node_label i) ~props () in
        g := g';
        v)
  in
  for j = 0 to edge_count t - 1 do
    let props = bindings edge_props j in
    let g', _ =
      G.add_edge !g ~label:(label t.edge_label j) ~props
        nodes.(Column.get t.edge_src j)
        nodes.(Column.get t.edge_tgt j)
    in
    g := g'
  done;
  !g

let pp ppf t = Format.fprintf ppf "graph with %d nodes, %d edges" (node_count t) (edge_count t)
