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
      h := (!h lxor Char.code (String.unsafe_get s i)) * 0x01000193
    done;
    (!h lxor (!h lsr 29)) land max_int

  (* the helpers below are closed functions, so a lookup allocates no
     closure *)
  let rec same_bytes name s pos i len =
    i = len
    || String.unsafe_get name i = String.unsafe_get s (pos + i)
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
    slots.(free_slot slots mask (hash name 0 (String.length name) land mask)) <- id

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
    match find_sub t s pos len with -1 -> add t (String.sub s pos len) | id -> id

  let intern t name =
    match find_sub t name 0 (String.length name) with -1 -> add t name | id -> id
end

(* ---- the staging columns ---- *)

type t = {
  syms : Names.t;
  mutable n : int;
  mutable node_id : int array;
  mutable node_label : int array;
  node_props : Props.builder;
  mutable m : int;
  mutable edge_id : int array;
  mutable edge_label : int array;
  mutable edge_src : int array;
  mutable edge_tgt : int array;
  edge_props : Props.builder;
  pend : Props.pending;  (** the properties of the record about to be added *)
}

let create ?(nodes = 64) ?(edges = 64) ?(prop_bytes = 0) () =
  let nodes = max 1 nodes and edges = max 1 edges in
  {
    syms = Names.create ();
    n = 0;
    node_id = Array.make nodes 0;
    node_label = Array.make nodes 0;
    node_props = Props.builder ~bytes:prop_bytes nodes;
    m = 0;
    edge_id = Array.make edges 0;
    edge_label = Array.make edges 0;
    edge_src = Array.make edges 0;
    edge_tgt = Array.make edges 0;
    edge_props = Props.builder ~bytes:prop_bytes edges;
    pend = Props.pending ();
  }

let node_count t = t.n
let edge_count t = t.m
let symbol t name = Names.intern t.syms name
let symbol_sub t s pos len = Names.intern_sub t.syms s pos len
let symbol_name t id = Names.name t.syms id
let symbols t = Names.count t.syms

(* [a] with room for index [need], doubling *)
let room a need =
  let len = Array.length a in
  if need < len then a
  else begin
    let b = Array.make (max (need + 1) (2 * len)) 0 in
    Array.blit a 0 b 0 len;
    b
  end

let prop t key v = Props.bind t.pend key v

let add_node t ~id ~label =
  let i = t.n in
  t.node_id <- room t.node_id i;
  t.node_label <- room t.node_label i;
  Props.commit t.node_props t.pend;
  t.node_id.(i) <- id;
  t.node_label.(i) <- label;
  t.n <- i + 1

let add_edge t ~id ~label ~src ~tgt =
  if src < 0 || src >= t.n || tgt < 0 || tgt >= t.n then
    invalid_arg "Staging.add_edge: endpoint is not a staged node";
  let j = t.m in
  t.edge_id <- room t.edge_id j;
  t.edge_label <- room t.edge_label j;
  t.edge_src <- room t.edge_src j;
  t.edge_tgt <- room t.edge_tgt j;
  Props.commit t.edge_props t.pend;
  t.edge_id.(j) <- id;
  t.edge_label.(j) <- label;
  t.edge_src.(j) <- src;
  t.edge_tgt.(j) <- tgt;
  t.m <- j + 1

(* ---- the graph feed ---- *)

let of_graph g =
  let nodes, edges = G.to_arrays g in
  let n = Array.length nodes and m = Array.length edges in
  let t = create ~nodes:n ~edges:m () in
  let index_of_id = Hashtbl.create (2 * n) in
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
  let nodes =
    Array.init t.n (fun i ->
        let props = bindings node_props i in
        let g', v = G.add_node !g ~label:(symbol_name t t.node_label.(i)) ~props () in
        g := g';
        v)
  in
  for j = 0 to t.m - 1 do
    let props = bindings edge_props j in
    let g', _ =
      G.add_edge !g ~label:(symbol_name t t.edge_label.(j)) ~props nodes.(t.edge_src.(j))
        nodes.(t.edge_tgt.(j))
    in
    g := g'
  done;
  !g

let pp ppf t = Format.fprintf ppf "graph with %d nodes, %d edges" t.n t.m
