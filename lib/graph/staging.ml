(* Columnar staging: the growable columns a graph is ingested into
   before {!Snapshot.freeze}.  See staging.mli. *)

module G = Property_graph

exception Build_error of string

(* ---- substring-keyed name tables ---- *)

module Names = struct
  (* Open addressing with linear probing over [slots].  A slot is -1
     (empty) or one int packing a name's id into its low [id_bits] and
     the low [id_bits] bits of the name's hash above them, so a probe
     compares hashes in the slot itself and reads a name only when they
     agree.  The names lie end to end in one byte arena: name [id] is
     [arena.[start.(id) .. start.(id + 1) - 1]].  A lookup that misses
     remembers the empty slot it ended on and the hash, and [add_missed]
     fills that slot: one hash and one probe per new name.  Growing the
     table rehashes from the slots alone. *)
  let id_bits = 31
  let id_mask = (1 lsl id_bits) - 1

  type t = {
    mutable arena : Bytes.t;
    mutable start : int array;  (** id -> start of its name; entry [count] is the arena's end *)
    mutable count : int;
    mutable slots : int array;
    mutable miss : int;  (** the empty slot the last missed lookup ended on, or -1 *)
    mutable miss_tag : int;  (** that lookup's hash, shifted above the id bits *)
  }

  let create () =
    {
      arena = Bytes.create 64;
      start = Array.make 16 0;
      count = 0;
      slots = Array.make 32 (-1);
      miss = -1;
      miss_tag = 0;
    }

  let count t = t.count

  let name t id =
    if id < 0 || id >= t.count then invalid_arg "Staging.Names.name";
    Bytes.sub_string t.arena t.start.(id) (t.start.(id + 1) - t.start.(id))

  (* FNV-1a, with a final shift so the low bits the mask keeps also
     depend on the last bytes: handles such as n0..n99999 differ only
     there.  The helpers below are closed functions, so a lookup
     allocates no closure. *)
  let rec fnv s i stop h =
    if i >= stop then h
    else fnv s (i + 1) stop ((h lxor Char.code (Bytes.unsafe_get s i)) * 0x01000193)

  let hash s pos len =
    let h = fnv s pos (pos + len) 0x811c9dc5 in
    (h lxor (h lsr 29)) land id_mask

  let rec same_bytes arena a s pos len =
    len = 0
    || Bytes.unsafe_get arena a = Bytes.unsafe_get s pos
       && same_bytes arena (a + 1) s (pos + 1) (len - 1)

  let rec probe t slots mask s pos len tag i =
    let x = Array.unsafe_get slots i in
    if x < 0 then begin
      t.miss <- i;
      -1
    end
    else begin
      let id = x land id_mask in
      if
        x lxor tag <= id_mask
        &&
        let a = Array.unsafe_get t.start id in
        Array.unsafe_get t.start (id + 1) - a = len && same_bytes t.arena a s pos len
      then id
      else probe t slots mask s pos len tag ((i + 1) land mask)
    end

  let find_sub t s pos len =
    if pos < 0 || len < 0 || pos + len > Bytes.length s then invalid_arg "Staging.Names.find_sub";
    let h = hash s pos len in
    let tag = h lsl id_bits in
    t.miss <- -1;
    t.miss_tag <- tag;
    probe t t.slots (Array.length t.slots - 1) s pos len tag (h land (Array.length t.slots - 1))

  (* [slots] twice as large, every entry moved to the slot its stored
     hash picks *)
  let grow slots =
    let bigger = Array.make (2 * Array.length slots) (-1) in
    let mask = Array.length bigger - 1 in
    Array.iter
      (fun x ->
        if x >= 0 then begin
          let i = ref ((x lsr id_bits) land mask) in
          while bigger.(!i) >= 0 do
            i := (!i + 1) land mask
          done;
          bigger.(!i) <- x
        end)
      slots;
    bigger

  let add_missed t s pos len =
    if t.miss < 0 then invalid_arg "Staging.Names.add_missed: no missed lookup to fill";
    let id = t.count in
    if id = id_mask then failwith "Staging.Names: too many names";
    let at = t.start.(id) in
    if at + len > Bytes.length t.arena then begin
      let bigger = Bytes.create (max (at + len) (2 * Bytes.length t.arena)) in
      Bytes.blit t.arena 0 bigger 0 at;
      t.arena <- bigger
    end;
    Bytes.blit s pos t.arena at len;
    if id + 2 > Array.length t.start then begin
      let bigger = Array.make (2 * Array.length t.start) 0 in
      Array.blit t.start 0 bigger 0 (id + 1);
      t.start <- bigger
    end;
    t.start.(id + 1) <- at + len;
    t.slots.(t.miss) <- t.miss_tag lor id;
    t.miss <- -1;
    t.count <- id + 1;
    if 2 * t.count > Array.length t.slots then t.slots <- grow t.slots;
    id

  let intern_sub t s pos len =
    match find_sub t s pos len with -1 -> add_missed t s pos len | id -> id

  (* [find_sub] and [add_missed] only read the bytes *)
  let intern t name = intern_sub t (Bytes.unsafe_of_string name) 0 (String.length name)
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
  let names = Array.map (symbol_name t) ids in
  let node_props = Props.freeze t.node_props ids and edge_props = Props.freeze t.edge_props ids in
  let bindings p i = List.map (fun (k, v) -> (names.(k), v)) (Props.bindings p i) in
  let g = ref G.empty in
  let label column i = names.(Column.get column i) in
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
