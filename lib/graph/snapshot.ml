(* A frozen structure-of-arrays view of a staged graph.

   Built in one pass over the {!Staging} columns, then read-only: dense
   0-based node/edge indexes, interned label ids, CSR adjacency in both
   directions, and one encoded {!Props} pool per element kind.
   Everything the validation kernels touch is an integer probe — no
   string hashing, no map lookups — and the whole structure is safe to
   share across domains once [freeze] returns.

   The integer columns are Bigarray-backed (off-heap), and a pool's
   bytes are one pointer-free block (or a mapped file section): the GC
   never scans either, so large graphs do not inflate major-heap
   marking, and {!Snapshot_io} persists both verbatim and maps them
   back from disk without a deserialization pass.

   CSR segments are sorted so that the pair rules become run scans:
   - the out segment of a node is sorted by (edge label, target, edge id),
     so WS4 runs (same label), DS1 runs (same label and target) and DS2
     loops (target = self) are contiguous;
   - the in segment is sorted by (edge label, source, edge id) for DS3. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  n : int;  (** node count *)
  m : int;  (** edge count *)
  node_id : ints;  (** node index -> external id *)
  edge_id : ints;
  node_label : ints;  (** node index -> interned label *)
  edge_label : ints;
  edge_src : ints;  (** edge index -> node index *)
  edge_tgt : ints;
  node_props : Props.t;  (** node index -> encoded property vector *)
  edge_props : Props.t;
  out_start : ints;  (** CSR offsets, length n + 1 *)
  out_adj : ints;  (** edge indexes, segment-sorted (label, tgt, id) *)
  in_start : ints;
  in_adj : ints;  (** edge indexes, segment-sorted (label, src, id) *)
}

exception Build_error = Staging.Build_error

let ints_create len = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len

(* the first [len] entries of a heap column *)
let ints_prefix (a : int array) len =
  let b = ints_create len in
  for i = 0 to len - 1 do
    Bigarray.Array1.unsafe_set b i (Array.unsafe_get a i)
  done;
  b

(* Sort each CSR segment in place: insertion sort for the short segments
   that dominate real graphs, a heap copy and the library sort beyond. *)
let sort_segments n (start : ints) (adj : ints) ~compare_edges =
  for i = 0 to n - 1 do
    let lo = start.{i} and hi = start.{i + 1} in
    if hi - lo > 16 then begin
      let seg = Array.init (hi - lo) (fun k -> adj.{lo + k}) in
      Array.sort compare_edges seg;
      Array.iteri (fun k e -> adj.{lo + k} <- e) seg
    end
    else
      for k = lo + 1 to hi - 1 do
        let x = adj.{k} in
        let j = ref (k - 1) in
        while !j >= lo && compare_edges adj.{!j} x > 0 do
          adj.{!j + 1} <- adj.{!j};
          decr j
        done;
        adj.{!j + 1} <- x
      done
  done

(* CSR over one endpoint column: count, prefix-sum, fill, sort segments *)
let csr n m (ends : int array) ~compare_edges =
  let start = ints_create (n + 1) in
  Bigarray.Array1.fill start 0;
  for j = 0 to m - 1 do
    start.{ends.(j) + 1} <- start.{ends.(j) + 1} + 1
  done;
  for i = 1 to n do
    start.{i} <- start.{i} + start.{i - 1}
  done;
  let adj = ints_create m in
  let fill = Array.init n (fun i -> start.{i}) in
  for j = 0 to m - 1 do
    adj.{fill.(ends.(j))} <- j;
    fill.(ends.(j)) <- fill.(ends.(j)) + 1
  done;
  sort_segments n start adj ~compare_edges;
  (start, adj)

let freeze st (s : Staging.t) =
  let n = s.Staging.n and m = s.Staging.m in
  (* staging id -> [st] id, interned on first sight.  The order of first
     sight is node labels, edge labels, node property keys, edge
     property keys — within one property vector the unseen keys in name
     order — which is the order a persistent graph's own traversal
     (sorted bindings) meets them, so every feed of one graph assigns the
     same ids. *)
  let trans = Array.make (Staging.symbols s) (-1) in
  let tr k =
    let id = trans.(k) in
    if id >= 0 then id
    else begin
      let id = Symtab.intern st (Staging.symbol_name s k) in
      trans.(k) <- id;
      id
    end
  in
  let node_label = ints_create n and edge_label = ints_create m in
  for i = 0 to n - 1 do
    node_label.{i} <- tr s.node_label.(i)
  done;
  for j = 0 to m - 1 do
    edge_label.{j} <- tr s.edge_label.(j)
  done;
  (* property keys: per vector, the unseen ones in name order *)
  let by_name a b = String.compare (Staging.symbol_name s a) (Staging.symbol_name s b) in
  let intern_keys pool i =
    let unseen = ref [] in
    Props.iter_keys pool i (fun k -> if trans.(k) < 0 then unseen := k :: !unseen);
    if !unseen <> [] then List.iter (fun k -> ignore (tr k)) (List.sort by_name !unseen)
  in
  for i = 0 to n - 1 do
    intern_keys s.node_props i
  done;
  for j = 0 to m - 1 do
    intern_keys s.edge_props j
  done;
  let edge_src = s.edge_src and edge_tgt = s.edge_tgt and edge_id = s.edge_id in
  (* out segments sorted by (label, target, id), in segments by (label,
     source, id) *)
  let by_label_then ends a b =
    match Int.compare edge_label.{a} edge_label.{b} with
    | 0 -> (
      match Int.compare ends.(a) ends.(b) with 0 -> Int.compare edge_id.(a) edge_id.(b) | c -> c)
    | c -> c
  in
  let out_start, out_adj = csr n m edge_src ~compare_edges:(by_label_then edge_tgt) in
  let in_start, in_adj = csr n m edge_tgt ~compare_edges:(by_label_then edge_src) in
  {
    n;
    m;
    node_id = ints_prefix s.node_id n;
    edge_id = ints_prefix edge_id m;
    node_label;
    edge_label;
    edge_src = ints_prefix edge_src m;
    edge_tgt = ints_prefix edge_tgt m;
    node_props = Props.freeze s.node_props trans;
    edge_props = Props.freeze s.edge_props trans;
    out_start;
    out_adj;
    in_start;
    in_adj;
  }

let build st g = freeze st (Staging.of_graph g)

let remap_labels remap (a : ints) =
  let len = Bigarray.Array1.dim a in
  let b = ints_create len in
  for i = 0 to len - 1 do
    b.{i} <- remap a.{i}
  done;
  b

let rebase ~src st snap =
  let trans = Array.init (Symtab.size src) (fun id -> Symtab.intern st (Symtab.name src id)) in
  let remap id = trans.(id) in
  {
    snap with
    node_label = remap_labels remap snap.node_label;
    edge_label = remap_labels remap snap.edge_label;
    node_props = Props.translate remap snap.node_props;
    edge_props = Props.translate remap snap.edge_props;
  }
