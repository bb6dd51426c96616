module Im = Map.Make (Int)
module Sm = Map.Make (String)

type node = int
type edge = int

type t = {
  next_node : int;
  next_edge : int;
  node_label : string Im.t; (* lambda restricted to V; its domain is V *)
  edge_label : string Im.t; (* lambda restricted to E; its domain is E *)
  edge_ends : (int * int) Im.t; (* rho *)
  node_props : Value.t Sm.t Im.t; (* sigma restricted to V *)
  edge_props : Value.t Sm.t Im.t; (* sigma restricted to E *)
  out_adj : edge list Im.t; (* incidence index: v -> outgoing edges, newest first *)
  in_adj : edge list Im.t;
}

let node_id v = v
let edge_id e = e

let empty =
  {
    next_node = 0;
    next_edge = 0;
    node_label = Im.empty;
    edge_label = Im.empty;
    edge_ends = Im.empty;
    node_props = Im.empty;
    edge_props = Im.empty;
    out_adj = Im.empty;
    in_adj = Im.empty;
  }

let mem_node g v = Im.mem v g.node_label
let mem_edge g e = Im.mem e g.edge_label

let node_of_id g i = if mem_node g i then Some i else None
let edge_of_id g i = if mem_edge g i then Some i else None

let props_of_list l = List.fold_left (fun m (k, v) -> Sm.add k v m) Sm.empty l

let add_node g ~label ?(props = []) () =
  let v = g.next_node in
  let g =
    {
      g with
      next_node = v + 1;
      node_label = Im.add v label g.node_label;
      node_props =
        (if props = [] then g.node_props else Im.add v (props_of_list props) g.node_props);
      out_adj = Im.add v [] g.out_adj;
      in_adj = Im.add v [] g.in_adj;
    }
  in
  (g, v)

let adj_add m v e = Im.update v (function Some l -> Some (e :: l) | None -> Some [ e ]) m

let add_edge g ~label ?(props = []) src tgt =
  if not (mem_node g src) then invalid_arg "Property_graph.add_edge: unknown source node";
  if not (mem_node g tgt) then invalid_arg "Property_graph.add_edge: unknown target node";
  let e = g.next_edge in
  let g =
    {
      g with
      next_edge = e + 1;
      edge_label = Im.add e label g.edge_label;
      edge_ends = Im.add e (src, tgt) g.edge_ends;
      edge_props =
        (if props = [] then g.edge_props else Im.add e (props_of_list props) g.edge_props);
      out_adj = adj_add g.out_adj src e;
      in_adj = adj_add g.in_adj tgt e;
    }
  in
  (g, e)

let set_prop_in store id name value =
  Im.update id
    (function
      | Some props -> Some (Sm.add name value props)
      | None -> Some (Sm.singleton name value))
    store

let set_node_prop g v name value =
  if not (mem_node g v) then invalid_arg "Property_graph.set_node_prop: unknown node";
  { g with node_props = set_prop_in g.node_props v name value }

let set_edge_prop g e name value =
  if not (mem_edge g e) then invalid_arg "Property_graph.set_edge_prop: unknown edge";
  { g with edge_props = set_prop_in g.edge_props e name value }

let remove_prop_in store id name =
  Im.update id
    (function
      | Some props ->
        let props = Sm.remove name props in
        if Sm.is_empty props then None else Some props
      | None -> None)
    store

let remove_node_prop g v name = { g with node_props = remove_prop_in g.node_props v name }
let remove_edge_prop g e name = { g with edge_props = remove_prop_in g.edge_props e name }

let relabel_node g v label =
  if not (mem_node g v) then invalid_arg "Property_graph.relabel_node: unknown node";
  { g with node_label = Im.add v label g.node_label }

let adj_remove m v e =
  Im.update v (function Some l -> Some (List.filter (fun e' -> e' <> e) l) | None -> None) m

let remove_edge g e =
  match Im.find_opt e g.edge_ends with
  | None -> g
  | Some (src, tgt) ->
    {
      g with
      edge_label = Im.remove e g.edge_label;
      edge_ends = Im.remove e g.edge_ends;
      edge_props = Im.remove e g.edge_props;
      out_adj = adj_remove g.out_adj src e;
      in_adj = adj_remove g.in_adj tgt e;
    }

let out_edges g v = match Im.find_opt v g.out_adj with Some l -> List.rev l | None -> []
let in_edges g v = match Im.find_opt v g.in_adj with Some l -> List.rev l | None -> []

let remove_node g v =
  if not (mem_node g v) then g
  else
    let incident = out_edges g v @ in_edges g v in
    let g = List.fold_left remove_edge g incident in
    {
      g with
      node_label = Im.remove v g.node_label;
      node_props = Im.remove v g.node_props;
      out_adj = Im.remove v g.out_adj;
      in_adj = Im.remove v g.in_adj;
    }

let node_count g = Im.cardinal g.node_label
let edge_count g = Im.cardinal g.edge_label
let node_label g v = Im.find v g.node_label
let edge_label g e = Im.find e g.edge_label
let edge_ends g e = Im.find e g.edge_ends

let prop_in store id name =
  match Im.find_opt id store with None -> None | Some props -> Sm.find_opt name props

let node_prop g v name = prop_in g.node_props v name
let edge_prop g e name = prop_in g.edge_props e name

let props_in store id =
  match Im.find_opt id store with None -> [] | Some props -> Sm.bindings props

let prop_count_in store id =
  match Im.find_opt id store with None -> 0 | Some props -> Sm.cardinal props

let node_prop_count g v = prop_count_in g.node_props v
let edge_prop_count g e = prop_count_in g.edge_props e

let node_props g v = props_in g.node_props v
let edge_props g e = props_in g.edge_props e
let nodes g = Im.fold (fun v _ acc -> v :: acc) g.node_label [] |> List.rev
let edges g = Im.fold (fun e _ acc -> e :: acc) g.edge_label [] |> List.rev
let fold_nodes f g acc = Im.fold (fun v _ acc -> f v acc) g.node_label acc
let fold_edges f g acc = Im.fold (fun e _ acc -> f e acc) g.edge_label acc

let array_of_ids count iter store =
  let n = count in
  if n = 0 then [||]
  else begin
    let arr = Array.make n 0 in
    let i = ref 0 in
    iter
      (fun id _ ->
        arr.(!i) <- id;
        incr i)
      store;
    arr
  end

let to_arrays g =
  ( array_of_ids (node_count g) Im.iter g.node_label,
    array_of_ids (edge_count g) Im.iter g.edge_label )

let equal g1 g2 =
  Im.equal String.equal g1.node_label g2.node_label
  && Im.equal String.equal g1.edge_label g2.edge_label
  && Im.equal (fun (a, b) (c, d) -> a = c && b = d) g1.edge_ends g2.edge_ends
  && Im.equal (Sm.equal Value.equal) g1.node_props g2.node_props
  && Im.equal (Sm.equal Value.equal) g1.edge_props g2.edge_props

let pp ppf g =
  Format.fprintf ppf "graph with %d nodes, %d edges" (node_count g) (edge_count g)

let pp_props ppf props =
  if props <> [] then begin
    let pp_prop ppf (k, v) = Format.fprintf ppf "%s: %a" k Value.pp v in
    Format.fprintf ppf " {%a}"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_prop)
      props
  end

let pp_full ppf g =
  List.iter
    (fun v ->
      Format.fprintf ppf "node n%d :%s%a@." v (node_label g v) pp_props (node_props g v))
    (nodes g);
  List.iter
    (fun e ->
      let src, tgt = edge_ends g e in
      Format.fprintf ppf "edge e%d n%d -> n%d :%s%a@." e src tgt (edge_label g e) pp_props
        (edge_props g e))
    (edges g)
