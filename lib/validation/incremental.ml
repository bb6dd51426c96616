module G = Pg_graph.Property_graph
module Value = Pg_graph.Value
module Staging = Pg_graph.Staging
module Snapshot = Pg_graph.Snapshot
module Plan = Pg_schema.Plan
module Values_w = Pg_schema.Values_w
module ISet = Set.Make (Int)
module IMap = Map.Make (Int)

module VSet = Set.Make (struct
  type t = Violation.t

  let compare = Violation.compare
end)

(* [whole] is false for a property update.  Only the rules that read
   properties can change their verdict then (WS1, DS5, SS2 and DS7 on a
   node, WS2 and SS3 on an edge), and they report an element's
   properties or, for DS7, a pair of nodes; the rules about labels and
   edges report the element itself or a pair of edges. *)
type region = { rnodes : ISet.t; redges : ISet.t; whole : bool }

let empty_region = { rnodes = ISet.empty; redges = ISet.empty; whole = true }
let with_node r v = { r with rnodes = ISet.add (G.node_id v) r.rnodes }
let with_edge r e = { r with redges = ISet.add (G.edge_id e) r.redges }
let props_of_node v = { (with_node empty_region v) with whole = false }
let props_of_edge e = { (with_edge empty_region e) with whole = false }

(* An edge with its endpoints, whose DS4 and DS6 counts it is part of. *)
let with_ends g r e =
  let v1, v2 = G.edge_ends g e in
  with_node (with_node (with_edge r e) v1) v2

(* A node, its incident edges and their endpoints. *)
let around g v =
  List.fold_left (with_ends g) (with_node empty_region v) (G.out_edges g v @ G.in_edges g v)

let involves region (v : Violation.t) =
  match v.Violation.subject with
  | Violation.Node_property (id, _) -> ISet.mem id region.rnodes
  | Violation.Edge_property (id, _) -> ISet.mem id region.redges
  | Violation.Node_pair (a, b) -> ISet.mem a region.rnodes || ISet.mem b region.rnodes
  | Violation.Node id -> region.whole && ISet.mem id region.rnodes
  | Violation.Edge id -> region.whole && ISet.mem id region.redges
  | Violation.Edge_pair (a, b) ->
    region.whole && (ISet.mem a region.redges || ISet.mem b region.redges)

type t = {
  plan : Plan.t;  (* compiled once in {!create}, reused by every update *)
  env : Values_w.env;
  g : G.t;
  vset : VSet.t;
  keys : int list IMap.t;  (* key bucket -> the ids of its nodes *)
  complete : bool;  (* was the initial batch validation complete? *)
}

let graph t = t.g
let schema t = Plan.schema t.plan
let violations t = VSet.elements t.vset
let is_valid t = VSet.is_empty t.vset && t.complete
let complete t = t.complete

(* ------------------------------------------------------------------ *)
(* The key index *)

(* The key buckets of node [v]: one per key constraint whose owner its
   label is a subtype of, a hash of the constraint and the node's key
   tuple.  [Value.hash] is compatible with [Value.equal] and an absent
   attribute hashes alike everywhere, so nodes that agree on a key share
   its bucket; the DS7 kernel decides which of a bucket's nodes collide. *)
let buckets plan g v =
  match Plan.find plan (G.node_label g v) with
  | None -> []
  | Some l ->
    let hash h f = (h * 65599) + match G.node_prop g v f with Some x -> Value.hash x | None -> 0 in
    let acc = ref [] in
    Array.iteri
      (fun k (key : Plan.key) ->
        if Plan.is_sub plan l key.Plan.key_owner then
          acc := Array.fold_left hash k key.Plan.key_attr_names :: !acc)
      (Plan.keys plan);
    !acc

let index_node plan g f keys v =
  List.fold_left (fun keys b -> IMap.update b (f (G.node_id v)) keys) keys (buckets plan g v)

let index_add id = function Some ids -> Some (id :: ids) | None -> Some [ id ]

let index_remove id = function
  | Some ids -> ( match List.filter (fun id' -> id' <> id) ids with [] -> None | ids -> Some ids)
  | None -> None

(* ------------------------------------------------------------------ *)
(* Local revalidation: the batch kernels over the region's neighbourhood *)

(* Stage the region's nodes and every node sharing a key bucket with
   one of them, then the updated edge of a property update, or else the
   region nodes' incident edges.  A region edge of any other update has
   region nodes for endpoints, so its source's out segment and its
   target's in segment are staged, where the kernels find the pair rules
   about it (WS4, DS1 and DS2 at the source, DS3 at the target).  Edges
   come with their endpoints, and everything with its properties and the
   graph's own ids. *)
let neighbourhood t region =
  let g = t.g in
  let st = Staging.create () in
  let index = Hashtbl.create 16 in
  let stage_props props = List.iter (fun (k, x) -> Staging.prop st (Staging.symbol st k) x) props in
  let stage_node v =
    let id = G.node_id v in
    if not (Hashtbl.mem index id) then begin
      Hashtbl.add index id (Staging.node_count st);
      stage_props (G.node_props g v);
      Staging.add_node st ~id ~label:(Staging.symbol st (G.node_label g v))
    end
  in
  let stage_edge e =
    let v1, v2 = G.edge_ends g e in
    stage_node v1;
    stage_node v2;
    stage_props (G.edge_props g e);
    Staging.add_edge st ~id:(G.edge_id e)
      ~label:(Staging.symbol st (G.edge_label g e))
      ~src:(Hashtbl.find index (G.node_id v1))
      ~tgt:(Hashtbl.find index (G.node_id v2))
  in
  let present = List.filter_map (G.node_of_id g) (ISet.elements region.rnodes) in
  List.iter stage_node present;
  List.iter
    (fun v ->
      List.iter
        (fun b ->
          match IMap.find_opt b t.keys with
          | Some ids -> List.iter (fun id -> Option.iter stage_node (G.node_of_id g id)) ids
          | None -> ())
        (buckets t.plan g v))
    present;
  if region.whole then
    (* an edge between two region nodes is staged once, as an out-edge *)
    List.iter
      (fun v ->
        List.iter stage_edge (G.out_edges g v);
        List.iter
          (fun e ->
            let src, _ = G.edge_ends g e in
            if not (ISet.mem (G.node_id src) region.rnodes) then stage_edge e)
          (G.in_edges g v))
      present
  else ISet.iter (fun id -> Option.iter stage_edge (G.edge_of_id g id)) region.redges;
  Snapshot.freeze (Plan.symtab t.plan) st

(* Move [t] to graph [g], an update of [t.g] confined to [region]: re-key
   the region's nodes, then replace the violations involving the region
   with those the kernels find for it in the new neighbourhood.  Every
   other staged element may lack part of its own neighbourhood, so its
   violations are dropped.  The batch report is normalized and the kept
   violations involve no region element, so the set stays byte-identical
   to a batch engine's report. *)
let refresh t g region =
  let rekey f g keys =
    ISet.fold
      (fun id keys ->
        match G.node_of_id g id with Some v -> index_node t.plan g f keys v | None -> keys)
      region.rnodes keys
  in
  let t = { t with g; keys = rekey index_add g (rekey index_remove t.g t.keys) } in
  let report = Validate.check_snapshot ~env:t.env t.plan (neighbourhood t region) in
  let kept = VSet.filter (fun v -> not (involves region v)) t.vset in
  let add s v = if involves region v then VSet.add v s else s in
  { t with vset = List.fold_left add kept report.Validate.violations }

(* ------------------------------------------------------------------ *)

let create ?env ?(gov = Governor.unlimited) sch g =
  let plan = Plan.compile sch in
  let report = Validate.check_compiled ~engine:Validate.Indexed ?env ~gov plan g in
  {
    plan;
    env = Option.value env ~default:Values_w.default_env;
    g;
    vset = VSet.of_list report.Validate.violations;
    keys = G.fold_nodes (fun v keys -> index_node plan g index_add keys v) g IMap.empty;
    complete = report.Validate.complete;
  }

let add_node t ~label ?props () =
  let g, v = G.add_node t.g ~label ?props () in
  (refresh t g (with_node empty_region v), v)

let add_edge t ~label ?props v1 v2 =
  let g, e = G.add_edge t.g ~label ?props v1 v2 in
  (refresh t g (with_ends g empty_region e), e)

let remove_edge t e =
  if not (G.mem_edge t.g e) then t
  else refresh t (G.remove_edge t.g e) (with_ends t.g empty_region e)

let remove_node t v =
  if not (G.mem_node t.g v) then t else refresh t (G.remove_node t.g v) (around t.g v)

let set_node_prop t v name value =
  refresh t (G.set_node_prop t.g v name value) (props_of_node v)

let remove_node_prop t v name = refresh t (G.remove_node_prop t.g v name) (props_of_node v)

let set_edge_prop t e name value =
  refresh t (G.set_edge_prop t.g e name value) (props_of_edge e)

let remove_edge_prop t e name = refresh t (G.remove_edge_prop t.g e name) (props_of_edge e)

let relabel_node t v label = refresh t (G.relabel_node t.g v label) (around t.g v)
