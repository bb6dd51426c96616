module Value = Pg_graph.Value
module Schema = Pg_schema.Schema
module Wrapped = Pg_schema.Wrapped
module Subtype = Pg_schema.Subtype
module Values_w = Pg_schema.Values_w

(* The graph of Definition 2.1 as plain data: lambda(v) is [v.label],
   rho(e) is [(e.src, e.tgt)], sigma the sorted [props]. *)
type node = { id : int; label : string; props : (string * Value.t) list }
type edge = { id : int; label : string; src : node; tgt : node; props : (string * Value.t) list }
type graph = { nodes : node list; edges : edge list }

let of_graph g =
  let module G = Pg_graph.Property_graph in
  let node v = { id = G.node_id v; label = G.node_label g v; props = G.node_props g v } in
  let edge e =
    let v1, v2 = G.edge_ends g e in
    let id = G.edge_id e and props = G.edge_props g e in
    { id; label = G.edge_label g e; src = node v1; tgt = node v2; props }
  in
  { nodes = List.map node (G.nodes g); edges = List.map edge (G.edges g) }

(* A snapshot's elements in index order, their names read through the
   symbol table it is frozen against. *)
let of_snapshot st (snap : Pg_graph.Snapshot.t) =
  let name = Pg_graph.Symtab.name st in
  let props pool i =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (List.map (fun (k, v) -> (name k, v)) (Pg_graph.Props.bindings pool i))
  in
  let nodes =
    Array.init snap.n (fun i ->
        let label = name snap.node_label.{i} in
        { id = snap.node_id.{i}; label; props = props snap.node_props i })
  in
  let edge j =
    {
      id = snap.edge_id.{j};
      label = name snap.edge_label.{j};
      src = nodes.(snap.edge_src.{j});
      tgt = nodes.(snap.edge_tgt.{j});
      props = props snap.edge_props j;
    }
  in
  { nodes = Array.to_list nodes; edges = List.init snap.m edge }

(* Budget-guarded folds.  With an inactive run ([Governor.no_run], the
   default) both are exactly [List.fold_left] — the unbudgeted
   specification path is untouched.  [gfold] wraps the graph-element
   level of each rule: it checkpoints per element, counts the fresh
   violations of each visit against the violation cap, and records
   completed visits through [note] ([Governor.note_node_scans] or
   [note_edge_scans]).  [tfold] only checkpoints — for constraint lists
   and the inner loops of the quadratic pair rules, whose additions are
   already counted by the enclosing [gfold] element. *)
let gfold gov note f acc xs =
  if not (Governor.active gov) then List.fold_left f acc xs
  else begin
    let rec go k acc = function
      | [] ->
        note gov k;
        acc
      | x :: tl ->
        if Governor.tick gov k then begin
          note gov k;
          acc
        end
        else begin
          let acc' = f acc x in
          Governor.note_found gov (Governor.added acc' acc);
          go (k + 1) acc' tl
        end
    in
    go 0 acc xs
  end

let tfold gov f acc xs =
  if not (Governor.active gov) then List.fold_left f acc xs
  else begin
    let rec go k acc = function
      | [] -> acc
      | x :: tl -> if Governor.tick gov k then acc else go (k + 1) (f acc x) tl
    in
    go 0 acc xs
  end

(* WS1: node properties must be of the required type *)
let ws1 ?env gov sch g acc =
  gfold gov Governor.note_node_scans
    (fun acc (v : node) ->
      List.fold_left
        (fun acc (p, value) ->
          match Schema.type_f sch v.label p with
          | Some t when Rules.is_attribute_type sch t ->
            if Values_w.mem ?env sch t value then acc
            else
              Violation.make Violation.WS1
                (Violation.Node_property (v.id, p))
                (Printf.sprintf "value %s is not in valuesW(%s)" (Value.to_string value)
                   (Wrapped.to_string t))
              :: acc
          | Some _ | None -> acc)
        acc v.props)
    acc g.nodes

(* WS2: edge properties must be of the required type *)
let ws2 ?env gov sch g acc =
  gfold gov Governor.note_edge_scans
    (fun acc (e : edge) ->
      List.fold_left
        (fun acc (a, value) ->
          match Schema.arg_type sch e.src.label e.label a with
          | Some t ->
            if Values_w.mem ?env sch t value then acc
            else
              Violation.make Violation.WS2
                (Violation.Edge_property (e.id, a))
                (Printf.sprintf "value %s is not in valuesW(%s)" (Value.to_string value)
                   (Wrapped.to_string t))
              :: acc
          | None -> acc)
        acc e.props)
    acc g.edges

(* WS3: target nodes must be of the required type *)
let ws3 gov sch g acc =
  gfold gov Governor.note_edge_scans
    (fun acc (e : edge) ->
      match Schema.type_f sch e.src.label e.label with
      | Some t ->
        let base = Wrapped.basetype t in
        if Subtype.named sch e.tgt.label base then acc
        else
          Violation.make Violation.WS3 (Violation.Edge e.id)
            (Printf.sprintf "target node n%d has label %S, which is not a subtype of %S"
               e.tgt.id e.tgt.label base)
          :: acc
      | None -> acc)
    acc g.edges

(* WS4: non-list fields contain at most one edge *)
let ws4 gov sch g acc =
  gfold gov Governor.note_edge_scans
    (fun acc (e1 : edge) ->
      tfold gov
        (fun acc (e2 : edge) ->
          if e1.id >= e2.id then acc
          else begin
            let v1 = e1.src and f = e1.label in
            if v1.id = e2.src.id && String.equal f e2.label then
              match Schema.type_f sch v1.label f with
              | Some t when not (Rules.multi_edge t) ->
                Violation.make Violation.WS4
                  (Violation.Edge_pair (e1.id, e2.id))
                  (Printf.sprintf
                     "node n%d has two %S edges but the field type %s is not a list type"
                     v1.id f (Wrapped.to_string t))
                :: acc
              | Some _ | None -> acc
            else acc
          end)
        acc g.edges)
    acc g.edges

let weak ?env ?(gov = Governor.no_run) sch g =
  [] |> ws1 ?env gov sch g |> ws2 ?env gov sch g |> ws3 gov sch g |> ws4 gov sch g
  |> Violation.normalize

(* DS1 (@distinct): edges identified by nodes and label.
   Erratum normalized: the source-node condition is lambda(v1) <= t. *)
let ds1 gov sch g acc =
  tfold gov
    (fun acc (fc : Rules.field_constraint) ->
      gfold gov Governor.note_edge_scans
        (fun acc (e1 : edge) ->
          tfold gov
            (fun acc (e2 : edge) ->
              if e1.id >= e2.id then acc
              else begin
                let v1 = e1.src and v2 = e1.tgt in
                if
                  v1.id = e2.src.id
                  && v2.id = e2.tgt.id
                  && String.equal e1.label fc.Rules.field
                  && String.equal e2.label fc.Rules.field
                  && Subtype.named sch v1.label fc.Rules.owner
                then
                  Violation.make Violation.DS1
                    (Violation.Edge_pair (e1.id, e2.id))
                    (Printf.sprintf
                       "parallel %S edges between n%d and n%d violate @distinct on %s.%s"
                       fc.Rules.field v1.id v2.id fc.Rules.owner fc.Rules.field)
                  :: acc
                else acc
              end)
            acc g.edges)
        acc g.edges)
    acc
    (Rules.constrained_fields sch ~directive:"distinct")

(* DS2 (@noLoops) *)
let ds2 gov sch g acc =
  tfold gov
    (fun acc (fc : Rules.field_constraint) ->
      gfold gov Governor.note_edge_scans
        (fun acc (e : edge) ->
          let v1 = e.src in
          if
            v1.id = e.tgt.id
            && String.equal e.label fc.Rules.field
            && Subtype.named sch v1.label fc.Rules.owner
          then
            Violation.make Violation.DS2 (Violation.Edge e.id)
              (Printf.sprintf "loop on node n%d violates @noLoops on %s.%s" v1.id
                 fc.Rules.owner fc.Rules.field)
            :: acc
          else acc)
        acc g.edges)
    acc
    (Rules.constrained_fields sch ~directive:"noLoops")

(* DS3 (@uniqueForTarget).  Erratum normalized: both source nodes must be
   of (a subtype of) the declaring type t. *)
let ds3 gov sch g acc =
  tfold gov
    (fun acc (fc : Rules.field_constraint) ->
      gfold gov Governor.note_edge_scans
        (fun acc (e1 : edge) ->
          tfold gov
            (fun acc (e2 : edge) ->
              if e1.id >= e2.id then acc
              else begin
                let v3 = e1.tgt in
                if
                  v3.id = e2.tgt.id
                  && String.equal e1.label fc.Rules.field
                  && String.equal e2.label fc.Rules.field
                  && Subtype.named sch e1.src.label fc.Rules.owner
                  && Subtype.named sch e2.src.label fc.Rules.owner
                then
                  Violation.make Violation.DS3
                    (Violation.Edge_pair (e1.id, e2.id))
                    (Printf.sprintf
                       "node n%d has two incoming %S edges, violating @uniqueForTarget on %s.%s"
                       v3.id fc.Rules.field fc.Rules.owner fc.Rules.field)
                  :: acc
                else acc
              end)
            acc g.edges)
        acc g.edges)
    acc
    (Rules.constrained_fields sch ~directive:"uniqueForTarget")

(* DS4 (@requiredForTarget).  Erratum normalized: the target-node condition
   compares labels with basetype(typeS(t, f)). *)
let ds4 gov sch g acc =
  tfold gov
    (fun acc (fc : Rules.field_constraint) ->
      let target_base = Wrapped.basetype fc.Rules.fd.Schema.fd_type in
      gfold gov Governor.note_node_scans
        (fun acc (v2 : node) ->
          if Subtype.named sch v2.label target_base then begin
            let has_incoming =
              List.exists
                (fun (e : edge) ->
                  e.tgt.id = v2.id
                  && String.equal e.label fc.Rules.field
                  && Subtype.named sch e.src.label fc.Rules.owner)
                g.edges
            in
            if has_incoming then acc
            else
              Violation.make Violation.DS4 (Violation.Node v2.id)
                (Printf.sprintf
                   "node n%d (%S) has no incoming %S edge required by @requiredForTarget on \
                    %s.%s"
                   v2.id v2.label fc.Rules.field fc.Rules.owner fc.Rules.field)
              :: acc
          end
          else acc)
        acc g.nodes)
    acc
    (Rules.constrained_fields sch ~directive:"requiredForTarget")

(* DS5/DS6 (@required): property required for attribute definitions, edge
   required for relationship definitions. *)
let ds56 gov sch g acc =
  tfold gov
    (fun acc (fc : Rules.field_constraint) ->
      let attr = Rules.is_attribute_type sch fc.Rules.fd.Schema.fd_type in
      gfold gov Governor.note_node_scans
        (fun acc (v : node) ->
          if not (Subtype.named sch v.label fc.Rules.owner) then acc
          else if attr then begin
            match List.assoc_opt fc.Rules.field v.props with
            | None ->
              Violation.make Violation.DS5
                (Violation.Node_property (v.id, fc.Rules.field))
                (Printf.sprintf "node n%d lacks the property %S required on %s.%s" v.id
                   fc.Rules.field fc.Rules.owner fc.Rules.field)
              :: acc
            | Some value ->
              if Wrapped.is_list fc.Rules.fd.Schema.fd_type then begin
                match value with
                | Value.List (_ :: _) -> acc
                | _ (* empty list, or a non-list value: WS1 reports the type error *) ->
                  Violation.make Violation.DS5
                    (Violation.Node_property (v.id, fc.Rules.field))
                    (Printf.sprintf
                       "property %S of node n%d must be a nonempty list (required list \
                        attribute)"
                       fc.Rules.field v.id)
                  :: acc
              end
              else acc
          end
          else begin
            let has_edge =
              List.exists
                (fun (e : edge) -> e.src.id = v.id && String.equal e.label fc.Rules.field)
                g.edges
            in
            if has_edge then acc
            else
              Violation.make Violation.DS6 (Violation.Node v.id)
                (Printf.sprintf "node n%d lacks the outgoing %S edge required on %s.%s" v.id
                   fc.Rules.field fc.Rules.owner fc.Rules.field)
              :: acc
          end)
        acc g.nodes)
    acc
    (Rules.constrained_fields sch ~directive:"required")

(* DS7 (@key) *)
let ds7 gov sch g acc =
  tfold gov
    (fun acc (owner, key_fields) ->
      (* only key fields with attribute types participate (Definition 5.2) *)
      let attribute_fields =
        List.filter
          (fun f ->
            match Schema.type_f sch owner f with
            | Some t -> Rules.is_attribute_type sch t
            | None -> false)
          key_fields
      in
      let nodes = List.filter (fun (v : node) -> Subtype.named sch v.label owner) g.nodes in
      gfold gov Governor.note_node_scans
        (fun acc (v1 : node) ->
          tfold gov
            (fun acc (v2 : node) ->
              if v1.id >= v2.id then acc
              else begin
                let agree f =
                  match (List.assoc_opt f v1.props, List.assoc_opt f v2.props) with
                  | None, None -> true
                  | Some x1, Some x2 -> Value.equal x1 x2
                  | Some _, None | None, Some _ -> false
                in
                if List.for_all agree attribute_fields then
                  Violation.make Violation.DS7
                    (Violation.Node_pair (v1.id, v2.id))
                    (Printf.sprintf "distinct nodes n%d and n%d of type %s agree on key [%s]"
                       v1.id v2.id owner (String.concat ", " key_fields))
                  :: acc
                else acc
              end)
            acc nodes)
        acc nodes)
    acc (Rules.key_constraints sch)

let directives ?env ?(gov = Governor.no_run) sch g =
  ignore env;
  []
  |> ds1 gov sch g
  |> ds2 gov sch g
  |> ds3 gov sch g
  |> ds4 gov sch g
  |> ds56 gov sch g
  |> ds7 gov sch g
  |> Violation.normalize

(* SS1-SS4 *)
let strong_extra ?(gov = Governor.no_run) sch g =
  let acc = [] in
  let acc =
    gfold gov Governor.note_node_scans
      (fun acc (v : node) ->
        if Schema.type_kind sch v.label = Some Schema.Object then acc
        else
          Violation.make Violation.SS1 (Violation.Node v.id)
            (Printf.sprintf "label %S is not an object type of the schema" v.label)
          :: acc)
      acc g.nodes
  in
  let acc =
    gfold gov Governor.note_node_scans
      (fun acc (v : node) ->
        if Schema.is_open sch v.label then acc
        else
        List.fold_left
          (fun acc (p, _) ->
            match Schema.type_f sch v.label p with
            | Some t when Rules.is_attribute_type sch t -> acc
            | Some _ ->
              Violation.make Violation.SS2
                (Violation.Node_property (v.id, p))
                (Printf.sprintf "field %s.%s is a relationship definition, not an attribute"
                   v.label p)
              :: acc
            | None ->
              Violation.make Violation.SS2
                (Violation.Node_property (v.id, p))
                (Printf.sprintf "no field %S is declared for type %S" p v.label)
              :: acc)
          acc v.props)
      acc g.nodes
  in
  let acc =
    gfold gov Governor.note_edge_scans
      (fun acc (e : edge) ->
        List.fold_left
          (fun acc (a, _) ->
            match Schema.arg_type sch e.src.label e.label a with
            | Some _ -> acc
            | None ->
              Violation.make Violation.SS3
                (Violation.Edge_property (e.id, a))
                (Printf.sprintf "no argument %S is declared for field %s.%s" a e.src.label
                   e.label)
              :: acc)
          acc e.props)
      acc g.edges
  in
  let acc =
    gfold gov Governor.note_edge_scans
      (fun acc (e : edge) ->
        match Schema.type_f sch e.src.label e.label with
        | Some t when not (Rules.is_attribute_type sch t) -> acc
        | Some _ ->
          Violation.make Violation.SS4 (Violation.Edge e.id)
            (Printf.sprintf "field %s.%s is an attribute definition and justifies no edges"
               e.src.label e.label)
          :: acc
        | None ->
          Violation.make Violation.SS4 (Violation.Edge e.id)
            (Printf.sprintf "no field %S is declared for type %S" e.label e.src.label)
          :: acc)
      acc g.edges
  in
  Violation.normalize acc
