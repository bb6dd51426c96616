(* Compiled per-rule validation kernels.

   Every rule of Section 5 (WS1-WS4, DS1-DS7, SS1-SS4) is implemented as
   a pure function over one element of a frozen {!Pg_graph.Snapshot}
   resolved against a compiled {!Pg_schema.Plan}.  All hot-path
   comparisons are integer equalities on interned symbols and bitset
   probes of the precomputed subtype matrix — no string hashing, no
   per-run memo caches.  Strings reappear only when a violation is
   actually reported.

   The pair rules read the snapshot's sorted CSR segments instead of
   global group tables: the out segment of a node is sorted by (label,
   target, id), so WS4 groups are label runs, DS1 groups are (label,
   target) sub-runs and DS2 loops are the entries targeting the node
   itself; the in segment is sorted by (label, source, id) for DS3.
   Every rule therefore slices either the node range [0, snap.n) or the
   edge range [0, snap.m) — except DS7, which groups nodes globally per
   @key constraint and parallelizes across constraints.

   The same per-element bodies back two engine shapes: per-rule slice
   kernels ({!Indexed} sequentially, {!Parallel} sharded across domains)
   and the fused single-pass {!node_pass}/{!edge_pass} used by
   {!Linear}.  Kernels only read the frozen context, so slices commute
   and {!Violation.normalize} makes every engine's report identical. *)

module G = Pg_graph.Property_graph
module Value = Pg_graph.Value
module Props = Pg_graph.Props
module Snapshot = Pg_graph.Snapshot
module Plan = Pg_schema.Plan
module Values_w = Pg_schema.Values_w

type ctx = {
  plan : Plan.t;
  snap : Snapshot.t;
  env : Values_w.env;
  gov : Governor.run;
}

(* A ctx over an already-frozen snapshot (e.g. mapped back from disk by
   {!Pg_graph.Snapshot_io}).  The snapshot's symbols must already live in
   the plan's symbol table — Snapshot_io.load remaps them on the way in. *)
let ctx_of_snap ?env ?(gov = Governor.no_run) plan snap =
  let env = Option.value env ~default:Values_w.default_env in
  { plan; snap; env; gov }

(* The rules a pass evaluates: WS (weak), DS (dirs), SS extras (strong). *)
type rule_set = { weak : bool; dirs : bool; strong : bool }

type kernel = ctx -> lo:int -> hi:int -> Violation.t list -> Violation.t list

(* All unordered pairs of a group, as violations. *)
let pairwise group mk acc =
  let rec go acc = function
    | [] -> acc
    | e1 :: rest -> go (List.fold_left (fun acc e2 -> mk e1 e2 :: acc) acc rest) rest
  in
  go acc group

(* ------------------------------------------------------------------ *)
(* Per-node rule bodies                                                 *)

(* WS1: node properties must be of the required type.  Only the values
   of declared attributes are decoded. *)
let ws1_node ctx i acc =
  let snap = ctx.snap in
  let props = snap.Snapshot.node_props in
  let l = snap.Snapshot.node_label.{i} in
  Props.fold props i
    (fun k pos acc ->
      match Plan.field ctx.plan l k with
      | Some fi when fi.Plan.fi_attr ->
        let value = Props.value props pos in
        if fi.Plan.fi_mem ctx.env value then acc
        else
          Violation.make Violation.WS1
            (Violation.Node_property (snap.Snapshot.node_id.{i}, Plan.name ctx.plan k))
            (Printf.sprintf "value %s is not in valuesW(%s)" (Value.to_string value)
               fi.Plan.fi_type_str)
          :: acc
      | Some _ | None -> acc)
    acc

(* SS1: all nodes are justified *)
let ss1_node ctx i acc =
  let snap = ctx.snap in
  let l = snap.Snapshot.node_label.{i} in
  if Plan.is_object ctx.plan l then acc
  else
    Violation.make Violation.SS1
      (Violation.Node snap.Snapshot.node_id.{i})
      (Printf.sprintf "label %S is not an object type of the schema" (Plan.name ctx.plan l))
    :: acc

(* SS2: all node properties are justified.  Open types ([@open], lowered
   from PG-Schema OPEN/LOOSE) admit undeclared properties, so their
   nodes are exempt — WS1 still types the declared ones. *)
let ss2_node ctx i acc =
  let snap = ctx.snap in
  let l = snap.Snapshot.node_label.{i} in
  if Plan.is_open ctx.plan l then acc
  else
  Props.fold snap.Snapshot.node_props i
    (fun k _ acc ->
      match Plan.field ctx.plan l k with
      | Some fi when fi.Plan.fi_attr -> acc
      | Some _ ->
        Violation.make Violation.SS2
          (Violation.Node_property (snap.Snapshot.node_id.{i}, Plan.name ctx.plan k))
          (Printf.sprintf "field %s.%s is a relationship definition, not an attribute"
             (Plan.name ctx.plan l) (Plan.name ctx.plan k))
        :: acc
      | None ->
        Violation.make Violation.SS2
          (Violation.Node_property (snap.Snapshot.node_id.{i}, Plan.name ctx.plan k))
          (Printf.sprintf "no field %S is declared for type %S" (Plan.name ctx.plan k)
             (Plan.name ctx.plan l))
        :: acc)
    acc

(* DS4: nodes of the target type need a qualified incoming edge *)
let ds4_node ctx i acc =
  let snap = ctx.snap in
  let l = snap.Snapshot.node_label.{i} in
  let row = Plan.required_tgt_at ctx.plan l in
  if Array.length row = 0 then acc
  else begin
    let start = snap.Snapshot.in_start.{i} and stop = snap.Snapshot.in_start.{i + 1} in
    Array.fold_left
      (fun acc (fc : Plan.field_constraint) ->
        let ok = ref false in
        let j = ref start in
        while (not !ok) && !j < stop do
          let e = snap.Snapshot.in_adj.{!j} in
          if
            snap.Snapshot.edge_label.{e} = fc.Plan.fc_field
            && Plan.is_sub ctx.plan
                 snap.Snapshot.node_label.{snap.Snapshot.edge_src.{e}}
                 fc.Plan.fc_owner
          then ok := true;
          incr j
        done;
        if !ok then acc
        else
          Violation.make Violation.DS4
            (Violation.Node snap.Snapshot.node_id.{i})
            (Printf.sprintf
               "node n%d (%S) has no incoming %S edge required by @requiredForTarget on \
                %s.%s"
               snap.Snapshot.node_id.{i} (Plan.name ctx.plan l) fc.Plan.fc_field_name
               fc.Plan.fc_owner_name fc.Plan.fc_field_name)
          :: acc)
      acc row
  end

(* DS5/DS6: @required properties and edges *)
let ds56_node ctx i acc =
  let snap = ctx.snap in
  let l = snap.Snapshot.node_label.{i} in
  let row = Plan.required_at ctx.plan l in
  if Array.length row = 0 then acc
  else begin
    let vid = snap.Snapshot.node_id.{i} in
    Array.fold_left
      (fun acc (fc : Plan.field_constraint) ->
        let fi = fc.Plan.fc_info in
        if fi.Plan.fi_attr then begin
          let props = snap.Snapshot.node_props in
          match Props.find props i fc.Plan.fc_field with
          | -1 ->
            Violation.make Violation.DS5
              (Violation.Node_property (vid, fc.Plan.fc_field_name))
              (Printf.sprintf "node n%d lacks the property %S required on %s.%s" vid
                 fc.Plan.fc_field_name fc.Plan.fc_owner_name fc.Plan.fc_field_name)
            :: acc
          | pos ->
            if fi.Plan.fi_list && not (Props.is_nonempty_list props pos) then
              Violation.make Violation.DS5
                (Violation.Node_property (vid, fc.Plan.fc_field_name))
                (Printf.sprintf
                   "property %S of node n%d must be a nonempty list (required list \
                    attribute)"
                   fc.Plan.fc_field_name vid)
              :: acc
            else acc
        end
        else begin
          let start = snap.Snapshot.out_start.{i}
          and stop = snap.Snapshot.out_start.{i + 1} in
          let ok = ref false in
          let j = ref start in
          while (not !ok) && !j < stop do
            if snap.Snapshot.edge_label.{snap.Snapshot.out_adj.{!j}} = fc.Plan.fc_field
            then ok := true;
            incr j
          done;
          if !ok then acc
          else
            Violation.make Violation.DS6 (Violation.Node vid)
              (Printf.sprintf "node n%d lacks the outgoing %S edge required on %s.%s" vid
                 fc.Plan.fc_field_name fc.Plan.fc_owner_name fc.Plan.fc_field_name)
            :: acc
        end)
      acc row
  end

(* DS1 scope: which (label, target) sub-runs of a node's out segment the
   scan reports on.  A sub-run's edges all share one target, so a sub-run
   is either entirely intra-shard or entirely cross-shard — [Ds1_intra]
   restricts to targets inside the node's own shard (the shard-local
   pass), [Ds1_cross] to targets outside it (the frontier pass), and
   [Ds1_all] is the monolithic engines' unrestricted scan. *)
type ds1_scope = Ds1_none | Ds1_all | Ds1_intra of int * int | Ds1_cross of int * int

let ds1_in_scope scope tgt =
  match scope with
  | Ds1_none -> false
  | Ds1_all -> true
  | Ds1_intra (lo, hi) -> tgt >= lo && tgt < hi
  | Ds1_cross (lo, hi) -> tgt < lo || tgt >= hi

(* WS4 / DS1 / DS2 over the label runs of a node's sorted out segment.
   The flags let the per-rule kernels and the fused pass share one run
   scan. *)
let out_rules ~ws4 ~ds1 ~ds2 ctx i acc =
  let snap = ctx.snap in
  let start = snap.Snapshot.out_start.{i} and stop = snap.Snapshot.out_start.{i + 1} in
  if start = stop then acc
  else begin
    let l = snap.Snapshot.node_label.{i} in
    let src_id = snap.Snapshot.node_id.{i} in
    let drow = if ds1 <> Ds1_none then Plan.distinct_at ctx.plan l else [||] in
    let nrow = if ds2 then Plan.no_loops_at ctx.plan l else [||] in
    let acc = ref acc in
    let lo = ref start in
    while !lo < stop do
      let f = snap.Snapshot.edge_label.{snap.Snapshot.out_adj.{!lo}} in
      let hi = ref (!lo + 1) in
      while !hi < stop && snap.Snapshot.edge_label.{snap.Snapshot.out_adj.{!hi}} = f do
        incr hi
      done;
      let lo0 = !lo and hi0 = !hi in
      (* WS4: the whole label run pairs up if the field is not a list *)
      (if ws4 && hi0 - lo0 >= 2 then
         match Plan.field ctx.plan l f with
         | Some fi when not fi.Plan.fi_list ->
           let msg =
             Printf.sprintf
               "node n%d has two %S edges but the field type %s is not a list type" src_id
               (Plan.name ctx.plan f) fi.Plan.fi_type_str
           in
           for a = lo0 to hi0 - 1 do
             for b = a + 1 to hi0 - 1 do
               acc :=
                 Violation.make Violation.WS4
                   (Violation.Edge_pair
                      ( snap.Snapshot.edge_id.{snap.Snapshot.out_adj.{a}},
                        snap.Snapshot.edge_id.{snap.Snapshot.out_adj.{b}} ))
                   msg
                 :: !acc
             done
           done
         | Some _ | None -> ());
      (* DS1: (label, target) sub-runs *)
      if Array.length drow > 0 && hi0 - lo0 >= 2 then begin
        let a = ref lo0 in
        while !a < hi0 do
          let tgt = snap.Snapshot.edge_tgt.{snap.Snapshot.out_adj.{!a}} in
          let b = ref (!a + 1) in
          while !b < hi0 && snap.Snapshot.edge_tgt.{snap.Snapshot.out_adj.{!b}} = tgt do
            incr b
          done;
          if !b - !a >= 2 && ds1_in_scope ds1 tgt then
            Array.iter
              (fun (fc : Plan.field_constraint) ->
                if fc.Plan.fc_field = f then begin
                  let msg =
                    Printf.sprintf
                      "parallel %S edges between n%d and n%d violate @distinct on %s.%s"
                      fc.Plan.fc_field_name src_id
                      snap.Snapshot.node_id.{tgt}
                      fc.Plan.fc_owner_name fc.Plan.fc_field_name
                  in
                  for x = !a to !b - 1 do
                    for y = x + 1 to !b - 1 do
                      acc :=
                        Violation.make Violation.DS1
                          (Violation.Edge_pair
                             ( snap.Snapshot.edge_id.{snap.Snapshot.out_adj.{x}},
                               snap.Snapshot.edge_id.{snap.Snapshot.out_adj.{y}} ))
                          msg
                        :: !acc
                    done
                  done
                end)
              drow;
          a := !b
        done
      end;
      (* DS2: loops are the run entries targeting the node itself *)
      if Array.length nrow > 0 then
        Array.iter
          (fun (fc : Plan.field_constraint) ->
            if fc.Plan.fc_field = f then begin
              let msg =
                Printf.sprintf "loop on node n%d violates @noLoops on %s.%s" src_id
                  fc.Plan.fc_owner_name fc.Plan.fc_field_name
              in
              for x = lo0 to hi0 - 1 do
                let e = snap.Snapshot.out_adj.{x} in
                if snap.Snapshot.edge_tgt.{e} = i then
                  acc :=
                    Violation.make Violation.DS2
                      (Violation.Edge snap.Snapshot.edge_id.{e})
                      msg
                    :: !acc
              done
            end)
          nrow;
      lo := hi0
    done;
    !acc
  end

let ws4_node ctx i acc = out_rules ~ws4:true ~ds1:Ds1_none ~ds2:false ctx i acc
let ds1_node ctx i acc = out_rules ~ws4:false ~ds1:Ds1_all ~ds2:false ctx i acc
let ds2_node ctx i acc = out_rules ~ws4:false ~ds1:Ds1_none ~ds2:true ctx i acc

(* DS3: label runs of the sorted in segment, filtered per constraint to
   sources of the declaring type *)
let ds3_node ctx i acc =
  let snap = ctx.snap in
  let start = snap.Snapshot.in_start.{i} and stop = snap.Snapshot.in_start.{i + 1} in
  if stop - start < 2 then acc
  else begin
    let uts = Plan.unique_tgt ctx.plan in
    if Array.length uts = 0 then acc
    else begin
      let tgt_id = snap.Snapshot.node_id.{i} in
      let acc = ref acc in
      let lo = ref start in
      while !lo < stop do
        let f = snap.Snapshot.edge_label.{snap.Snapshot.in_adj.{!lo}} in
        let hi = ref (!lo + 1) in
        while !hi < stop && snap.Snapshot.edge_label.{snap.Snapshot.in_adj.{!hi}} = f do
          incr hi
        done;
        let lo0 = !lo and hi0 = !hi in
        if hi0 - lo0 >= 2 then
          Array.iter
            (fun (fc : Plan.field_constraint) ->
              if fc.Plan.fc_field = f then begin
                let qualified = ref [] in
                for j = hi0 - 1 downto lo0 do
                  let e = snap.Snapshot.in_adj.{j} in
                  if
                    Plan.is_sub ctx.plan
                      snap.Snapshot.node_label.{snap.Snapshot.edge_src.{e}}
                      fc.Plan.fc_owner
                  then qualified := e :: !qualified
                done;
                match !qualified with
                | [] | [ _ ] -> ()
                | q ->
                  let msg =
                    Printf.sprintf
                      "node n%d has two incoming %S edges, violating @uniqueForTarget on \
                       %s.%s"
                      tgt_id fc.Plan.fc_field_name fc.Plan.fc_owner_name
                      fc.Plan.fc_field_name
                  in
                  acc :=
                    pairwise q
                      (fun e1 e2 ->
                        Violation.make Violation.DS3
                          (Violation.Edge_pair
                             (snap.Snapshot.edge_id.{e1}, snap.Snapshot.edge_id.{e2}))
                          msg)
                      !acc
              end)
            uts;
        lo := hi0
      done;
      !acc
    end
  end

(* ------------------------------------------------------------------ *)
(* Per-edge rule bodies                                                 *)

(* WS2: edge properties must be of the required type *)
let ws2_edge ctx j acc =
  let snap = ctx.snap in
  let props = snap.Snapshot.edge_props in
  if Props.length props j = 0 then acc
  else begin
    let sl = snap.Snapshot.node_label.{snap.Snapshot.edge_src.{j}} in
    match Plan.field ctx.plan sl snap.Snapshot.edge_label.{j} with
    | None -> acc
    | Some fi ->
      Props.fold props j
        (fun a pos acc ->
          match Plan.arg fi a with
          | Some ai ->
            let value = Props.value props pos in
            if ai.Plan.ai_mem ctx.env value then acc
            else
              Violation.make Violation.WS2
                (Violation.Edge_property (snap.Snapshot.edge_id.{j}, Plan.name ctx.plan a))
                (Printf.sprintf "value %s is not in valuesW(%s)" (Value.to_string value)
                   ai.Plan.ai_type_str)
              :: acc
          | None -> acc)
        acc
  end

(* SS3: all edge properties are justified *)
let ss3_edge ctx j acc =
  let snap = ctx.snap in
  let props = snap.Snapshot.edge_props in
  if Props.length props j = 0 then acc
  else begin
    let sl = snap.Snapshot.node_label.{snap.Snapshot.edge_src.{j}} in
    let f = snap.Snapshot.edge_label.{j} in
    let field = Plan.field ctx.plan sl f in
    Props.fold props j
      (fun a _ acc ->
        match Option.bind field (fun fi -> Plan.arg fi a) with
        | Some _ -> acc
        | None ->
          Violation.make Violation.SS3
            (Violation.Edge_property (snap.Snapshot.edge_id.{j}, Plan.name ctx.plan a))
            (Printf.sprintf "no argument %S is declared for field %s.%s"
               (Plan.name ctx.plan a) (Plan.name ctx.plan sl) (Plan.name ctx.plan f))
          :: acc)
      acc
  end

(* WS3: target nodes must be of the required type *)
let ws3_edge ctx j acc =
  let snap = ctx.snap in
  let sl = snap.Snapshot.node_label.{snap.Snapshot.edge_src.{j}} in
  match Plan.field ctx.plan sl snap.Snapshot.edge_label.{j} with
  | Some fi ->
    let tl = snap.Snapshot.node_label.{snap.Snapshot.edge_tgt.{j}} in
    if Plan.is_sub ctx.plan tl fi.Plan.fi_base then acc
    else
      Violation.make Violation.WS3
        (Violation.Edge snap.Snapshot.edge_id.{j})
        (Printf.sprintf "target node n%d has label %S, which is not a subtype of %S"
           snap.Snapshot.node_id.{snap.Snapshot.edge_tgt.{j}}
           (Plan.name ctx.plan tl)
           (Plan.name ctx.plan fi.Plan.fi_base))
      :: acc
  | None -> acc

(* SS4: all edges are justified *)
let ss4_edge ctx j acc =
  let snap = ctx.snap in
  let sl = snap.Snapshot.node_label.{snap.Snapshot.edge_src.{j}} in
  let f = snap.Snapshot.edge_label.{j} in
  match Plan.field ctx.plan sl f with
  | Some fi when not fi.Plan.fi_attr -> acc
  | Some _ ->
    Violation.make Violation.SS4
      (Violation.Edge snap.Snapshot.edge_id.{j})
      (Printf.sprintf "field %s.%s is an attribute definition and justifies no edges"
         (Plan.name ctx.plan sl) (Plan.name ctx.plan f))
    :: acc
  | None ->
    Violation.make Violation.SS4
      (Violation.Edge snap.Snapshot.edge_id.{j})
      (Printf.sprintf "no field %S is declared for type %S" (Plan.name ctx.plan f)
         (Plan.name ctx.plan sl))
    :: acc

(* ------------------------------------------------------------------ *)
(* DS7 (@key): one constraint at a time, grouping nodes globally        *)

(* The group key of a node: per key attribute, 'A' when absent or 'P'
   and the value's canonical bytes ({!Props.add_canonical}: collision-
   free and compatible with Value.equal), each closed by a NUL. *)
let ds7_scan ctx (key : Plan.key) groups i =
  let snap = ctx.snap in
  if Plan.is_sub ctx.plan snap.Snapshot.node_label.{i} key.Plan.key_owner then begin
    let props = snap.Snapshot.node_props in
    let buf = Buffer.create 32 in
    Array.iter
      (fun fsym ->
        (match Props.find props i fsym with
        | -1 -> Buffer.add_char buf 'A'
        | pos ->
          Buffer.add_char buf 'P';
          Props.add_canonical buf props pos);
        Buffer.add_char buf '\x00')
      key.Plan.key_attrs;
    let k = Buffer.contents buf in
    match Hashtbl.find_opt groups k with
    | Some l -> Hashtbl.replace groups k (i :: l)
    | None -> Hashtbl.add groups k [ i ]
  end

(* Phase 1: group the nodes of [lo, hi) into [groups].  A stopped scan
   leaves every group a subset of its full membership, so the emitted
   pairs are a subset of the full report's — partial DS7 results stay
   prefix-consistent.  The sharded engines call this once per shard
   range (each filling its own table), the monolithic ones once over the
   full node range. *)
let ds7_groups ctx (key : Plan.key) (groups : (string, int list) Hashtbl.t) ~lo ~hi =
  let gov = ctx.gov in
  if not (Governor.active gov) then
    for i = lo to hi - 1 do
      ds7_scan ctx key groups i
    done
  else begin
    let i = ref lo in
    let stop = ref false in
    while (not !stop) && !i < hi do
      if Governor.tick gov (!i - lo) then stop := true
      else begin
        ds7_scan ctx key groups !i;
        incr i
      end
    done;
    Governor.note_node_scans gov (!i - lo)
  end

(* Phase 2: emit the pairwise violations of every group of two or more.
   Group member order is irrelevant (pair subjects are normalized and
   the message uses min/max of the pair), so merging per-shard groups by
   concatenation yields the same violation set as one global scan. *)
let ds7_emit ctx (key : Plan.key) (groups : (string, int list) Hashtbl.t) acc =
  let snap = ctx.snap in
  let gov = ctx.gov in
  let acc' =
    Hashtbl.fold
    (fun _key group acc ->
      match group with
      | [] | [ _ ] -> acc
      | _ ->
        pairwise group
          (fun i1 i2 ->
            let a = snap.Snapshot.node_id.{i1} and b = snap.Snapshot.node_id.{i2} in
            Violation.make Violation.DS7
              (Violation.Node_pair (a, b))
              (Printf.sprintf "distinct nodes n%d and n%d of type %s agree on key [%s]"
                 (min a b) (max a b) key.Plan.key_owner_name
                 (String.concat ", " key.Plan.key_fields)))
          acc)
      groups acc
  in
  if Governor.active gov then Governor.note_found gov (Governor.added acc' acc);
  acc'

let ds7 ctx (key : Plan.key) acc =
  let groups : (string, int list) Hashtbl.t = Hashtbl.create 256 in
  ds7_groups ctx key groups ~lo:0 ~hi:ctx.snap.Snapshot.n;
  ds7_emit ctx key groups acc

(* ------------------------------------------------------------------ *)
(* Slice kernels (Indexed runs one slice, Parallel shards them)         *)

(* Ungoverned runs ([Governor.no_run], the default) take the tight
   for-loop — exactly the pre-governor code path, so their reports and
   cost are untouched.  Governed runs checkpoint per element and record
   completed visits and fresh findings; [note] is the scan counter of
   the kernel's universe (nodes or edges). *)
let over_range_noting note body ctx ~lo ~hi acc =
  let gov = ctx.gov in
  if not (Governor.active gov) then begin
    let acc = ref acc in
    for i = lo to hi - 1 do
      acc := body ctx i !acc
    done;
    !acc
  end
  else begin
    let acc = ref acc in
    let i = ref lo in
    let stop = ref false in
    while (not !stop) && !i < hi do
      if Governor.tick gov (!i - lo) then stop := true
      else begin
        let before = !acc in
        acc := body ctx !i before;
        Governor.note_found gov (Governor.added !acc before);
        incr i
      end
    done;
    note gov (!i - lo);
    !acc
  end

let over_nodes body ctx = over_range_noting Governor.note_node_scans body ctx
let over_edges body ctx = over_range_noting Governor.note_edge_scans body ctx

let ws1 ctx = over_nodes ws1_node ctx
let ws2 ctx = over_edges ws2_edge ctx
let ws3 ctx = over_edges ws3_edge ctx
let ws4 ctx = over_nodes ws4_node ctx
let ds1 ctx = over_nodes ds1_node ctx
let ds2 ctx = over_nodes ds2_node ctx
let ds3 ctx = over_nodes ds3_node ctx
let ds4 ctx = over_nodes ds4_node ctx
let ds56 ctx = over_nodes ds56_node ctx
let ss1 ctx = over_nodes ss1_node ctx
let ss2 ctx = over_nodes ss2_node ctx
let ss3 ctx = over_edges ss3_edge ctx
let ss4 ctx = over_edges ss4_edge ctx

(* ------------------------------------------------------------------ *)
(* Fused passes (the Linear engine: everything about one element in one
   visit, sharing the run scans between WS4, DS1 and DS2)               *)

let node_pass ctx rs i acc =
  let acc = if rs.weak then ws1_node ctx i acc else acc in
  let acc =
    if rs.weak || rs.dirs then
      out_rules ~ws4:rs.weak
        ~ds1:(if rs.dirs then Ds1_all else Ds1_none)
        ~ds2:rs.dirs ctx i acc
    else acc
  in
  let acc = if rs.dirs then ds56_node ctx i (ds4_node ctx i (ds3_node ctx i acc)) else acc in
  if rs.strong then ss2_node ctx i (ss1_node ctx i acc) else acc

let edge_pass ctx rs j acc =
  let acc = if rs.weak then ws3_edge ctx j (ws2_edge ctx j acc) else acc in
  if rs.strong then ss4_edge ctx j (ss3_edge ctx j acc) else acc

let ds7_all ctx acc = Array.fold_left (fun acc key -> ds7 ctx key acc) acc (Plan.keys ctx.plan)

(* ------------------------------------------------------------------ *)
(* Shard-local and frontier passes (the sharded engine family)          *)

module Partition = Pg_graph.Partition

(* Everything about node i that needs no other shard's state: WS1, SS1,
   SS2 and DS5/DS6 read only the node's own row and owned out segment;
   WS4 and DS2 read only owned out-edges; DS1 is restricted to the
   (label, target) sub-runs whose target lies inside the shard.  DS3 and
   DS4 read the in segment, so they stay local only when no in-edge
   crosses a shard boundary and defer to the frontier pass otherwise. *)
let local_node_body ctx part rs ~lo ~hi i acc =
  let acc = if rs.weak then ws1_node ctx i acc else acc in
  let acc =
    if rs.weak || rs.dirs then
      out_rules ~ws4:rs.weak
        ~ds1:(if rs.dirs then Ds1_intra (lo, hi) else Ds1_none)
        ~ds2:rs.dirs ctx i acc
    else acc
  in
  let acc =
    if rs.dirs then begin
      let acc =
        if Partition.has_cross_in part i then acc
        else ds4_node ctx i (ds3_node ctx i acc)
      in
      ds56_node ctx i acc
    end
    else acc
  in
  if rs.strong then ss2_node ctx i (ss1_node ctx i acc) else acc

let shard_local ctx part s rs acc =
  let sh = Partition.shard part s in
  let lo = sh.Partition.node_lo and hi = sh.Partition.node_hi in
  let acc =
    over_range_noting Governor.note_node_scans
      (fun ctx i acc -> local_node_body ctx part rs ~lo ~hi i acc)
      ctx ~lo ~hi acc
  in
  if not (rs.weak || rs.strong) then acc
  else begin
    (* owned intra edges, iterated through the shard's rebased CSR slice
       (the sub-view aliases the snapshot's storage — zero copies) *)
    let adj = sh.Partition.out_adj in
    let snap = ctx.snap in
    over_range_noting Governor.note_edge_scans
      (fun ctx k acc ->
        let e = adj.{k} in
        let t = snap.Snapshot.edge_tgt.{e} in
        if t >= lo && t < hi then edge_pass ctx rs e acc else acc)
      ctx ~lo:0 ~hi:(Bigarray.Array1.dim adj) acc
  end

(* The cross-shard complement: DS1 sub-runs with remote targets, DS3/DS4
   for nodes with at least one cross-shard in-edge, and the per-edge
   rules on the frontier edges themselves.  Together with [shard_local]
   every rule instance is computed exactly once, so the merged report
   equals the monolithic engines' after {!Violation.normalize}. *)
let frontier ctx part rs acc =
  let acc =
    if rs.dirs then begin
      let fo = Partition.frontier_out_nodes part in
      let acc =
        over_range_noting Governor.note_node_scans
          (fun ctx x acc ->
            let i = fo.(x) in
            let lo, hi = Partition.bounds_of_node part i in
            out_rules ~ws4:false ~ds1:(Ds1_cross (lo, hi)) ~ds2:false ctx i acc)
          ctx ~lo:0 ~hi:(Array.length fo) acc
      in
      let fi = Partition.frontier_in_nodes part in
      over_range_noting Governor.note_node_scans
        (fun ctx x acc ->
          let i = fi.(x) in
          ds4_node ctx i (ds3_node ctx i acc))
        ctx ~lo:0 ~hi:(Array.length fi) acc
    end
    else acc
  in
  if not (rs.weak || rs.strong) then acc
  else begin
    let fe = Partition.frontier_edges part in
    over_range_noting Governor.note_edge_scans
      (fun ctx x acc -> edge_pass ctx rs fe.(x) acc)
      ctx ~lo:0 ~hi:(Array.length fe) acc
  end
