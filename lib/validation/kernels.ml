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
   edge range [0, snap.m) — except DS7, which groups all nodes per @key
   constraint.

   {!Parallel} runs the slice kernels over contiguous ranges, the one
   compiled schedule behind every engine name.  Kernels only read the
   frozen context, so slices commute and {!Violation.normalize} makes
   the report independent of the ranges.  {!Incremental} runs them too,
   on the frozen neighbourhood of the region an update touched. *)

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

(* The rules a check evaluates: WS (weak), DS (dirs), SS extras (strong). *)
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
      let fi = Plan.field ctx.plan l k in
      if not fi.Plan.fi_attr then acc
      else
        let value = Props.value props pos in
        if fi.Plan.fi_mem ctx.env value then acc
        else
          Violation.make Violation.WS1
            (Violation.Node_property (snap.Snapshot.node_id.{i}, Plan.name ctx.plan k))
            (Printf.sprintf "value %s is not in valuesW(%s)" (Value.to_string value)
               fi.Plan.fi_type_str)
          :: acc)
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
      let fi = Plan.field ctx.plan l k in
      if fi.Plan.fi_attr then acc
      else if fi == Plan.no_field then
        Violation.make Violation.SS2
          (Violation.Node_property (snap.Snapshot.node_id.{i}, Plan.name ctx.plan k))
          (Printf.sprintf "no field %S is declared for type %S" (Plan.name ctx.plan k)
             (Plan.name ctx.plan l))
        :: acc
      else
        Violation.make Violation.SS2
          (Violation.Node_property (snap.Snapshot.node_id.{i}, Plan.name ctx.plan k))
          (Printf.sprintf "field %s.%s is a relationship definition, not an attribute"
             (Plan.name ctx.plan l) (Plan.name ctx.plan k))
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

(* WS4 / DS1 / DS2 over the label runs of a node's sorted out segment;
   the flags select the rule, so the three kernels share one scan body. *)
let out_rules ~ws4 ~ds1 ~ds2 ctx i acc =
  let snap = ctx.snap in
  let start = snap.Snapshot.out_start.{i} and stop = snap.Snapshot.out_start.{i + 1} in
  if start = stop then acc
  else begin
    let l = snap.Snapshot.node_label.{i} in
    let src_id = snap.Snapshot.node_id.{i} in
    let drow = if ds1 then Plan.distinct_at ctx.plan l else [||] in
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
         let fi = Plan.field ctx.plan l f in
         if fi != Plan.no_field && not fi.Plan.fi_list then begin
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
         end);
      (* DS1: (label, target) sub-runs *)
      if Array.length drow > 0 && hi0 - lo0 >= 2 then begin
        let a = ref lo0 in
        while !a < hi0 do
          let tgt = snap.Snapshot.edge_tgt.{snap.Snapshot.out_adj.{!a}} in
          let b = ref (!a + 1) in
          while !b < hi0 && snap.Snapshot.edge_tgt.{snap.Snapshot.out_adj.{!b}} = tgt do
            incr b
          done;
          if !b - !a >= 2 then
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
      (* DS2: loops are the run entries targeting the node itself; the
         message is built at the first loop *)
      for r = 0 to Array.length nrow - 1 do
        let fc = nrow.(r) in
        if fc.Plan.fc_field = f then begin
          let msg = ref "" in
          for x = lo0 to hi0 - 1 do
            let e = snap.Snapshot.out_adj.{x} in
            if snap.Snapshot.edge_tgt.{e} = i then begin
              if !msg = "" then
                msg :=
                  Printf.sprintf "loop on node n%d violates @noLoops on %s.%s" src_id
                    fc.Plan.fc_owner_name fc.Plan.fc_field_name;
              acc :=
                Violation.make Violation.DS2 (Violation.Edge snap.Snapshot.edge_id.{e}) !msg
                :: !acc
            end
          done
        end
      done;
      lo := hi0
    done;
    !acc
  end

let ws4_node ctx i acc = out_rules ~ws4:true ~ds1:false ~ds2:false ctx i acc
let ds1_node ctx i acc = out_rules ~ws4:false ~ds1:true ~ds2:false ctx i acc
let ds2_node ctx i acc = out_rules ~ws4:false ~ds1:false ~ds2:true ctx i acc

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
    let fi = Plan.field ctx.plan sl snap.Snapshot.edge_label.{j} in
    if fi == Plan.no_field then acc
    else
      Props.fold props j
        (fun a pos acc ->
          let ai = Plan.arg fi a in
          if ai == Plan.no_arg then acc
          else
            let value = Props.value props pos in
            if ai.Plan.ai_mem ctx.env value then acc
            else
              Violation.make Violation.WS2
                (Violation.Edge_property (snap.Snapshot.edge_id.{j}, Plan.name ctx.plan a))
                (Printf.sprintf "value %s is not in valuesW(%s)" (Value.to_string value)
                   ai.Plan.ai_type_str)
              :: acc)
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
        if Plan.arg field a != Plan.no_arg then acc
        else
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
  let fi = Plan.field ctx.plan sl snap.Snapshot.edge_label.{j} in
  if fi == Plan.no_field then acc
  else
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

(* SS4: all edges are justified *)
let ss4_edge ctx j acc =
  let snap = ctx.snap in
  let sl = snap.Snapshot.node_label.{snap.Snapshot.edge_src.{j}} in
  let f = snap.Snapshot.edge_label.{j} in
  let fi = Plan.field ctx.plan sl f in
  if fi == Plan.no_field then
    Violation.make Violation.SS4
      (Violation.Edge snap.Snapshot.edge_id.{j})
      (Printf.sprintf "no field %S is declared for type %S" (Plan.name ctx.plan f)
         (Plan.name ctx.plan sl))
    :: acc
  else if fi.Plan.fi_attr then
    Violation.make Violation.SS4
      (Violation.Edge snap.Snapshot.edge_id.{j})
      (Printf.sprintf "field %s.%s is an attribute definition and justifies no edges"
         (Plan.name ctx.plan sl) (Plan.name ctx.plan f))
    :: acc
  else acc

(* ------------------------------------------------------------------ *)
(* Slice kernels (Parallel runs them over contiguous ranges)            *)

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
(* DS7 (@key): one constraint at a time, grouping nodes globally        *)

(* The candidates of a key are the nodes whose label is a subtype of its
   owner.  They are grouped in an open-addressing table of node indexes
   with linear probing: a slot holds the first candidate met with its key
   tuple, and [hashes] that tuple's hash.  A tuple is hashed and compared
   in place, an absent attribute counting as a value of its own
   ({!Props.hash_canonical}, {!Props.equal_canonical}), so a node whose
   tuple is new allocates nothing.  Only a node whose tuple is already
   present, that is a violation, allocates: the pair (slot, node) in
   [dups].  One table serves every key of a check: each key uses the
   prefix its candidates need, at most half full. *)
type ds7_table = { slots : int array; hashes : int array; mutable dups : (int * int) list }

let is_candidate ctx (key : Plan.key) i =
  Plan.is_sub ctx.plan ctx.snap.Snapshot.node_label.{i} key.Plan.key_owner

let candidates ctx key =
  let c = ref 0 in
  for i = 0 to ctx.snap.Snapshot.n - 1 do
    if is_candidate ctx key i then incr c
  done;
  !c

(* the smallest power of two holding [c] candidates at most half full *)
let ds7_capacity c =
  let cap = ref 1 in
  while !cap < 2 * c do
    cap := 2 * !cap
  done;
  !cap

let ds7_table capacity =
  { slots = Array.make capacity (-1); hashes = Array.make capacity 0; dups = [] }

let tuple_hash props (attrs : int array) i =
  let h = ref 0 in
  for a = 0 to Array.length attrs - 1 do
    let pos = Props.find props i attrs.(a) in
    h := (31 * !h) + if pos < 0 then 1 else Props.hash_canonical props pos
  done;
  !h land max_int

let rec same_tuple props (attrs : int array) i j a =
  a = Array.length attrs
  ||
  let pi = Props.find props i attrs.(a) and pj = Props.find props j attrs.(a) in
  (if pi < 0 then pj < 0 else pj >= 0 && Props.equal_canonical props pi pj)
  && same_tuple props attrs i j (a + 1)

let ds7_insert t props attrs mask i =
  let h = tuple_hash props attrs i in
  let x = ref (h land mask) and placed = ref false in
  while not !placed do
    let j = t.slots.(!x) in
    if j < 0 then begin
      t.slots.(!x) <- i;
      t.hashes.(!x) <- h;
      placed := true
    end
    else if t.hashes.(!x) = h && same_tuple props attrs i j 0 then begin
      t.dups <- (!x, i) :: t.dups;
      placed := true
    end
    else x := (!x + 1) land mask
  done

(* The pairwise violations of every group of two or more: a slot's
   first node and the nodes [dups] puts under it.  Group member order is
   irrelevant: pair subjects are normalized and the message uses min/max
   of the pair. *)
let ds7_emit ctx (key : Plan.key) t acc =
  match List.sort (fun (x, _) (y, _) -> Int.compare x y) t.dups with
  | [] -> acc
  | dups ->
    let snap = ctx.snap and fields = String.concat ", " key.Plan.key_fields in
    let violation i1 i2 =
      let a = snap.Snapshot.node_id.{i1} and b = snap.Snapshot.node_id.{i2} in
      Violation.make Violation.DS7
        (Violation.Node_pair (a, b))
        (Printf.sprintf "distinct nodes n%d and n%d of type %s agree on key [%s]" (min a b)
           (max a b) key.Plan.key_owner_name fields)
    in
    (* [dups] is sorted by slot: each run of one slot is one group *)
    let rec groups acc = function
      | [] -> acc
      | (x, i) :: rest ->
        let rec run members = function
          | (y, j) :: rest when y = x -> run (j :: members) rest
          | rest -> (members, rest)
        in
        let members, rest = run [ i ] rest in
        groups (pairwise (t.slots.(x) :: members) violation acc) rest
    in
    groups acc dups

(* One key over all nodes, in table [t] of at least [ds7_capacity] of
   the key's candidates.  A stopped scan leaves every group a subset of
   its full membership, so the emitted pairs are a subset of the full
   report's: partial DS7 results stay prefix-consistent. *)
let ds7_in t ctx (key : Plan.key) ~candidates acc =
  let cap = ds7_capacity candidates in
  Array.fill t.slots 0 cap (-1);
  t.dups <- [];
  let props = ctx.snap.Snapshot.node_props and attrs = key.Plan.key_attrs and mask = cap - 1 in
  let scan ctx i acc =
    if is_candidate ctx key i then ds7_insert t props attrs mask i;
    acc
  in
  let acc = over_nodes scan ctx ~lo:0 ~hi:ctx.snap.Snapshot.n acc in
  let acc' = ds7_emit ctx key t acc in
  if Governor.active ctx.gov then Governor.note_found ctx.gov (Governor.added acc' acc);
  acc'

let ds7_all ctx acc =
  let keys = Plan.keys ctx.plan in
  let counts = Array.map (candidates ctx) keys in
  let t = ds7_table (ds7_capacity (Array.fold_left max 0 counts)) in
  let acc = ref acc in
  Array.iteri (fun k key -> acc := ds7_in t ctx key ~candidates:counts.(k) !acc) keys;
  !acc
