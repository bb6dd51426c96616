(* The compiled schema: every name the validation rules consult is
   resolved to an interned id, the named-subtype relation is a bitset
   matrix over the schema's type universe, and the directive constraint
   tables are grouped per owning label.  Compiled once per schema, reused
   by every engine and every check.

   The type universe is [Subtype.all_named] plus every basetype referenced
   by a field (targets of WS3/DS4 subtype queries) and every union member,
   interned first so the matrix covers all ids below [n_types].  Graph
   labels interned later (by {!Pg_graph.Snapshot.build}) get ids >=
   [n_types] and are a subtype of nothing, which is exactly the semantics
   of [Subtype.named] for names outside the schema (the right-hand side of
   every rule's subtype query is a schema name). *)

module Sm = Map.Make (String)
module Symtab = Pg_graph.Symtab

type arg_info = { ai_type_str : string; ai_mem : Values_w.checker }

type field_info = {
  fi_field : int;  (* interned field name *)
  fi_name : string;
  fi_type_str : string;  (* Wrapped.to_string fd_type, for messages *)
  fi_attr : bool;  (* attribute (scalar-like base) vs relationship *)
  fi_list : bool;
  fi_base : int;  (* interned basetype; always < n_types *)
  fi_mem : Values_w.checker;
  fi_args : (int * arg_info) array;  (* sorted by interned argument name *)
}

type field_constraint = {
  fc_owner : int;
  fc_owner_name : string;
  fc_field : int;
  fc_field_name : string;
  fc_info : field_info;
}

type key = {
  key_owner : int;
  key_owner_name : string;
  key_fields : string list;  (* as declared, for messages *)
  key_attrs : int array;  (* the attribute-typed key fields, interned *)
  key_attr_names : string array;
}

type t = {
  schema : Schema.t;
  symtab : Symtab.t;
  n_types : int;
  sub_bits : Bytes.t;  (* row-major [l * n_types + u] *)
  object_at : bool array;
  open_at : bool array;  (* type sym -> @open object type (SS2 exempt) *)
  fields_at : field_info array array;  (* type sym -> fields sorted by fi_field *)
  required_at : field_constraint array array;  (* label sym -> @required, label ⊑ owner *)
  required_tgt_at : field_constraint array array;  (* label sym -> @requiredForTarget, label ⊑ base *)
  distinct_at : field_constraint array array;  (* source label sym -> @distinct *)
  no_loops_at : field_constraint array array;
  unique_tgt : field_constraint array;  (* @uniqueForTarget; cannot be label-grouped *)
  keys : key array;
}

let schema t = t.schema
let symtab t = t.symtab
let n_types t = t.n_types
let find t name = Symtab.find t.symtab name
let name t id = Symtab.name t.symtab id

let set_bit bits i =
  let byte = i lsr 3 and mask = 1 lsl (i land 7) in
  Bytes.set bits byte (Char.chr (Char.code (Bytes.get bits byte) lor mask))

let is_sub t l u = l < t.n_types && Char.code (Bytes.get t.sub_bits ((l * t.n_types + u) lsr 3)) lsr ((l * t.n_types + u) land 7) land 1 = 1

let is_object t l = l < t.n_types && t.object_at.(l)
let is_open t l = l < t.n_types && t.open_at.(l)

(* Lookups return a row entry or a shared sentinel, never an option, so
   a hit allocates nothing. *)
let no_field =
  {
    fi_field = -1;
    fi_name = "";
    fi_type_str = "";
    fi_attr = false;
    fi_list = false;
    fi_base = -1;
    fi_mem = (fun _ _ -> false);
    fi_args = [||];
  }

let no_arg = { ai_type_str = ""; ai_mem = (fun _ _ -> false) }

(* Binary search of a field row sorted by [fi_field]. *)
let field_in (row : field_info array) fsym =
  let lo = ref 0 and hi = ref (Array.length row) in
  let found = ref no_field in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let fi = row.(mid) in
    if fi.fi_field = fsym then begin
      found := fi;
      lo := !hi
    end
    else if fi.fi_field < fsym then lo := mid + 1
    else hi := mid
  done;
  !found

let field t l fsym = if l < t.n_types then field_in t.fields_at.(l) fsym else no_field

let arg (fi : field_info) asym =
  let row = fi.fi_args in
  let lo = ref 0 and hi = ref (Array.length row) in
  let found = ref no_arg in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let a, info = row.(mid) in
    if a = asym then begin
      found := info;
      lo := !hi
    end
    else if a < asym then lo := mid + 1
    else hi := mid
  done;
  !found

let no_constraints : field_constraint array = [||]

let required_at t l = if l < t.n_types then t.required_at.(l) else no_constraints
let required_tgt_at t l = if l < t.n_types then t.required_tgt_at.(l) else no_constraints
let distinct_at t l = if l < t.n_types then t.distinct_at.(l) else no_constraints
let no_loops_at t l = if l < t.n_types then t.no_loops_at.(l) else no_constraints
let unique_tgt t = t.unique_tgt
let keys t = t.keys

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)

let dedup_first key_of l =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun x ->
      let k = key_of x in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    l

let build_field sch st (fname, (fd : Schema.field)) =
  let wt = fd.Schema.fd_type in
  let base = Wrapped.basetype wt in
  let args =
    dedup_first fst fd.Schema.fd_args
    |> List.map (fun (a, (arg : Schema.argument)) ->
           ( Symtab.intern st a,
             {
               ai_type_str = Wrapped.to_string arg.Schema.arg_type;
               ai_mem = Values_w.compile sch arg.Schema.arg_type;
             } ))
    |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
    |> Array.of_list
  in
  {
    fi_field = Symtab.intern st fname;
    fi_name = fname;
    fi_type_str = Wrapped.to_string wt;
    fi_attr = Schema.is_scalar_like sch base;
    fi_list = Wrapped.is_list wt;
    fi_base = Symtab.intern st base;
    fi_mem = Values_w.compile sch wt;
    fi_args = args;
  }

let compile sch =
  let st = Symtab.create ~size_hint:64 () in
  (* the type universe: declared names, field basetypes, union members *)
  List.iter (fun n -> ignore (Symtab.intern st n)) (Subtype.all_named sch);
  let owners = Schema.object_names sch @ Schema.interface_names sch in
  List.iter
    (fun t ->
      List.iter
        (fun (_, (fd : Schema.field)) ->
          ignore (Symtab.intern st (Wrapped.basetype fd.Schema.fd_type)))
        (Schema.fields sch t))
    owners;
  List.iter
    (fun u -> List.iter (fun m -> ignore (Symtab.intern st m)) (Schema.union_members sch u))
    (Schema.union_names sch);
  let n_types = Symtab.size st in
  (* the named-subtype relation: reflexivity, interface implementation,
     union membership — exactly [Subtype.named] restricted to the
     universe *)
  let sub_bits = Bytes.make (((n_types * n_types) + 7) / 8) '\000' in
  for i = 0 to n_types - 1 do
    set_bit sub_bits ((i * n_types) + i)
  done;
  let relate t u =
    match Symtab.find st t with
    | Some tsym -> set_bit sub_bits ((tsym * n_types) + u)
    | None -> ()
  in
  List.iter
    (fun iface ->
      let usym = Symtab.intern st iface in
      List.iter (fun t -> relate t usym) (Schema.implementations_of sch iface))
    (Schema.interface_names sch);
  List.iter
    (fun union ->
      let usym = Symtab.intern st union in
      List.iter (fun t -> relate t usym) (Schema.union_members sch union))
    (Schema.union_names sch);
  let object_at = Array.make n_types false in
  List.iter (fun o -> object_at.(Symtab.intern st o) <- true) (Schema.object_names sch);
  let open_at = Array.make n_types false in
  List.iter
    (fun o -> if Schema.is_open sch o then open_at.(Symtab.intern st o) <- true)
    (Schema.object_names sch);
  (* field tables per type *)
  let fields_at = Array.make n_types [||] in
  List.iter
    (fun t ->
      let row =
        dedup_first fst (Schema.fields sch t)
        |> List.map (build_field sch st)
        |> Array.of_list
      in
      Array.sort (fun a b -> compare a.fi_field b.fi_field) row;
      fields_at.(Symtab.intern st t) <- row)
    owners;
  (* directive constraint tables *)
  let constrained directive =
    List.concat_map
      (fun owner ->
        List.filter_map
          (fun (fname, (fd : Schema.field)) ->
            if Schema.has_directive fd.Schema.fd_directives directive then
              Some
                {
                  fc_owner = Symtab.intern st owner;
                  fc_owner_name = owner;
                  fc_field = Symtab.intern st fname;
                  fc_field_name = fname;
                  fc_info = build_field sch st (fname, fd);
                }
            else None)
          (Schema.fields sch owner))
      owners
  in
  let test_sub l u =
    Char.code (Bytes.get sub_bits (((l * n_types) + u) lsr 3)) lsr (((l * n_types) + u) land 7) land 1 = 1
  in
  let rows_by pred cs = Array.init n_types (fun l -> Array.of_list (List.filter (pred l) cs)) in
  let required = constrained "required" in
  let required_tgt = constrained "requiredForTarget" in
  let distinct = constrained "distinct" in
  let no_loops = constrained "noLoops" in
  let unique_tgt = Array.of_list (constrained "uniqueForTarget") in
  let key_of_type owner directives acc =
    List.fold_left
      (fun acc du ->
        match Schema.key_fields du with
        | Some fs ->
          let attrs =
            List.filter
              (fun f ->
                match Schema.type_f sch owner f with
                | Some wt -> Schema.is_scalar_like sch (Wrapped.basetype wt)
                | None -> false)
              fs
          in
          {
            key_owner = Symtab.intern st owner;
            key_owner_name = owner;
            key_fields = fs;
            key_attrs = Array.of_list (List.map (Symtab.intern st) attrs);
            key_attr_names = Array.of_list attrs;
          }
          :: acc
        | None -> acc)
      acc
      (Schema.find_directives directives "key")
  in
  let keys =
    let acc =
      List.fold_left
        (fun acc o -> key_of_type o (Sm.find o sch.Schema.objects).Schema.ot_directives acc)
        [] (Schema.object_names sch)
    in
    let acc =
      List.fold_left
        (fun acc i -> key_of_type i (Sm.find i sch.Schema.interfaces).Schema.it_directives acc)
        acc (Schema.interface_names sch)
    in
    Array.of_list (List.rev acc)
  in
  {
    schema = sch;
    symtab = st;
    n_types;
    sub_bits;
    object_at;
    open_at;
    fields_at;
    required_at = rows_by (fun l fc -> test_sub l fc.fc_owner) required;
    required_tgt_at = rows_by (fun l fc -> test_sub l fc.fc_info.fi_base) required_tgt;
    distinct_at = rows_by (fun l fc -> test_sub l fc.fc_owner) distinct;
    no_loops_at = rows_by (fun l fc -> test_sub l fc.fc_owner) no_loops;
    unique_tgt;
    keys;
  }

(* The single lowering entry point of the frontend-neutral core: any
   frontend (SDL via [Of_ast], PG-Schema via [Pg_pgschema.Lower], or a
   programmatic builder) produces a [Schema.t]; everything downstream —
   engines, governor, server, diagnostics — consumes the plan. *)
let of_schema = compile
