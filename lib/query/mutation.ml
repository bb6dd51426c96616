module Sm = Map.Make (String)
module G = Pg_graph.Property_graph
module Value = Pg_graph.Value
module Schema = Pg_schema.Schema
module Wrapped = Pg_schema.Wrapped
module Subtype = Pg_schema.Subtype
module Inc = Pg_validation.Incremental
module Violation = Pg_validation.Violation
module Json = Pg_json.Json
module Q = Query_ast

type error = { path : string list; message : string; violations : Violation.t list }

let pp_error ppf e =
  let prefix = if e.path = [] then "" else String.concat "/" (List.rev e.path) ^ ": " in
  Format.fprintf ppf "%s%s" prefix e.message;
  List.iter (fun v -> Format.fprintf ppf "@.  %a" Violation.pp v) e.violations

exception Fail of error

let fail ?(violations = []) path fmt =
  Format.kasprintf (fun message -> raise (Fail { path; message; violations })) fmt

(* ------------------------------------------------------------------ *)
(* The mutation surface derived from the schema                         *)

type mutation_field =
  | Create of string
  | Delete of string
  | Set of string * string  (** (type, attribute field) *)
  | Link of string * string  (** (type, relationship field) *)
  | Unlink of string * string

(* the first declared single-property scalar key of a type *)
let key_of sch ot_name =
  match Sm.find_opt ot_name sch.Schema.objects with
  | None -> None
  | Some ot ->
    List.find_map
      (fun du ->
        match Schema.key_fields du with
        | Some [ f ] -> (
          match Schema.type_f sch ot_name f with
          | Some wt when Schema.is_scalar_like sch (Wrapped.basetype wt) -> Some (f, wt)
          | Some _ | None -> None)
        | Some _ | None -> None)
      (Schema.find_directives ot.Schema.ot_directives "key")

let mutation_table sch =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun ot_name ->
      Hashtbl.replace tbl ("create" ^ ot_name) (Create ot_name);
      if key_of sch ot_name <> None then begin
        Hashtbl.replace tbl ("delete" ^ ot_name) (Delete ot_name);
        List.iter
          (fun (f_name, (fd : Schema.field)) ->
            let suffix = ot_name ^ String.capitalize_ascii f_name in
            match Schema.classify_field sch fd with
            | Some Schema.Attribute -> Hashtbl.replace tbl ("set" ^ suffix) (Set (ot_name, f_name))
            | Some Schema.Relationship ->
              Hashtbl.replace tbl ("link" ^ suffix) (Link (ot_name, f_name));
              Hashtbl.replace tbl ("unlink" ^ suffix) (Unlink (ot_name, f_name))
            | None -> ())
          (Schema.fields sch ot_name)
      end)
    (Schema.object_names sch);
  tbl

(* ------------------------------------------------------------------ *)
(* Coercion of JSON argument values into property values                *)

let rec value_of_json sch (wt : Wrapped.t) (j : Json.t) : Value.t option =
  let base = Wrapped.basetype wt in
  match j with
  | Json.List items when Wrapped.is_list wt ->
    let coerced = List.map (value_of_json sch (Wrapped.Named base)) items in
    if List.for_all Option.is_some coerced then
      Some (Value.List (List.filter_map Fun.id coerced))
    else None
  | _ when Wrapped.is_list wt -> None
  | Json.Int i -> (
    match base with
    | "Int" -> Some (Value.Int i)
    | "Float" -> Some (Value.Float (float_of_int i))
    | "ID" -> Some (Value.Id (string_of_int i))
    | _ -> None)
  | Json.Float f -> if base = "Float" then Some (Value.Float f) else None
  | Json.Bool b -> if base = "Boolean" then Some (Value.Bool b) else None
  | Json.String s -> (
    match Schema.type_kind sch base with
    | Some Schema.Enum -> Some (Value.Enum s)
    | Some Schema.Scalar -> (
      match base with
      | "ID" -> Some (Value.Id s)
      | "Int" | "Float" | "Boolean" -> None
      | _ -> Some (Value.String s))
    | _ -> None)
  | Json.Null | Json.List _ | Json.Assoc _ -> None

(* ------------------------------------------------------------------ *)

type env = { vars : (string * Json.t) list }

let rec json_of_qvalue env path (v : Q.value) : Json.t =
  match v with
  | Q.Var x -> (
    match List.assoc_opt x env.vars with
    | Some j -> j
    | None -> fail path "variable $%s is not bound" x)
  | Q.Int_value i -> Json.Int i
  | Q.Float_value f -> Json.Float f
  | Q.String_value s -> Json.String s
  | Q.Boolean_value b -> Json.Bool b
  | Q.Null_value -> Json.Null
  | Q.Enum_value e -> Json.String e
  | Q.List_value vs -> Json.List (List.map (json_of_qvalue env path) vs)
  | Q.Object_value fs -> Json.Assoc (List.map (fun (k, v) -> (k, json_of_qvalue env path v)) fs)

(* Does node [v]'s key property match [key_json], as the query lookups
   match it? *)
let has_key g v key_field key_json =
  match G.node_prop g v key_field with
  | Some pv -> Executor.json_matches_value key_json pv
  | None -> false

let find_by_key sch g path ot key_json =
  let key_field, _ = Option.get (key_of sch ot) in
  match
    List.find_opt
      (fun v -> String.equal (G.node_label g v) ot && has_key g v key_field key_json)
      (G.nodes g)
  with
  | Some v -> v
  | None -> fail path "no %s node with %s = %s" ot key_field (Json.to_string key_json)

let render sch state path node selections =
  if selections = [] then fail path "mutation result needs a selection set";
  match Executor.resolve_node sch (Inc.graph state) node selections with
  | Ok j -> j
  | Error (e : Executor.error) ->
    fail (e.Executor.path @ path) "%s" e.Executor.message

let execute_field sch tbl env state path (f : Q.field) : Json.t * Inc.t =
  let args =
    List.map (fun (a, qv) -> (a, json_of_qvalue env path qv)) f.Q.f_arguments
  in
  let arg name = List.assoc_opt name args in
  let require name =
    match arg name with
    | Some j -> j
    | None -> fail path "missing argument %S" name
  in
  match Hashtbl.find_opt tbl f.Q.f_name with
  | None ->
    fail path
      "no mutation field %S (expected create<T>, delete<T>, set<T><Attr>, link<T><Field>, \
       unlink<T><Field>)"
      f.Q.f_name
  | Some (Create ot) ->
    (* every argument must be an attribute field of the type *)
    let props =
      List.map
        (fun (a, j) ->
          match Schema.type_f sch ot a with
          | Some wt when Schema.is_scalar_like sch (Wrapped.basetype wt) -> (
            match value_of_json sch wt j with
            | Some v -> (a, v)
            | None ->
              fail path "argument %S: %s is not a value of %s" a (Json.to_string j)
                (Wrapped.to_string wt))
          | Some _ -> fail path "argument %S is a relationship; use link%s%s" a ot (String.capitalize_ascii a)
          | None -> fail path "type %s has no attribute %S" ot a)
        args
    in
    let state', node = Inc.add_node state ~label:ot ~props () in
    (render sch state' path node f.Q.f_selection, state')
  | Some (Delete ot) -> (
    let key_field, _ = Option.get (key_of sch ot) in
    match arg key_field with
    | None -> fail path "missing key argument %S" key_field
    | Some key_json -> (
      match find_by_key sch (Inc.graph state) path ot key_json with
      | exception Fail _ -> (Json.Bool false, state)
      | node -> (Json.Bool true, Inc.remove_node state node)))
  | Some (Set (ot, attr)) ->
    let key_field, _ = Option.get (key_of sch ot) in
    let node = find_by_key sch (Inc.graph state) path ot (require key_field) in
    let state' =
      match require "value" with
      | Json.Null -> Inc.remove_node_prop state node attr
      | j -> (
        let wt = Option.get (Schema.type_f sch ot attr) in
        match value_of_json sch wt j with
        | Some v -> Inc.set_node_prop state node attr v
        | None ->
          fail path "value %s is not a value of %s" (Json.to_string j) (Wrapped.to_string wt))
    in
    (render sch state' path node f.Q.f_selection, state')
  | Some (Link (ot, field)) ->
    let src = find_by_key sch (Inc.graph state) path ot (require "from") in
    let fd = Option.get (Schema.field sch ot field) in
    let target_base = Wrapped.basetype fd.Schema.fd_type in
    let target_types =
      List.filter
        (fun o ->
          Schema.type_kind sch o = Some Schema.Object && key_of sch o <> None)
        (Subtype.subtypes sch target_base)
    in
    let target_type =
      match target_types, arg "toType" with
      | [], _ -> fail path "no keyed object type can be the target of %s.%s" ot field
      | [ t ], None -> t
      | _, Some (Json.String t) ->
        if List.mem t target_types then t
        else fail path "toType %S is not a keyed target of %s.%s" t ot field
      | _ :: _ :: _, None ->
        fail path "ambiguous target; pass toType: one of [%s]"
          (String.concat ", " target_types)
      | _, Some j -> fail path "toType must be a string, got %s" (Json.to_string j)
    in
    let tgt = find_by_key sch (Inc.graph state) path target_type (require "to") in
    (* remaining arguments become edge properties, typed by the field's
       argument declarations *)
    let props =
      List.filter_map
        (fun (a, j) ->
          if List.mem a [ "from"; "to"; "toType" ] then None
          else
            match List.assoc_opt a fd.Schema.fd_args with
            | Some (decl : Schema.argument) -> (
              match value_of_json sch decl.Schema.arg_type j with
              | Some v -> Some (a, v)
              | None ->
                fail path "edge property %S: %s is not a value of %s" a (Json.to_string j)
                  (Wrapped.to_string decl.Schema.arg_type))
            | None -> fail path "field %s.%s declares no argument %S" ot field a)
        args
    in
    let state', _ = Inc.add_edge state ~label:field ~props src tgt in
    (render sch state' path src f.Q.f_selection, state')
  | Some (Unlink (ot, field)) ->
    let src = find_by_key sch (Inc.graph state) path ot (require "from") in
    let fd = Option.get (Schema.field sch ot field) in
    let target_base = Wrapped.basetype fd.Schema.fd_type in
    let to_json = require "to" in
    let g = Inc.graph state in
    let matching =
      List.filter
        (fun e ->
          String.equal (G.edge_label g e) field
          &&
          let _, tgt = G.edge_ends g e in
          Subtype.named sch (G.node_label g tgt) target_base
          &&
          match key_of sch (G.node_label g tgt) with
          | Some (key_field, _) -> has_key g tgt key_field to_json
          | None -> false)
        (G.out_edges g src)
    in
    let state' = List.fold_left Inc.remove_edge state matching in
    (Json.Int (List.length matching), state')

let execute ?(variables = []) state text =
  match Query_parser.parse_mutation text with
  | Error e ->
    Error
      { path = []; message = Pg_sdl.Source.error_to_string e; violations = [] }
  | Ok doc -> (
    match doc.Q.operations with
    | [ op ] -> (
      try
        if not (Inc.is_valid state) then
          fail ~violations:(Inc.violations state) []
            "the graph does not strongly satisfy the schema before the mutation";
        let sch = Inc.schema state in
        let env = { vars = variables } in
        let tbl = mutation_table sch in
        let data, final =
          List.fold_left
            (fun (fields, state) sel ->
              match sel with
              | Q.Field f ->
                let key = Q.response_key f in
                let value, state' = execute_field sch tbl env state [ key ] f in
                (fields @ [ (key, value) ], state')
              | Q.Inline_fragment _ | Q.Fragment_spread _ ->
                fail [] "fragments are not supported at the mutation root")
            ([], state) op.Q.o_selection
        in
        (* transactional commit: the whole operation must leave the graph
           in strong satisfaction *)
        (match Inc.violations final with
        | [] -> ()
        | violations ->
          fail ~violations [] "mutation rejected: it would violate the schema");
        Ok (Json.Assoc data, final)
      with Fail e -> Error e)
    | _ -> Error { path = []; message = "expected exactly one mutation operation"; violations = [] })
