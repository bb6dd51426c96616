module Sm = Map.Make (String)
module Schema = Pg_schema.Schema
module Wrapped = Pg_schema.Wrapped
module Json = Pg_json.Json
module Q = Query_ast

exception Unsupported of string

(* The schema tooling should see: the API-extended one when the extension
   applies, the schema itself otherwise. *)
let extended_schema sch =
  match Pg_schema.Api_extension.extend sch with
  | Error _ -> sch
  | Ok doc -> (
    match Pg_schema.Of_ast.build doc with Ok (sch', _) -> sch' | Error _ -> sch)

(* introspection type references *)
type tref = TNamed of string | TList of tref | TNonNull of tref

let tref_of_wrapped (wt : Wrapped.t) =
  match wt with
  | Wrapped.Named t -> TNamed t
  | Wrapped.Non_null t -> TNonNull (TNamed t)
  | Wrapped.List { item; item_non_null; non_null } ->
    let inner = if item_non_null then TNonNull (TNamed item) else TNamed item in
    let l = TList inner in
    if non_null then TNonNull l else l

(* ------------------------------------------------------------------ *)
(* A tiny object evaluator: each "object" is a field-name -> resolver
   table; unknown fields resolve to Null so newer clients degrade. *)

type obj = string -> Q.selection list -> Json.t

let rec eval (o : obj) (selections : Q.selection list) : Json.t =
  (* accumulated in reverse (cons, not append): [List.mem_assoc] does the
     first-key-wins dedup either way, and one final [List.rev] restores
     selection order *)
  let fields =
    List.fold_left
      (fun acc sel ->
        match sel with
        | Q.Field f ->
          let key = Q.response_key f in
          if List.mem_assoc key acc then acc else (key, o f.Q.f_name f.Q.f_selection) :: acc
        | Q.Inline_fragment { if_selection; _ } -> (
          match eval o if_selection with
          | Json.Assoc inner ->
            List.fold_left
              (fun acc (k, v) -> if List.mem_assoc k acc then acc else (k, v) :: acc)
              acc inner
          | _ -> acc)
        | Q.Fragment_spread { fs_name; _ } ->
          raise
            (Unsupported
               (Printf.sprintf "named fragment %S in an introspection selection" fs_name)))
      [] selections
  in
  Json.Assoc (List.rev fields)

let obj_field o sels = eval o sels

(* ------------------------------------------------------------------ *)

let kind_of sch name =
  match Schema.type_kind sch name with
  | Some Schema.Object -> "OBJECT"
  | Some Schema.Interface -> "INTERFACE"
  | Some Schema.Union -> "UNION"
  | Some Schema.Enum -> "ENUM"
  | Some Schema.Scalar -> "SCALAR"
  | None -> "SCALAR"

let description_of sch name =
  let opt = function Some d -> Json.String d | None -> Json.Null in
  match Schema.type_kind sch name with
  | Some Schema.Object -> opt (Sm.find name sch.Schema.objects).Schema.ot_description
  | Some Schema.Interface -> opt (Sm.find name sch.Schema.interfaces).Schema.it_description
  | Some Schema.Union -> opt (Sm.find name sch.Schema.unions).Schema.ut_description
  | Some Schema.Enum -> opt (Sm.find name sch.Schema.enums).Schema.et_description
  | Some Schema.Scalar -> opt (Sm.find name sch.Schema.scalars).Schema.sc_description
  | None -> Json.Null

let rec type_obj sch (t : tref) : obj =
 fun field sels ->
  match t, field with
  | _, "__typename" -> Json.String "__Type"
  | TNamed n, "kind" -> Json.String (kind_of sch n)
  | TList _, "kind" -> Json.String "LIST"
  | TNonNull _, "kind" -> Json.String "NON_NULL"
  | TNamed n, "name" -> Json.String n
  | (TList _ | TNonNull _), "name" -> Json.Null
  | TNamed n, "description" -> description_of sch n
  | (TList inner | TNonNull inner), "ofType" -> obj_field (type_obj sch inner) sels
  | TNamed _, "ofType" -> Json.Null
  | TNamed n, "fields" -> (
    match Schema.type_kind sch n with
    | Some (Schema.Object | Schema.Interface) ->
      Json.List
        (List.map (fun (f_name, fd) -> eval (field_obj sch f_name fd) sels) (Schema.fields sch n))
    | _ -> Json.Null)
  | TNamed n, "interfaces" -> (
    match Schema.type_kind sch n with
    | Some Schema.Object ->
      let ot = Sm.find n sch.Schema.objects in
      Json.List
        (List.map (fun i -> obj_field (type_obj sch (TNamed i)) sels) ot.Schema.ot_interfaces)
    | _ -> Json.Null)
  | TNamed n, "possibleTypes" -> (
    match Schema.type_kind sch n with
    | Some Schema.Interface ->
      Json.List
        (List.map
           (fun i -> obj_field (type_obj sch (TNamed i)) sels)
           (Schema.implementations_of sch n))
    | Some Schema.Union ->
      Json.List
        (List.map (fun i -> obj_field (type_obj sch (TNamed i)) sels) (Schema.union_members sch n))
    | _ -> Json.Null)
  | TNamed n, "enumValues" -> (
    match Sm.find_opt n sch.Schema.enums with
    | Some et ->
      Json.List
        (List.map
           (fun v ->
             eval
               (fun field _ ->
                 match field with
                 | "name" -> Json.String v
                 | "isDeprecated" -> Json.Bool false
                 | _ -> Json.Null)
               sels)
           et.Schema.et_values)
    | None -> Json.Null)
  | (TList _ | TNonNull _), ("fields" | "interfaces" | "possibleTypes" | "enumValues") ->
    Json.Null
  | _, "inputFields" -> Json.Null
  | _, _ -> Json.Null

and field_obj sch f_name (fd : Schema.field) : obj =
 fun field sels ->
  match field with
  | "__typename" -> Json.String "__Field"
  | "name" -> Json.String f_name
  | "description" -> (
    match fd.Schema.fd_description with Some d -> Json.String d | None -> Json.Null)
  | "args" ->
    Json.List
      (List.map (fun (a_name, arg) -> eval (input_value_obj sch a_name arg) sels) fd.Schema.fd_args)
  | "type" -> obj_field (type_obj sch (tref_of_wrapped fd.Schema.fd_type)) sels
  | "isDeprecated" -> Json.Bool (Schema.has_directive fd.Schema.fd_directives "deprecated")
  | _ -> Json.Null

and input_value_obj sch a_name (arg : Schema.argument) : obj =
 fun field sels ->
  match field with
  | "__typename" -> Json.String "__InputValue"
  | "name" -> Json.String a_name
  | "type" -> obj_field (type_obj sch (tref_of_wrapped arg.Schema.arg_type)) sels
  | "defaultValue" -> (
    match arg.Schema.arg_default with
    | Some v -> Json.String (Pg_sdl.Printer.value_to_string v)
    | None -> Json.Null)
  | _ -> Json.Null

let directive_obj sch d_name (dd : Schema.directive_def) : obj =
 fun field sels ->
  match field with
  | "__typename" -> Json.String "__Directive"
  | "name" -> Json.String d_name
  | "locations" ->
    Json.List
      (List.map
         (fun l -> Json.String (Pg_sdl.Ast.directive_location_name l))
         dd.Schema.dd_locations)
  | "args" ->
    Json.List
      (List.map (fun (a_name, arg) -> eval (input_value_obj sch a_name arg) sels) dd.Schema.dd_args)
  | _ -> Json.Null

let all_type_names sch =
  Schema.object_names sch @ Schema.interface_names sch @ Schema.union_names sch
  @ Schema.enum_names sch @ Schema.scalar_names sch

let schema_obj sch : obj =
 fun field sels ->
  match field with
  | "__typename" -> Json.String "__Schema"
  | "queryType" ->
    if Schema.mem_type sch "Query" then obj_field (type_obj sch (TNamed "Query")) sels
    else Json.Null
  | "mutationType" | "subscriptionType" -> Json.Null
  | "types" ->
    Json.List (List.map (fun n -> obj_field (type_obj sch (TNamed n)) sels) (all_type_names sch))
  | "directives" ->
    Json.List
      (Sm.fold
         (fun d_name dd acc -> eval (directive_obj sch d_name dd) sels :: acc)
         sch.Schema.directive_defs []
      |> List.rev)
  | _ -> Json.Null

let schema_field sch selections =
  let sch = extended_schema sch in
  try Ok (eval (schema_obj sch) selections) with Unsupported msg -> Error msg

let type_field sch ~name selections =
  let sch = extended_schema sch in
  if not (Schema.mem_type sch name) then Ok Json.Null
  else try Ok (eval (type_obj sch (TNamed name)) selections) with Unsupported msg -> Error msg
