(* Request parsing for the NDJSON wire protocol (see protocol.mli).

   Field names, accepted values and defaults deliberately mirror the
   [gpgs validate] flags one-for-one, because the acceptance contract of
   the daemon is byte-identical envelopes: a request must denote exactly
   one CLI invocation. *)

module GP = Graphql_pg
module Json = GP.Json

type validate_req = {
  schema : string;
  schema_lang : GP.Frontend.lang option;
  graph : string;
  engine : GP.Validate.engine;
  mode : GP.Validate.mode;
  domains : int option;
  shards : int option;
  snapshot : bool;
  lenient : bool;
  deadline_ms : float option;
  max_violations : int option;
}

type request =
  | Ping
  | Stats
  | Health
  | Validate of validate_req
  | Debug_boom
  | Debug_sleep of float
  | Debug_stall of float

let ( let* ) = Result.bind

(* The CLI's alternatives, from the table its Arg.enum converters read:
   [unknown mode "x" (expected strong, weak, or directives)]. *)
let of_names what table s =
  match List.assoc_opt s table with
  | Some x -> Ok x
  | None ->
    let names = List.map fst table in
    let last = List.length names - 1 in
    let listed = List.mapi (fun i n -> if i = last then "or " ^ n else n) names in
    Error (Printf.sprintf "unknown %s %S (expected %s)" what s (String.concat ", " listed))

let engine_of_string = of_names "engine" GP.Validate.engines
let mode_of_string = of_names "mode" GP.Validate.modes

(* Stricter than the CLI's converter on purpose: the wire names are the
   canonical two, no aliases. *)
let lang_of_string = function
  | "sdl" -> Ok GP.Frontend.Sdl
  | "pgschema" -> Ok GP.Frontend.Pgschema
  | s -> Error (Printf.sprintf "unknown schema_lang %S (expected sdl or pgschema)" s)

let opt_field fields name decode =
  match List.assoc_opt name fields with
  | None | Some Json.Null -> Ok None
  | Some v -> (
    match decode v with
    | Ok x -> Ok (Some x)
    | Error want ->
      Error (Printf.sprintf "field %S must be %s" name want))

let req_string fields name =
  let* v = opt_field fields name (function Json.String s -> Ok s | _ -> Error "a string") in
  match v with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "field %S is required" name)

let opt_int fields name =
  opt_field fields name (function Json.Int i -> Ok i | _ -> Error "an integer")

let opt_number fields name =
  opt_field fields name (function
    | Json.Int i -> Ok (float_of_int i)
    | Json.Float f -> Ok f
    | _ -> Error "a number")

let opt_bool fields name =
  opt_field fields name (function Json.Bool b -> Ok b | _ -> Error "a boolean")

let opt_enum fields name of_string =
  match List.assoc_opt name fields with
  | None | Some Json.Null -> Ok None
  | Some (Json.String s) -> Result.map Option.some (of_string s)
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)

let parse_validate fields =
  let* schema = req_string fields "schema" in
  let* schema_lang = opt_enum fields "schema_lang" lang_of_string in
  let* graph = req_string fields "graph" in
  let* engine = opt_enum fields "engine" engine_of_string in
  let* mode = opt_enum fields "mode" mode_of_string in
  let* domains = opt_int fields "domains" in
  let* shards = opt_int fields "shards" in
  let* snapshot = opt_bool fields "snapshot" in
  let* lenient = opt_bool fields "lenient" in
  let* deadline_ms = opt_number fields "deadline_ms" in
  let* max_violations = opt_int fields "max_violations" in
  Ok
    (Validate
       {
         schema;
         schema_lang;
         graph;
         engine = Option.value engine ~default:GP.Validate.Indexed;
         mode = Option.value mode ~default:GP.Validate.Strong;
         domains;
         shards;
         snapshot = Option.value snapshot ~default:false;
         lenient = Option.value lenient ~default:false;
         deadline_ms;
         max_violations;
       })

let parse line =
  match Json.of_string line with
  | Error msg -> Error ("request is not valid JSON: " ^ msg)
  | Ok (Json.Assoc fields) -> (
    let* op = req_string fields "op" in
    match op with
    | "ping" -> Ok Ping
    | "stats" -> Ok Stats
    | "health" -> Ok Health
    | "validate" -> parse_validate fields
    | "boom" -> Ok Debug_boom
    | "sleep" ->
      let* s = opt_number fields "seconds" in
      Ok (Debug_sleep (Option.value s ~default:1.0))
    | "stall" ->
      let* s = opt_number fields "seconds" in
      Ok (Debug_stall (Option.value s ~default:1.0))
    | op -> Error (Printf.sprintf "unknown op %S" op))
  | Ok _ -> Error "request must be a JSON object"

let render json = Json.to_string json ^ "\n"
