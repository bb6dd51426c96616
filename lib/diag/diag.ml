(* One typed diagnostic model for every layer of the toolchain.

   The producers (SDL front end, lint, schema build, consistency,
   validation, satisfiability, schema diff, the Angles baseline) each
   convert their native finding type into [t]; the renderers below turn a
   [t] back into the exact text the legacy per-producer printers emitted
   (guarded by qcheck parity tests) or into JSON for machines. *)

type pos = { line : int; column : int; offset : int }
type span = { span_start : pos; span_end : pos }
type severity = Error | Warning | Info

type t = {
  code : string;
  severity : severity;
  span : span option;
  subject : string option;
  message : string;
  related : (span option * string) list;
}

let start_pos = { line = 1; column = 1; offset = 0 }
let dummy_span = { span_start = start_pos; span_end = start_pos }
let span span_start span_end = { span_start; span_end }

let make ~code ~severity ?span ?subject ?(related = []) message =
  { code; severity; span; subject; message; related }

let error ~code ?span ?subject ?related message =
  make ~code ~severity:Error ?span ?subject ?related message

let warning ~code ?span ?subject ?related message =
  make ~code ~severity:Warning ?span ?subject ?related message

let info ~code ?span ?subject ?related message =
  make ~code ~severity:Info ?span ?subject ?related message

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

(* ---- ordering ---- *)

let compare_pos a b = Stdlib.compare (a.offset, a.line, a.column) (b.offset, b.line, b.column)

let compare_span a b =
  match compare_pos a.span_start b.span_start with
  | 0 -> compare_pos a.span_end b.span_end
  | c -> c

(* Source order first (spanless diagnostics sort before positioned ones,
   like a file-level header), then code, subject, message. *)
let compare a b =
  let span_key = function None -> (0, dummy_span) | Some s -> (1, s) in
  let (ka, sa), (kb, sb) = (span_key a.span, span_key b.span) in
  match Stdlib.compare ka kb with
  | 0 -> (
    match compare_span sa sb with
    | 0 ->
      Stdlib.compare
        (a.code, a.subject, a.message, a.severity)
        (b.code, b.subject, b.message, b.severity)
    | c -> c)
  | c -> c

let normalize ds = List.sort_uniq compare ds

(* ---- text rendering ---- *)

let pp_pos ppf p = Format.fprintf ppf "%d:%d" p.line p.column

let pp_span ppf s =
  if s.span_start.line = s.span_end.line && s.span_start.column = s.span_end.column then
    pp_pos ppf s.span_start
  else Format.fprintf ppf "%a-%a" pp_pos s.span_start pp_pos s.span_end

let family code =
  let n = String.length code in
  let rec alpha i = if i < n && code.[i] >= 'A' && code.[i] <= 'Z' then alpha (i + 1) else i in
  String.sub code 0 (alpha 0)

(* Each family keeps the exact shape of its legacy printer, so text-mode
   CLI output is byte-identical to the pre-[Diag] toolchain (enforced by
   the parity tests in test_diag.ml). *)
let pp_text ppf d =
  match (family d.code, d.code) with
  | "SDL", _ -> (
    (* Pg_sdl.Source.pp_error: "LINE:COL: message" *)
    match d.span with
    | Some s -> Format.fprintf ppf "%a: %s" pp_span s d.message
    | None -> Format.pp_print_string ppf d.message)
  | "LINT", _ | _, "SCH001" | _, "SCH002" -> (
    (* Pg_sdl.Lint.pp_issue / Pg_schema.Of_ast.pp_diagnostic:
       "severity: LINE:COL: message" *)
    match d.span with
    | Some s -> Format.fprintf ppf "%s: %a: %s" (severity_to_string d.severity) pp_span s d.message
    | None -> Format.fprintf ppf "%s: %s" (severity_to_string d.severity) d.message)
  | ("WS" | "DS" | "SS"), _ ->
    (* Pg_validation.Violation.pp: "[RULE] subject: message (caption)" *)
    Format.fprintf ppf "[%s] %s: %s%s" d.code
      (Option.value d.subject ~default:"?")
      d.message
      (match Registry.describe d.code with Some doc -> " (" ^ doc ^ ")" | None -> "")
  | "DIFF", _ ->
    (* Pg_validation.Schema_diff.pp_change: "severity: subject — description" *)
    Format.fprintf ppf "%s: %s — %s"
      (match d.severity with Error -> "BREAKING" | Warning | Info -> "compatible")
      (Option.value d.subject ~default:"?")
      d.message
  | "ANG", _ ->
    (* Pg_angles.Angles_validate.pp_violation: "[rule] message" with the
       Angles rule name carried as the subject *)
    Format.fprintf ppf "[%s] %s" (Option.value d.subject ~default:d.code) d.message
  | ("SCH" | "SAT" | "VAL" | "IO" | "CLI" | "SRV"), _ ->
    (* consistency issues, verdicts, I/O and service errors print bare
       messages *)
    Format.pp_print_string ppf d.message
  | _ -> Format.fprintf ppf "%s: [%s] %s" (severity_to_string d.severity) d.code d.message

let to_text d = Format.asprintf "%a" pp_text d

(* ---- JSON rendering ---- *)

module Json = Pg_json.Json

let pos_to_json p =
  Json.Assoc [ ("line", Json.Int p.line); ("column", Json.Int p.column); ("offset", Json.Int p.offset) ]

let span_to_json s =
  Json.Assoc [ ("start", pos_to_json s.span_start); ("end", pos_to_json s.span_end) ]

let opt f = function None -> Json.Null | Some x -> f x

let to_json d =
  Json.Assoc
    [
      ("code", Json.String d.code);
      ("severity", Json.String (severity_to_string d.severity));
      ("span", opt span_to_json d.span);
      ("subject", opt (fun s -> Json.String s) d.subject);
      ("message", Json.String d.message);
      ( "related",
        Json.List
          (List.map
             (fun (sp, msg) ->
               Json.Assoc [ ("span", opt span_to_json sp); ("message", Json.String msg) ])
             d.related) );
    ]

(* ---- exit-code policy ---- *)

module Exit = struct
  type cls = Clean | Findings | Input_error | Budget

  let code = function Clean -> 0 | Findings -> 1 | Input_error -> 2 | Budget -> 3

  let status = function
    | Clean -> "ok"
    | Findings -> "findings"
    | Input_error -> "input-error"
    | Budget -> "budget-exhausted"

  (* Precedence mirrors the historical CLI: an unusable input trumps
     everything (the check never ran), an exhausted budget trumps findings
     (the findings are incomplete), and only error-severity diagnostics
     count as findings. *)
  let classify ds =
    let cls_of d = Registry.class_of d.code in
    if List.exists (fun d -> cls_of d = Registry.Input) ds then Input_error
    else if List.exists (fun d -> cls_of d = Registry.Budget) ds then Budget
    else if List.exists (fun d -> d.severity = Error) ds then Findings
    else Clean
end

(* ---- report envelope ---- *)

let severity_counts ds =
  let count s = List.length (List.filter (fun d -> d.severity = s) ds) in
  (count Error, count Warning, count Info)

(* Everything before the diagnostics array, shared by the tree and the
   streamed envelope so the two cannot drift. *)
let envelope_head ~tool ~command ~summary ?cls ds =
  let cls = match cls with Some c -> c | None -> Exit.classify ds in
  let errors, warnings, infos = severity_counts ds in
  [
    ("tool", Json.String tool);
    ("command", Json.String command);
    ("status", Json.String (Exit.status cls));
    ("exit", Json.Int (Exit.code cls));
    ( "counts",
      Json.Assoc
        [ ("errors", Json.Int errors); ("warnings", Json.Int warnings); ("infos", Json.Int infos) ]
    );
    ("summary", Json.Assoc summary);
  ]

let envelope ~tool ~command ?(summary = []) ?cls ds =
  Json.Assoc
    (envelope_head ~tool ~command ~summary ?cls ds
    @ [ ("diagnostics", Json.List (List.map to_json ds)) ])

let write_envelope w ~tool ~command ?(summary = []) ?cls ds =
  Json.begin_object w;
  List.iter
    (fun (k, v) ->
      Json.key w k;
      Json.write w v)
    (envelope_head ~tool ~command ~summary ?cls ds);
  Json.key w "diagnostics";
  Json.begin_list w;
  List.iter (fun d -> Json.write w (to_json d)) ds;
  Json.end_list w;
  Json.end_object w
