type rule =
  | WS1
  | WS2
  | WS3
  | WS4
  | DS1
  | DS2
  | DS3
  | DS4
  | DS5
  | DS6
  | DS7
  | SS1
  | SS2
  | SS3
  | SS4

let rule_name = function
  | WS1 -> "WS1"
  | WS2 -> "WS2"
  | WS3 -> "WS3"
  | WS4 -> "WS4"
  | DS1 -> "DS1"
  | DS2 -> "DS2"
  | DS3 -> "DS3"
  | DS4 -> "DS4"
  | DS5 -> "DS5"
  | DS6 -> "DS6"
  | DS7 -> "DS7"
  | SS1 -> "SS1"
  | SS2 -> "SS2"
  | SS3 -> "SS3"
  | SS4 -> "SS4"

let rule_description = function
  | WS1 -> "node properties must be of the required type"
  | WS2 -> "edge properties must be of the required type"
  | WS3 -> "target nodes must be of the required type"
  | WS4 -> "non-list fields contain at most one edge"
  | DS1 -> "edges identified by nodes and label (@distinct)"
  | DS2 -> "no loops (@noLoops)"
  | DS3 -> "target has at most one incoming edge (@uniqueForTarget)"
  | DS4 -> "target has at least one incoming edge (@requiredForTarget)"
  | DS5 -> "property is required (@required)"
  | DS6 -> "edge is required (@required)"
  | DS7 -> "keys (@key)"
  | SS1 -> "all nodes are justified"
  | SS2 -> "all node properties are justified"
  | SS3 -> "all edge properties are justified"
  | SS4 -> "all edges are justified"

let all_rules =
  [ WS1; WS2; WS3; WS4; DS1; DS2; DS3; DS4; DS5; DS6; DS7; SS1; SS2; SS3; SS4 ]

let rule_rank = function
  | WS1 -> 0
  | WS2 -> 1
  | WS3 -> 2
  | WS4 -> 3
  | DS1 -> 4
  | DS2 -> 5
  | DS3 -> 6
  | DS4 -> 7
  | DS5 -> 8
  | DS6 -> 9
  | DS7 -> 10
  | SS1 -> 11
  | SS2 -> 12
  | SS3 -> 13
  | SS4 -> 14

type subject =
  | Node of int
  | Edge of int
  | Node_property of int * string
  | Edge_property of int * string
  | Node_pair of int * int
  | Edge_pair of int * int

type t = { rule : rule; subject : subject; message : string }

let normalize_subject = function
  | Node_pair (a, b) when a > b -> Node_pair (b, a)
  | Edge_pair (a, b) when a > b -> Edge_pair (b, a)
  | s -> s

let make rule subject message = { rule; subject = normalize_subject subject; message }

let compare v1 v2 =
  match Stdlib.compare (rule_rank v1.rule) (rule_rank v2.rule) with
  | 0 -> Stdlib.compare v1.subject v2.subject
  | c -> c

let equal v1 v2 = compare v1 v2 = 0

(* Normalization must be independent of the order violations were
   accumulated in — the parallel engine merges per-shard lists in a
   nondeterministic order.  [compare] ignores messages, so when the same
   (rule, subject) is reported with different messages (e.g. one field
   @required by two owners), break the tie on the message text and keep
   the least: the survivor is then a function of the violation *set*, not
   of engine scheduling. *)
let compare_with_message v1 v2 =
  match compare v1 v2 with
  | 0 -> String.compare v1.message v2.message
  | c -> c

let normalize vs =
  let sorted = List.sort compare_with_message vs in
  let rec dedup acc = function
    | [] -> List.rev acc
    | [ v ] -> List.rev (v :: acc)
    | v1 :: v2 :: rest ->
      if equal v1 v2 then dedup acc (v1 :: rest) else dedup (v1 :: acc) (v2 :: rest)
  in
  dedup [] sorted

(* Printf, not Format: one report renders a subject per violation, and a
   formatter per string costs several times the string.  [%S] escapes
   as Format's does. *)
let subject_to_string = function
  | Node v -> "node n" ^ string_of_int v
  | Edge e -> "edge e" ^ string_of_int e
  | Node_property (v, p) -> Printf.sprintf "property %S of node n%d" p v
  | Edge_property (e, p) -> Printf.sprintf "property %S of edge e%d" p e
  | Node_pair (a, b) -> Printf.sprintf "nodes n%d and n%d" a b
  | Edge_pair (a, b) -> Printf.sprintf "edges e%d and e%d" a b

let pp_subject ppf s = Format.pp_print_string ppf (subject_to_string s)

let pp ppf v =
  Format.fprintf ppf "[%s] %a: %s (%s)" (rule_name v.rule) pp_subject v.subject v.message
    (rule_description v.rule)

let to_string v = Format.asprintf "%a" pp v

(* The rule names WS1..SS4 double as the stable diagnostic codes; the
   registry's descriptions are the paper captions above, so the unified
   text renderer reproduces [pp] byte-for-byte. *)
let to_diagnostic v =
  Pg_diag.Diag.error ~code:(rule_name v.rule) ~subject:(subject_to_string v.subject) v.message
