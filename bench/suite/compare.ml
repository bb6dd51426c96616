(* [gpgs_bench compare BASE NEW]: the runs of a parent and of a change,
   per workload and end-to-end metric, judged against the bounds and
   directions BENCHMARK.json fixes.

   The i-th run of each side forms a pair (run them alternating which
   side goes first).  A gain needs at least ten pairs, the change winning
   nine tenths of them (ties count for neither), and the medians apart
   by more than the parent's own spread.  A metric whose run-to-run
   spread exceeds its bound is unresolved, unless every run of the change
   reads better than every run of the parent.

   The end-to-end timings ([timings] in the records, with their units
   and directions; see [Drive.timing]) are judged the same way at a
   bound of 10%.  BENCHMARK.json does not hold them to a bound, so an
   unresolved timing is reported but does not fail the comparison; a
   worse one does. *)

open Util

type spec = { name : string; unit_ : string; lower : bool; bound : float }

let specs benchmark =
  match Json.member "end_to_end" (read_json benchmark) with
  | Json.List l ->
    List.map
      (fun m ->
        let str k = match Json.member k m with Json.String s -> s | _ -> "" in
        {
          name = str "name";
          unit_ = str "unit";
          lower = str "better" = "lower";
          bound = Option.value (json_num (Json.member "bound" m)) ~default:0.;
        })
      l
  | _ -> failwith (benchmark ^ ": no end_to_end list")

(* The run records of a results file (or of DIR/runs.json), in order. *)
let runs path =
  let path = if Sys.is_directory path then Filename.concat path "runs.json" else path in
  match Json.member "runs" (read_json path) with
  | Json.List l ->
    List.filter (fun r -> Json.member "kind" r = Json.String "run") l
  | _ -> failwith (path ^ ": no runs list")

let values ~key workload name rs =
  List.filter_map
    (fun r ->
      if Json.member "workload" r <> Json.String workload then None
      else json_num (Json.member "value" (Json.member name (Json.member key r))))
    rs

let timing_bound = 0.10

let timing_specs workload rs =
  List.concat_map
    (fun r ->
      match Json.member "timings" r with
      | Json.Assoc l when Json.member "workload" r = Json.String workload ->
        List.map
          (fun (name, t) ->
            let str k = match Json.member k t with Json.String s -> s | _ -> "" in
            { name; unit_ = str "unit"; lower = str "better" = "lower"; bound = timing_bound })
          l
      | _ -> [])
    rs
  |> List.sort_uniq compare

type verdict = Better | Within | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Within -> "within bound"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

let judge spec base next =
  let bq1, bmed, bq3 = quartiles base and nq1, nmed, nq3 = quartiles next in
  let better a b = if spec.lower then a < b else a > b in
  let pairs = min (List.length base) (List.length next) in
  let wins =
    List.length
      (List.filteri (fun i n -> i < pairs && better n (List.nth base i)) next)
  in
  let worse_by = (if spec.lower then nmed -. bmed else bmed -. nmed) /. bmed in
  let spread = Float.max ((bq3 -. bq1) /. bmed) ((nq3 -. nq1) /. nmed) in
  let all_better = List.for_all (fun n -> List.for_all (fun b -> better n b) base) next in
  let v =
    if
      pairs >= 10
      && float_of_int wins >= 0.9 *. float_of_int pairs
      && Float.abs (nmed -. bmed) > bq3 -. bq1
      && better nmed bmed
    then Better
    else if spread > spec.bound && not all_better then Unresolved
    else if worse_by > spec.bound then Worse
    else Within
  in
  (v, (bq1, bmed, bq3), (nq1, nmed, nq3), wins, pairs, spread)

let run ~benchmark base_path new_path =
  let specs = specs benchmark in
  let base = runs base_path and next = runs new_path in
  let workloads =
    List.filter_map
      (fun r -> match Json.member "workload" r with Json.String w -> Some w | _ -> None)
      base
    |> List.sort_uniq compare
  in
  let bad = ref 0 in
  Printf.printf "%-16s %-17s %-6s %31s %31s %6s %7s  %s\n" "workload" "metric" "unit"
    "base q1 / median / q3" "new q1 / median / q3" "wins" "spread" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun (key, spec) ->
          let b = values ~key w spec.name base and n = values ~key w spec.name next in
          if b <> [] && n <> [] then begin
            let v, (bq1, bm, bq3), (nq1, nm, nq3), wins, pairs, spread = judge spec b n in
            if v = Worse || (v = Unresolved && key = "metrics") then incr bad;
            Printf.printf
              "%-16s %-17s %-6s %9.4g / %9.4g / %9.4g %9.4g / %9.4g / %9.4g %3d/%-2d %6.1f%%  %s \
               (bound %g%%)\n"
              w spec.name spec.unit_ bq1 bm bq3 nq1 nm nq3 wins pairs (100. *. spread)
              (verdict_name v) (100. *. spec.bound)
          end)
        (List.map (fun s -> ("metrics", s)) specs
        @ List.map (fun s -> ("timings", s)) (timing_specs w base)))
    workloads;
  if !bad > 0 then 1 else 0
