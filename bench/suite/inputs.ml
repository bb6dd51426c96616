(* The four workloads and their seeded inputs.

   Every graph, schema, request order and arrival time is a function of
   the seed; the program under test only ever sees the files written
   here and the request frames built from them.  Each distinct input
   carries its reference report, computed in-process by the library with
   the Indexed engine on the graph parsed back from the very file the
   program reads. *)

open Util

type workload = Serve_text_hot | Serve_text_cold | Serve_snapshot | Cli_oneshot

let all = [ Serve_text_hot; Serve_text_cold; Serve_snapshot; Cli_oneshot ]

let name = function
  | Serve_text_hot -> "serve_text_hot"
  | Serve_text_cold -> "serve_text_cold"
  | Serve_snapshot -> "serve_snapshot"
  | Cli_oneshot -> "cli_oneshot"

let index w = List.length (List.filter (fun v -> v < w) all)

type graph = Text of string | Snap of string
type engine = Indexed | Sharded of int

type op = {
  label : string;  (** names the distinct input *)
  cls : string;  (** op class, for per-class medians *)
  schema : string;  (** paths are relative to the working directory *)
  graph : graph;
  engine : engine;
  expected : Json.t;  (** the reference envelope *)
  wire : string;  (** the reference as the server frames it *)
}

type t = {
  workload : workload;
  prep : (string * string) list;
      (** (PGF, snapshot) pairs that [gpgs snapshot build] freezes
          before the run *)
  ops : op array;
  sequences : int array array;
      (** request order of the measured loop, cycled: one per connection
          of a closed loop; the open loop and the one-shot caller use
          the first *)
  warm : int list;  (** the inputs of the set-up warm pass *)
  arrivals : float array;
      (** open loop only: send times in seconds from the start of the
          measured window, sorted *)
}

(* Closed loops keep 2 requests in flight (one per connection and per
   server worker, and no more than the host's 2 cores); the open loop
   sends at this fixed rate. *)
let connections = 2
let cold_rate = 10.

(* ---- generators ---- *)

let social_schema = lazy (GP.Social.schema ())

(* [rate * nodes] local edits of the kinds the library's [Corruption]
   mutators make (unknown type, undeclared property, argument and edge
   label, ill-typed value, missing property, duplicated key), each
   O(log n).  [Social.corrupt_uniformly] rescans the whole graph for
   every mutation: at these sizes and rate it takes minutes per run. *)
let corrupt rng ~rate g =
  let module G = GP.Property_graph in
  let module V = GP.Value in
  let nodes = Array.of_list (G.nodes g) and edges = Array.of_list (G.edges g) in
  let any a = a.(Random.State.int rng (Array.length a)) in
  let any_prop g v =
    match G.node_props g v with
    | [] -> None
    | ps -> Some (List.nth ps (Random.State.int rng (List.length ps)))
  in
  let mutate g =
    let v = any nodes in
    match Random.State.int rng 7 with
    | 0 -> G.relabel_node g v "UnknownType_xq"
    | 1 -> G.set_node_prop g v "unknownProperty_xq" (V.Int 1)
    | 2 -> G.set_edge_prop g (any edges) "unknownArgument_xq" (V.Int 1)
    | 3 -> fst (G.add_edge g ~label:"unknownEdge_xq" v (any nodes))
    | 4 -> (
      match any_prop g v with
      | Some (k, V.List _) -> G.set_node_prop g v k (V.Int 123456)
      | Some (k, _) -> G.set_node_prop g v k (V.List [ V.Int 1 ])
      | None -> g)
    | 5 -> ( match any_prop g v with Some (k, _) -> G.remove_node_prop g v k | None -> g)
    | _ -> (
      let u = any nodes in
      match G.node_prop g u "id" with
      | Some id when G.node_id u <> G.node_id v && G.node_label g u = G.node_label g v ->
        G.set_node_prop g v "id" id
      | _ -> g)
  in
  let rec go g k = if k = 0 then g else go (mutate g) (k - 1) in
  go g (int_of_float (rate *. float_of_int (Array.length nodes)))

let social ~seed ~persons ~corrupt:c =
  let g = GP.Social.generate ~seed ~persons () in
  if c then corrupt (Random.State.make [| seed |]) ~rate:0.05 g else g

(* E21's PG-Schema generator (bench/main.ml): [n] node types with six
   properties each, a 1..1 chain edge and a fan edge per type. *)
let pgs_text n_types =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "CREATE GRAPH TYPE Generated STRICT {\n";
  for i = 0 to n_types - 1 do
    Buffer.add_string buf
      (Printf.sprintf
         "  (T%d { id STRING, rank INT, OPTIONAL note STRING, score FLOAT, OPTIONAL tags \
          STRING ARRAY, flag BOOL }),\n"
         i)
  done;
  for i = 0 to n_types - 1 do
    let tgt = (i + 1) mod n_types in
    Buffer.add_string buf
      (Printf.sprintf "  (:T%d)-[next%d { OPTIONAL weight FLOAT }]->(:T%d) OUT 1..1 IN 0..1,\n" i i
         tgt);
    Buffer.add_string buf (Printf.sprintf "  (:T%d)-[fan%d]->(:T%d) OUT 0..* IN 1..*,\n" i i tgt)
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* A graph of the types of [pgs_text n_types]: [per_type] nodes per type,
   node j of each type linked to node j of the next by both edges. *)
let typed_graph rng ~n_types ~per_type =
  let module G = GP.Property_graph in
  let module V = GP.Value in
  let g = ref G.empty in
  let node =
    Array.init n_types (fun i ->
        Array.init per_type (fun j ->
            let opt p v = if Random.State.bool rng then [ (p, v) ] else [] in
            let props =
              [
                ("id", V.String (Printf.sprintf "t%d-%d" i j));
                ("rank", V.Int (Random.State.int rng 1000));
                ("score", V.Float (Random.State.float rng 1.));
                ("flag", V.Bool (Random.State.bool rng));
              ]
              @ opt "note" (V.String (Printf.sprintf "note %d" j))
              @ opt "tags" (V.List [ V.String "a"; V.String (string_of_int i) ])
            in
            let g', v = G.add_node !g ~label:(Printf.sprintf "T%d" i) ~props () in
            g := g';
            v))
  in
  for i = 0 to n_types - 1 do
    let tgt = node.((i + 1) mod n_types) in
    Array.iteri
      (fun j src ->
        let weight =
          if Random.State.bool rng then [ ("weight", V.Float (Random.State.float rng 1.)) ]
          else []
        in
        let g', _ = G.add_edge !g ~label:(Printf.sprintf "next%d" i) ~props:weight src tgt.(j) in
        let g', _ = G.add_edge g' ~label:(Printf.sprintf "fan%d" i) src tgt.(j) in
        g := g')
      node.(i)
  done;
  !g

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* A Poisson process conditioned on exactly [n] arrivals in the window:
   its arrival times are [n] sorted uniform draws.  Fixing [n] keeps the
   sample count, and so the tail percentile's support, the same for
   every seed. *)
let poisson_arrivals rng ~n ~seconds =
  let a = Array.init n (fun _ -> Random.State.float rng seconds) in
  Array.sort Float.compare a;
  a

(* ---- references ---- *)

let envelope (report : GP.Validate.report) =
  GP.Diag_report.envelope ~command:"validate"
    ~summary:(GP.Diag_report.validate_summary report)
    (GP.Validate.diagnostics report)

let as_engine engine (report : GP.Validate.report) =
  match engine with
  | Indexed -> report
  | Sharded _ -> { report with GP.Validate.engine = GP.Validate.Sharded }

let reference plan engine g =
  envelope (as_engine engine (GP.Validate.check_compiled ~engine:GP.Validate.Indexed plan g))

let exit_code envelope =
  match Json.member "exit" envelope with Json.Int c -> c | _ -> -1

(* Start-up cross-check of the reference engine against the [Naive]
   spec oracle, on one clean and one corrupted 100-person instance.
   The corrupted one must actually violate something. *)
let oracle_agrees ~seed =
  let sch = Lazy.force social_schema in
  List.for_all
    (fun corrupt ->
      let g = social ~seed ~persons:100 ~corrupt in
      let naive = GP.Validate.check ~engine:GP.Validate.Naive sch g in
      let indexed =
        GP.Validate.check_compiled ~engine:GP.Validate.Indexed (GP.Plan.of_schema sch) g
      in
      Json.equal
        (envelope { naive with GP.Validate.engine = GP.Validate.Indexed })
        (envelope indexed)
      && corrupt = (indexed.GP.Validate.violations <> []))
    [ false; true ]

(* ---- frames and command lines ---- *)

let frame op =
  let graph_path = match op.graph with Text p | Snap p -> p in
  let engine, extra =
    match op.engine with
    | Indexed -> ("indexed", [])
    | Sharded n -> ("sharded", [ ("shards", Json.Int n) ])
  in
  let snapshot = match op.graph with Snap _ -> [ ("snapshot", Json.Bool true) ] | Text _ -> [] in
  Json.to_string
    (Json.Assoc
       ([
          ("op", Json.String "validate");
          ("schema", Json.String op.schema);
          ("graph", Json.String graph_path);
          ("engine", Json.String engine);
          ("mode", Json.String "strong");
        ]
       @ extra @ snapshot))
  ^ "\n"

let argv ~gpgs op =
  match op.graph with
  | Text p -> [| gpgs; "validate"; "--format"; "json"; op.schema; p |]
  | Snap p -> [| gpgs; "validate"; "--format"; "json"; "--snapshot"; op.schema; p |]

let make_op ~label ~cls ~schema ~graph ~engine expected =
  { label; cls; schema; graph; engine; expected; wire = Pg_server.Protocol.render expected }

(* Write [g] as PGF and return the graph parsed back from that text:
   references are computed on what the program will read. *)
let write_pgf path g =
  let text = GP.Pgf.print g in
  write_file path text;
  match GP.Pgf.parse text with
  | Ok g -> g
  | Error e -> failwith (Format.asprintf "%s: %a" path GP.Pgf.pp_error e)

let plan_of_file lang path =
  match GP.Frontend.parse_full lang (read_file path) with
  | Ok (sch, _) -> GP.Plan.of_schema sch
  | Error _ -> failwith (path ^ ": the generated schema does not compile")

(* ---- workloads ---- *)

(* Inputs of [workload] under [dir] (relative).  [quick] shrinks every
   size tenfold for the smoke run; the shapes stay the same.  [seconds]
   sizes the open loop's arrival schedule. *)
let generate ~quick ~seed ~seconds ~dir workload =
  let rng = Random.State.make [| seed; index workload |] in
  let size n = if quick then max 20 (n / 10) else n in
  let path f = Filename.concat dir f in
  let fresh_seed () = Random.State.bits rng in
  let social_path = path "social.graphql" in
  write_file social_path GP.Social.schema_text;
  let social_plan = lazy (plan_of_file GP.Frontend.Sdl social_path) in
  let text_op ~label ~persons ~corrupt =
    let file = path (label ^ ".pgf") in
    let g = write_pgf file (social ~seed:(fresh_seed ()) ~persons ~corrupt) in
    make_op ~label ~cls:"text" ~schema:social_path ~graph:(Text file) ~engine:Indexed
      (reference (Lazy.force social_plan) Indexed g)
  in
  let closed ~prep ~ops ~sequences ~warm = { workload; prep; ops; sequences; warm; arrivals = [||] } in
  match workload with
  | Serve_text_hot ->
    let ops =
      Array.init 8 (fun i ->
          text_op ~label:(Printf.sprintf "hot%d" i) ~persons:(size 500) ~corrupt:false)
    in
    (* the second connection walks the same order half a cycle ahead *)
    let order = shuffle rng (Array.init 8 Fun.id) in
    closed ~prep:[] ~ops
      ~sequences:[| order; Array.init 8 (fun k -> order.((k + 4) mod 8)) |]
      ~warm:(List.init 8 Fun.id)
  | Serve_text_cold ->
    (* A geometric ladder of 64 sizes from 250 to 2000 persons, every
       4th file corrupted.  Four size points (16 files each) would put
       the pooled median on the gap between two of them, where it flips
       from run to run. *)
    let ops =
      Array.init 64 (fun k ->
          text_op ~label:(Printf.sprintf "cold%02d" k)
            ~persons:(size (int_of_float (Float.round (250. *. (8. ** (float_of_int k /. 63.))))))
            ~corrupt:(k mod 4 = 3))
    in
    (* each block of 4 requests holds one file of every size quartile,
       so a seed changes contents and order, never the mix *)
    let quartile = Array.init 4 (fun q -> shuffle rng (Array.init 16 (fun j -> (16 * q) + j))) in
    let sequence =
      Array.concat (List.init 16 (fun b -> shuffle rng (Array.init 4 (fun q -> quartile.(q).(b)))))
    in
    let n = max 1 (int_of_float (Float.round (cold_rate *. seconds))) in
    {
      workload;
      prep = [];
      ops;
      sequences = [| sequence |];
      warm = [ 0 ];
      arrivals = poisson_arrivals rng ~n ~seconds;
    }
  | Serve_snapshot ->
    let corrupted = Random.State.int rng 4 in
    let plan = Lazy.force social_plan in
    let graphs =
      List.init 4 (fun i ->
          let label = Printf.sprintf "snap%d" i in
          let pgf = path (label ^ ".pgf") and snap = path (label ^ ".snap") in
          let g =
            write_pgf pgf
              (social ~seed:(fresh_seed ()) ~persons:(size 5000) ~corrupt:(i = corrupted))
          in
          let op cls engine =
            make_op ~label:(label ^ "-" ^ cls) ~cls ~schema:social_path ~graph:(Snap snap) ~engine
              (reference plan engine g)
          in
          ((pgf, snap), [ op "snapshot" Indexed; op "sharded" (Sharded 4) ]))
    in
    let ops = Array.of_list (List.concat_map snd graphs) in
    (* Op 2i asks for graph i from the snapshot cache, op 2i+1 reopens it
       out of core.  The server runs a schema's requests one at a time
       (its plan lock), so the two connections take turns and each
       request waits for the other's.  The first connection asks only
       for cached snapshots and the second alternates between the two
       kinds, every graph in turn: 1 request in 4 is out of core, and
       what a request waits for does not depend on how far apart the
       two connections are in their sequences.  With one mixed sequence
       that distance set the latencies, and it settled differently from
       run to run. *)
    closed ~prep:(List.map fst graphs) ~ops
      ~sequences:
        [|
          Array.init 4 (fun g -> 2 * g);
          Array.init 8 (fun k -> (2 * (k mod 4)) + if (k + (k / 4)) mod 2 = 0 then 1 else 0);
        |]
      ~warm:(List.init 8 Fun.id)
  | Cli_oneshot ->
    let big = path "large.pgf" and big_snap = path "large.snap" in
    let g = write_pgf big (social ~seed:(fresh_seed ()) ~persons:(size 20000) ~corrupt:false) in
    let expected = reference (Lazy.force social_plan) Indexed g in
    let n_types = if quick then 64 else 512 in
    let pgs = path "types.pgs" and sdl = path "types.graphql" in
    write_file pgs (pgs_text n_types);
    let typed_plan = plan_of_file GP.Frontend.Pgschema pgs in
    write_file sdl (GP.To_sdl.to_string (GP.Plan.schema typed_plan));
    let small = path "types.pgf" in
    let tg = write_pgf small (typed_graph rng ~n_types ~per_type:4) in
    let typed_expected = reference typed_plan Indexed tg in
    if not (Json.equal typed_expected (reference (plan_of_file GP.Frontend.Sdl sdl) Indexed tg))
    then failwith "the SDL twin of the generated PG-Schema validates differently";
    let ops =
      [|
        make_op ~label:"pgf_large" ~cls:"pgf_large" ~schema:social_path ~graph:(Text big)
          ~engine:Indexed expected;
        make_op ~label:"snapshot_large" ~cls:"snapshot_large" ~schema:social_path
          ~graph:(Snap big_snap) ~engine:Indexed expected;
        make_op ~label:"schema_pgs" ~cls:"schema_large" ~schema:pgs ~graph:(Text small)
          ~engine:Indexed typed_expected;
        make_op ~label:"schema_sdl" ~cls:"schema_large" ~schema:sdl ~graph:(Text small)
          ~engine:Indexed typed_expected;
      |]
    in
    (* one cycle: 1 large PGF, 4 snapshot reopens, 4 large schemas
       alternating between the two frontends *)
    closed ~prep:[ (big, big_snap) ] ~ops ~sequences:[| [| 0; 1; 2; 1; 3; 1; 2; 1; 3 |] |] ~warm:[]
