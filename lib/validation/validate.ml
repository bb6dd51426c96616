module G = Pg_graph.Property_graph
module Plan = Pg_schema.Plan

type engine = Naive | Linear | Indexed | Parallel | Sharded
type mode = Weak | Directives | Strong

type report = {
  violations : Violation.t list;
  nodes_checked : int;
  edges_checked : int;
  complete : bool;
  nodes_scanned : int;
  edges_scanned : int;
  mode : mode;
  engine : engine;
}

(* The names the CLI, the wire protocol and every report use, in the
   CLI's order. *)
let engines =
  [
    ("indexed", Indexed); ("linear", Linear); ("naive", Naive); ("parallel", Parallel);
    ("sharded", Sharded);
  ]

let modes = [ ("strong", Strong); ("weak", Weak); ("directives", Directives) ]
let name_in table x = fst (List.find (fun (_, y) -> y = x) table)
let engine_name = name_in engines
let mode_name = name_in modes
let compile = Plan.compile

let rules_of = function
  | Weak -> { Kernels.weak = true; dirs = false; strong = false }
  | Directives -> { Kernels.weak = false; dirs = true; strong = false }
  | Strong -> { Kernels.weak = true; dirs = true; strong = true }

(* The string-level specification path: per-mode quadratic evaluation on
   the graph as data, no plan involved. *)
let naive_violations ~mode ?env ?(run = Governor.no_run) sch g =
  match mode with
  | Weak -> Naive.weak ?env ~gov:run sch g
  | Directives -> Naive.directives ?env ~gov:run sch g
  | Strong ->
    Violation.normalize
      (Naive.weak ?env ~gov:run sch g
      @ Naive.directives ?env ~gov:run sch g
      @ Naive.strong_extra ~gov:run sch g)

(* An inert run reports the graph totals as its scan counts: everything
   was scanned, and the unbudgeted record is built without touching the
   run's atomics. *)
let report_of_counts ~mode ~engine run violations ~nodes_checked ~edges_checked =
  let active = Governor.active run in
  {
    violations;
    nodes_checked;
    edges_checked;
    complete = Governor.complete run;
    nodes_scanned = (if active then Governor.node_scans run else nodes_checked);
    edges_scanned = (if active then Governor.edge_scans run else edges_checked);
    mode;
    engine;
  }

(* The string-level oracle over a graph. *)
let check_naive ~mode ?env ~gov sch g =
  let run = Governor.start gov in
  report_of_counts ~mode ~engine:Naive run
    (naive_violations ~mode ?env ~run sch (Naive.of_graph g))
    ~nodes_checked:(G.node_count g) ~edges_checked:(G.edge_count g)

(* Validation over a frozen snapshot (built from a graph, or mapped back
   from disk).  The naive oracle reads it as Definition 2.1's data, the
   compiled engines as their ctx.  Every compiled engine name runs the
   one schedule: [Linear] and [Indexed] as one range on the calling
   domain, [Parallel] with one range per domain. *)
let check_snapshot ?(engine = Indexed) ?(mode = Strong) ?env ?domains ?shards
    ?(gov = Governor.unlimited) plan snap =
  let run = Governor.start gov in
  let compiled ~domains ~shards =
    Parallel.check_sharded ?domains ?shards (Kernels.ctx_of_snap ?env ~gov:run plan snap)
      (rules_of mode)
  in
  let violations =
    match engine with
    | Naive ->
      naive_violations ~mode ?env ~run (Plan.schema plan)
        (Naive.of_snapshot (Plan.symtab plan) snap)
    | Linear | Indexed -> compiled ~domains:(Some 1) ~shards:(Some 1)
    | Parallel -> compiled ~domains ~shards:domains
    | Sharded -> compiled ~domains ~shards
  in
  report_of_counts ~mode ~engine run violations ~nodes_checked:snap.Pg_graph.Snapshot.n
    ~edges_checked:snap.Pg_graph.Snapshot.m

(* The compiled engines freeze the graph against the plan's symbol table
   before the budget starts counting. *)
let check_compiled ?(engine = Indexed) ?(mode = Strong) ?env ?domains ?shards
    ?(gov = Governor.unlimited) plan g =
  match engine with
  | Naive -> check_naive ~mode ?env ~gov (Plan.schema plan) g
  | Linear | Indexed | Parallel | Sharded ->
    check_snapshot ~engine ~mode ?env ?domains ?shards ~gov plan
      (Pg_graph.Snapshot.build (Plan.symtab plan) g)

(* Out-of-core validation: the sharded engine, one domain, over a
   snapshot whose columns and property pools stay mapped from disk.
   Every I/O error was answered when the file was opened. *)
let check_mapped ?mode ?env ?(shards = 1) ?gov plan mapped =
  Ok
    (check_snapshot ~engine:Sharded ?mode ?env ~domains:1 ~shards ?gov plan
       (Pg_graph.Snapshot_io.mapped_snapshot mapped))

let check ?(engine = Indexed) ?(mode = Strong) ?env ?domains ?shards
    ?(gov = Governor.unlimited) sch g =
  match engine with
  | Naive -> check_naive ~mode ?env ~gov sch g
  | Linear | Indexed | Parallel | Sharded ->
    check_compiled ~engine ~mode ?env ?domains ?shards ~gov (Plan.compile sch) g

let conforms ?engine ?env ?domains sch g =
  (check ?engine ~mode:Strong ?env ?domains sch g).violations = []

let weakly_satisfies ?engine ?env ?domains sch g =
  (check ?engine ~mode:Weak ?env ?domains sch g).violations = []

let satisfies_directives ?engine ?env ?domains sch g =
  (check ?engine ~mode:Directives ?env ?domains sch g).violations = []

let violated_rules report =
  List.filter
    (fun r -> List.exists (fun v -> v.Violation.rule = r) report.violations)
    Violation.all_rules

(* The report as unified diagnostics: one per violation, plus a VAL001
   budget marker when the run stopped early (so the exit-code policy can
   classify a partial report without out-of-band flags). *)
let diagnostics report =
  let ds = List.map Violation.to_diagnostic report.violations in
  if report.complete then ds
  else
    Pg_diag.Diag.error ~code:"VAL001"
      (Printf.sprintf
         "budget exhausted before the scan completed (%d node and %d edge visits over %d \
          nodes, %d edges)"
         report.nodes_scanned report.edges_scanned report.nodes_checked report.edges_checked)
    :: ds

let pp_report ppf report =
  if not report.complete then begin
    (* Partial result: the scan counts are work units (per-rule engines
       visit an element once per rule), so they gauge progress, not a
       fraction of distinct elements. *)
    Format.fprintf ppf
      "partial: %d violation(s) before budget exhaustion (%s satisfaction; %d node and \
       %d edge visits over %d nodes, %d edges; %s engine)"
      (List.length report.violations)
      (mode_name report.mode) report.nodes_scanned report.edges_scanned
      report.nodes_checked report.edges_checked (engine_name report.engine);
    List.iter (fun v -> Format.fprintf ppf "@.  %a" Violation.pp v) report.violations
  end
  else if report.violations = [] then
    Format.fprintf ppf "valid (%s satisfaction; %d nodes, %d edges; %s engine)"
      (mode_name report.mode) report.nodes_checked report.edges_checked
      (engine_name report.engine)
  else begin
    Format.fprintf ppf "%d violation(s) (%s satisfaction; %d nodes, %d edges; %s engine):"
      (List.length report.violations)
      (mode_name report.mode) report.nodes_checked report.edges_checked
      (engine_name report.engine);
    List.iter (fun v -> Format.fprintf ppf "@.  %a" Violation.pp v) report.violations
  end
