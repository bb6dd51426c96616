(* The multicore validation engine: owner-computes over node-range
   shards.

   Theorem 1 of the paper puts strong-satisfaction validation in AC0:
   every rule is a first-order condition on a bounded neighbourhood, so
   the graph can be cut into disjoint node-range shards and validated
   with almost no shared state.  This engine exploits that directly:

   1. the caller freezes the graph once ({!Kernels.ctx_of_snap}: the
      compiled plan plus the CSR snapshot, immutable from then on);
   2. {!Pg_graph.Partition.make} cuts the node range into shards
      (zero-copy column sub-views) and computes the frontier — the
      cross-shard edges and the nodes incident to them;
   3. each shard becomes ONE task: its owner runs the whole shard-local
      pass ({!Kernels.shard_local} — every rule that needs no other
      shard's state) plus the per-shard DS7 grouping into a private
      table.  Owner-computes means the task counter is touched once per
      shard, not per chunk: the hot path is a plain sequential sweep of
      the shard's column slices, with no atomic operations at all;
   4. after the workers join, the main domain runs the cross-shard
      frontier pass and the global DS7 merge (concatenating the
      per-shard group tables), both sequential — the frontier is the
      only state two shards share, and it is typically a small fraction
      of the graph;
   5. the per-domain lists merge through {!Violation.normalize}, which
      is order-insensitive, and every rule instance is computed exactly
      once across the local and frontier passes — the report is
      therefore byte-identical to the sequential {!Indexed} and
      {!Linear} engines', whatever the shard count or scheduling.

   Governor budgets are shared through the run's atomics, so a deadline
   noticed in one shard stops all of them at their next checkpoint, and
   the partial result (local prefixes + whatever the frontier pass adds
   before its own checkpoints fire) is a subset of the full report —
   prefix-consistent, like the other engines. *)

module K = Kernels
module Partition = Pg_graph.Partition
module Snapshot = Pg_graph.Snapshot
module Plan = Pg_schema.Plan

let default_domains () = Domain.recommended_domain_count ()

type task = unit -> Violation.t list

let run_tasks ?(gov = Governor.no_run) ~domains (tasks : task list) =
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  (* A run stopped before entry (expired deadline, cancellation) spawns
     nothing: the empty prefix is a valid partial result and domain
     startup is not free. *)
  if n = 0 || Governor.stopped gov then []
  else begin
    let k = max 1 (min domains n) in
    let next = Atomic.make 0 in
    let worker () =
      (* The stop flag is shared through the governor run's atomics, so a
         deadline noticed (or a cancellation raised) on one domain stops
         the queue for all of them; tasks already started terminate via
         their own kernel checkpoints. *)
      let rec drain acc =
        let i = Atomic.fetch_and_add next 1 in
        if i >= n || Governor.stopped gov then acc
        else drain (List.rev_append (tasks.(i) ()) acc)
      in
      drain []
    in
    if k = 1 then worker ()
    else begin
      let helpers = List.init (k - 1) (fun _ -> Domain.spawn worker) in
      let mine = worker () in
      List.fold_left (fun acc d -> List.rev_append (Domain.join d) acc) mine helpers
    end
  end

let require what v =
  match v with
  | Some d when d < 1 ->
    invalid_arg (Printf.sprintf "Parallel: the %s count must be at least 1 (got %d)" what d)
  | Some d -> Some d
  | None -> None

(* The sharded check over an explicit partition.  One task per shard:
   the owner runs the shard-local pass and fills its private DS7 group
   tables (disjoint slots of [tables]; Domain.join publishes them to the
   main domain).  Then the frontier pass and the DS7 merge run here. *)
let check_partitioned ~domains ~shards (ctx : K.ctx) (rs : K.rule_set) =
  let part = Partition.make ctx.K.snap ~shards in
  let keys = if rs.K.dirs then Plan.keys ctx.K.plan else [||] in
  let nkeys = Array.length keys in
  let tables =
    Array.init shards (fun _ -> Array.init nkeys (fun _ -> Hashtbl.create 64))
  in
  let shard_task s () =
    let sh = Partition.shard part s in
    let acc = K.shard_local ctx part s rs [] in
    Array.iteri
      (fun ki key ->
        K.ds7_groups ctx key tables.(s).(ki) ~lo:sh.Partition.node_lo
          ~hi:sh.Partition.node_hi)
      keys;
    acc
  in
  let locals =
    run_tasks ~gov:ctx.K.gov ~domains (List.init shards shard_task)
  in
  let acc = K.frontier ctx part rs locals in
  let acc =
    if nkeys = 0 then acc
    else begin
      let merge ki acc =
        let merged : (string, int list) Hashtbl.t = Hashtbl.create 256 in
        for s = 0 to shards - 1 do
          Hashtbl.iter
            (fun k group ->
              match Hashtbl.find_opt merged k with
              | Some prev -> Hashtbl.replace merged k (List.rev_append group prev)
              | None -> Hashtbl.add merged k group)
            tables.(s).(ki)
        done;
        K.ds7_emit ctx keys.(ki) merged acc
      in
      let acc = ref acc in
      for ki = 0 to nkeys - 1 do
        acc := merge ki !acc
      done;
      !acc
    end
  in
  Violation.normalize acc

let check_sharded ?domains ?shards (ctx : K.ctx) (rs : K.rule_set) =
  let domains =
    match require "domain" domains with Some d -> d | None -> default_domains ()
  in
  let shards = match require "shard" shards with Some s -> s | None -> domains in
  check_partitioned ~domains ~shards ctx rs
