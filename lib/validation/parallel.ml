(* The one compiled validation schedule: the slice kernels over
   contiguous ranges, drained across domains.

   Theorem 1 of the paper puts strong-satisfaction validation in AC0:
   every rule is a first-order condition on a bounded neighbourhood of
   one element, so a rule run over any range of nodes or edges is a
   valid unit of work.  The schedule:

   1. the caller freezes the graph once ({!Kernels.ctx_of_snap}: the
      compiled plan plus the CSR snapshot, immutable from then on, so
      every domain may read every element of it);
   2. [\[0, n)] and [\[0, m)] are each cut into [shards] contiguous
      ranges of near-equal size, and task [s] runs the thirteen slice
      kernels (WS1 … SS4, DS7 aside) over the [s]-th node range and the
      [s]-th edge range.  The task counter is touched once per task, so
      the hot path is a plain sequential sweep with no atomic operations;
   3. after the tasks drain, the calling domain runs DS7
      ({!Kernels.ds7_all}, one in-place table per key over the whole node
      range);
   4. the per-domain lists merge through {!Violation.normalize}, which
      is order-insensitive, and the ranges tile both universes, so every
      rule instance is computed exactly once — the report is a pure
      function of (schema, graph), whatever the shard or domain count.

   Governor budgets are shared through the run's atomics, so a deadline
   noticed in one task stops all of them at their next checkpoint, and
   the partial result is a subset of the full report. *)

module K = Kernels
module Snapshot = Pg_graph.Snapshot

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
      (* Every helper is joined, even after a task raised: the first
         exception (the calling domain's, then the helpers' in spawn
         order) is re-raised only once no domain is left running. *)
      let failure = ref None in
      let guard f =
        try f ()
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          if Option.is_none !failure then failure := Some (e, bt);
          []
      in
      let mine = guard worker in
      let all =
        List.fold_left
          (fun acc d -> List.rev_append (guard (fun () -> Domain.join d)) acc)
          mine helpers
      in
      match !failure with Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> all
    end
  end

let require what v =
  match v with
  | Some d when d < 1 ->
    invalid_arg (Printf.sprintf "Parallel: the %s count must be at least 1 (got %d)" what d)
  | Some d -> Some d
  | None -> None

(* Task [s] of [shards]: every selected slice kernel, in rule order, over
   the [s]-th of [shards] near-equal ranges of its universe. *)
let slice (ctx : K.ctx) (rs : K.rule_set) ~shards s () =
  let range len = (s * len / shards, (s + 1) * len / shards) in
  let nlo, nhi = range ctx.K.snap.Snapshot.n and elo, ehi = range ctx.K.snap.Snapshot.m in
  let nodes k acc = k ctx ~lo:nlo ~hi:nhi acc and edges k acc = k ctx ~lo:elo ~hi:ehi acc in
  let acc = [] in
  let acc =
    if rs.K.weak then acc |> nodes K.ws1 |> edges K.ws2 |> edges K.ws3 |> nodes K.ws4
    else acc
  in
  let acc =
    if rs.K.dirs then
      acc |> nodes K.ds1 |> nodes K.ds2 |> nodes K.ds3 |> nodes K.ds4 |> nodes K.ds56
    else acc
  in
  if rs.K.strong then acc |> nodes K.ss1 |> nodes K.ss2 |> edges K.ss3 |> edges K.ss4
  else acc

let check_sharded ?domains ?shards (ctx : K.ctx) (rs : K.rule_set) =
  let domains =
    match require "domain" domains with Some d -> d | None -> default_domains ()
  in
  let shards = match require "shard" shards with Some s -> s | None -> domains in
  let acc = run_tasks ~gov:ctx.K.gov ~domains (List.init shards (slice ctx rs ~shards)) in
  Violation.normalize (if rs.K.dirs then K.ds7_all ctx acc else acc)
