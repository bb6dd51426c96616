(** The multicore validation engine: owner-computes over node-range
    shards.

    Semantically identical to {!Naive} (property-tested), and
    byte-identical in its reports to {!Indexed} and {!Linear} (all run
    the same compiled {!Kernels} and merge through the order-insensitive
    {!Violation.normalize}).  The frozen snapshot is cut by
    {!Pg_graph.Partition.make} into node-range shards; each shard is one
    task whose owner runs the whole shard-local pass over the shard's
    zero-copy column sub-views — a plain sequential sweep, no atomic
    operations on the hot path.  After the workers join, the main domain
    runs the cross-shard frontier pass and the global DS7 merge.

    [domains] defaults to [Domain.recommended_domain_count ()]; [1] gives
    a sequential run over the same snapshot.  Values above the core count
    are allowed — useful for testing scheduling, useless for speed. *)

val check_sharded :
  ?domains:int -> ?shards:int -> Kernels.ctx -> Kernels.rule_set -> Violation.t list
(** Violations of the selected rule families, normalized, over [shards]
    node-range shards (default: one per domain).  More shards than
    domains bounds the resident working set per task; the report is
    byte-identical either way.  The [Parallel] engine is this with one
    shard per domain.
    @raise Invalid_argument if [domains < 1] or [shards < 1]. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()]. *)

type task = unit -> Violation.t list

val run_tasks : ?gov:Governor.run -> domains:int -> task list -> Violation.t list
(** Drain the tasks across [min domains (length tasks)] domains (the
    calling domain included), concatenating their results in an
    unspecified order.  Returns [[]] immediately — spawning nothing —
    when the list is empty or [gov] is already stopped on entry. *)
