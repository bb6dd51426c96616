(** The one compiled validation schedule: the {!Kernels} slice kernels
    over contiguous ranges, drained across OCaml 5 domains.

    [\[0, n)] and [\[0, m)] are each cut into [shards] contiguous ranges
    of near-equal size; task [s] runs the thirteen slice kernels
    ([ws1] … [ss4]) in rule order over the [s]-th node range and the
    [s]-th edge range.  The tasks drain across [domains] domains
    ({!run_tasks}), then the calling domain runs {!Kernels.ds7_all} and
    {!Violation.normalize}.  The ranges tile both universes, so every
    rule instance is computed exactly once, and the report is the same
    for every shard and domain count.  Every compiled engine name runs
    this: [Linear] and [Indexed] as one range on the calling domain,
    [Parallel] with one range per domain, [Sharded] with the counts it
    is given.

    [domains] defaults to [Domain.recommended_domain_count ()].  Values
    above the core count are allowed — useful for testing scheduling,
    useless for speed. *)

val check_sharded :
  ?domains:int -> ?shards:int -> Kernels.ctx -> Kernels.rule_set -> Violation.t list
(** Violations of the selected rule families, normalized, over [shards]
    ranges (default: one per domain).
    @raise Invalid_argument if [domains < 1] or [shards < 1]. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()]. *)

type task = unit -> Violation.t list

val run_tasks : ?gov:Governor.run -> domains:int -> task list -> Violation.t list
(** Drain the tasks across [min domains (length tasks)] domains (the
    calling domain included), concatenating their results in an
    unspecified order.  Returns [[]] immediately — spawning nothing —
    when the list is empty or [gov] is already stopped on entry.  If a
    task raises, every spawned domain is still joined before
    [run_tasks] returns: it then re-raises the first exception, the
    calling domain's before the helpers' (in spawn order), so no domain
    outlives the call. *)
