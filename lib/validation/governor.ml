(* Resource budgets and metered runs.  See governor.mli for the model.

   The cost discipline matters more than the feature set here: the five
   engines call [tick]/[stopped] inside their hottest loops, and an
   unlimited budget must not slow them down or perturb their output.  Two
   mechanisms keep it free:

   - [start unlimited] returns the shared inert [no_run], and every
     engine checks [active run] once per pass, falling back to its
     original un-metered loop.  The budgeted code is never on the
     unbudgeted path.
   - Even on the budgeted path, wall-clock polling ([Unix.gettimeofday])
     is strided: [tick] looks at the clock every 256th element and at
     element 0 (so a 0 ms deadline stops before any work). *)

type t = {
  b_deadline_ms : float option;
  b_max_violations : int option;
  b_cancel : bool Atomic.t;
  b_cancellable : bool;
      (* distinguishes "caller handed us a flag" from the dummy we
         allocate ourselves: a budget with only a cancel flag is still
         active, one with only the dummy is unlimited *)
}

let make ?deadline_ms ?max_violations ?cancel () =
  (match deadline_ms with
  | Some d when d < 0.0 -> invalid_arg "Governor.make: negative deadline_ms"
  | _ -> ());
  (match max_violations with
  | Some m when m < 0 -> invalid_arg "Governor.make: negative max_violations"
  | _ -> ());
  {
    b_deadline_ms = deadline_ms;
    b_max_violations = max_violations;
    b_cancel = (match cancel with Some c -> c | None -> Atomic.make false);
    b_cancellable = Option.is_some cancel;
  }

let unlimited = make ()

let is_unlimited b =
  b.b_deadline_ms = None && b.b_max_violations = None && not b.b_cancellable

let deadline_ms b = b.b_deadline_ms
let with_deadline_ms b ms = { b with b_deadline_ms = Some (Float.max ms 0.0) }
let cancel b = Atomic.set b.b_cancel true

type run = {
  r_active : bool;
  r_deadline : float; (* absolute seconds; [infinity] = none *)
  r_max_violations : int; (* [max_int] = none *)
  r_cancel : bool Atomic.t;
  r_stop : bool Atomic.t;
  r_found : int Atomic.t;
  r_node_scans : int Atomic.t;
  r_edge_scans : int Atomic.t;
}

let no_run =
  {
    r_active = false;
    r_deadline = infinity;
    r_max_violations = max_int;
    r_cancel = Atomic.make false;
    r_stop = Atomic.make false;
    r_found = Atomic.make 0;
    r_node_scans = Atomic.make 0;
    r_edge_scans = Atomic.make 0;
  }

let start b =
  if is_unlimited b then no_run
  else
    {
      r_active = true;
      r_deadline =
        (match b.b_deadline_ms with
        | None -> infinity
        | Some ms -> Unix.gettimeofday () +. (ms /. 1000.0));
      r_max_violations =
        (match b.b_max_violations with None -> max_int | Some m -> m);
      r_cancel = b.b_cancel;
      r_stop = Atomic.make false;
      r_found = Atomic.make 0;
      r_node_scans = Atomic.make 0;
      r_edge_scans = Atomic.make 0;
    }

let active run = run.r_active
let stop_now run = if run.r_active then Atomic.set run.r_stop true

let stopped run =
  run.r_active
  && (Atomic.get run.r_stop
     ||
     if Atomic.get run.r_cancel then (
       Atomic.set run.r_stop true;
       true)
     else false)

let expired run =
  stopped run
  ||
  (* [>=]: at a 0 ms deadline the clock may not have moved since
     [start], and the run must still stop before any work *)
  if run.r_deadline < infinity && Unix.gettimeofday () >= run.r_deadline then (
    Atomic.set run.r_stop true;
    true)
  else false

let tick run k =
  if not run.r_active then false
  else if stopped run then true
  else if k land 255 = 0 then expired run
  else false

let note_found run n =
  if run.r_active && n > 0 then
    let before = Atomic.fetch_and_add run.r_found n in
    if before + n >= run.r_max_violations then Atomic.set run.r_stop true

let note_node_scans run n =
  if run.r_active && n > 0 then ignore (Atomic.fetch_and_add run.r_node_scans n)

let note_edge_scans run n =
  if run.r_active && n > 0 then ignore (Atomic.fetch_and_add run.r_edge_scans n)

(* Rule bodies only ever cons onto the accumulator they are given, so the
   new findings of a pass are exactly the cells that sit in front of the
   old list: walk [acc'] until we hit [acc] *physically*.  O(added) with
   a single pointer comparison when nothing was added. *)
let added acc' acc =
  let rec go n l = if l == acc then n else match l with
    | [] -> n (* acc must have been [] too; count is complete *)
    | _ :: tl -> go (n + 1) tl
  in
  go 0 acc'

let complete run = not (run.r_active && Atomic.get run.r_stop)
let found run = Atomic.get run.r_found
let node_scans run = Atomic.get run.r_node_scans
let edge_scans run = Atomic.get run.r_edge_scans
let exhausted_reason = "budget exhausted"
