(** Frozen structure-of-arrays snapshot of a staged graph.

    Dense node/edge indexes, interned labels, CSR adjacency both ways and
    encoded property pools — the read-only substrate the compiled
    validation kernels run on (see {!Symtab} for the interning contract).

    All integer columns are off-heap [Bigarray] arrays ([ints]), and the
    two {!Props} pools hold pointer-free bytes: the GC never scans
    either, they are shared across domains without copying, and a
    persisted snapshot ({!Snapshot_io}) maps them straight from disk.  A
    property value is decoded only when a rule reads it.

    The out segment of node [i] is [out_adj.{out_start.{i}} ..
    out_adj.{out_start.{i+1} - 1}], sorted by (edge label, target index,
    edge id); the in segment is sorted by (edge label, source index, edge
    id).  Kernels only
    rely on equal labels being {e contiguous} within a segment (run
    scans), never on the numeric order of label ids — which is what lets
    {!Snapshot_io.load} remap symbols without re-sorting the CSR. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** An off-heap vector of native ints. *)

type t = {
  n : int;
  m : int;
  node_id : ints;
  edge_id : ints;
  node_label : ints;
  edge_label : ints;
  edge_src : ints;
  edge_tgt : ints;
  node_props : Props.t;
  edge_props : Props.t;
  out_start : ints;
  out_adj : ints;
  in_start : ints;
  in_adj : ints;
}

exception Build_error of string
(** Equal to {!Staging.Build_error}: the graph under {!build} is not a
    well-formed Property Graph — an edge endpoint is missing from the
    node set, or two nodes share an external id (which would silently
    re-bind every edge of the first to the last).  [build] detects both
    instead of escaping with [Not_found] or mis-wiring the CSR. *)

val freeze : Symtab.t -> Staging.t -> t
(** Freeze staged columns: translate their labels and property keys
    into the symbol table (interning the ones it lacks, so the table is
    mutated) and build the CSR.  The staged property pools are handed
    over as they are, with a translation into the table.  Symbols are
    first met in a fixed order — node labels, edge labels, then each
    vector's property keys by name — so freezing a staged PGF document
    and {!build}ing the graph it describes assign the same ids and yield
    equal columns.  The result is safe to share across domains. *)

val build : Symtab.t -> Property_graph.t -> t
(** [freeze st (Staging.of_graph g)].
    @raise Build_error on dangling edge endpoints or duplicate node ids. *)

val rebase : src:Symtab.t -> Symtab.t -> t -> t
(** [rebase ~src st snap] re-expresses a snapshot frozen against [src]
    in the ids of [st], interning every name of [src] into [st] in id
    order — the writer-id to reader-id translation {!Snapshot_io.load}
    applies to a file.  Label columns are copied and remapped; the
    property pools get a composed translation and share their bytes; the
    CSR is shared, since a remap keeps equal labels contiguous.  This
    lets a graph be frozen against a private table and attached to a
    shared one later, for just the cost of the remap. *)

val remap_labels : (int -> int) -> ints -> ints
(** A fresh label column with every id mapped. *)
