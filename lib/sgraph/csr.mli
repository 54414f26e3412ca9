(** Immutable CSR snapshots of a {!Graph}.

    A snapshot is the compiled, integer-indexed form of a graph at one
    generation: nodes are renumbered [0..n_nodes-1] in {!Graph.nodes}
    order, atomic values are interned per snapshot as
    [n_nodes..n_nodes+n_values-1] in first-appearance order, and labels
    keep the graph's own dense index, in first-seen order.  Edge
    targets are {e tcodes} drawn from that combined space.

    The snapshot carries

    {ul
    {- a forward CSR ([fwd_off]/[fwd_lab]/[fwd_tgt]) in exact edge
       insertion order per source — the order every legacy traversal
       observes;}
    {- per-(node, label) segments ([seg]/[seg_tgt]) so attribute
       lookups are a table hit plus an array slice, still in insertion
       order;}
    {- a reverse CSR ([rev_off]/[rev_src]/[rev_lab]) over all tcodes,
       used by the backward lane of the path engine (order here is
       node-major, not chronological — never exposed to clients that
       need insertion order);}
    {- per-label degree counts ([label_edges]/[label_srcs]) feeding
       direction choice and the planner's cost model;}
    {- a [cache] keyed by compiled-NFA id where {!Path} installs its
       prepared dispatch tables ([cache] is an extensible variant so
       this module does not depend on the path engine).}}

    Snapshots are built by {!Graph.freeze} and validated by comparing
    [gen] against the graph's mutation generation: any mutation makes
    every outstanding snapshot invisible (readers fall back to the
    live structures), never wrong. *)

type kstats = {
  freezes : int Atomic.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
}
(** Kernel counters, shared by reference between a graph and all its
    snapshots so deltas survive re-freezes (surfaced by
    [explain-analyze]).  Atomic: memo hits/misses are bumped from
    worker domains during parallel shard scans while the profiler
    reads them from the main domain. *)

val kstats_create : unit -> kstats

type cache = ..
(** Extension point for per-snapshot compiled artifacts (see {!Path}). *)

type t = {
  gen : int;            (** graph generation this snapshot reflects *)
  uid : int;            (** process-unique snapshot id *)
  stats : kstats;
  n_nodes : int;
  node_ids : Oid.t array;              (** index → oid, {!Graph.nodes} order *)
  idx_of_node : int Oid.Tbl.t;         (** oid → index *)
  n_values : int;
  values : Value.t array;              (** value tcode - n_nodes → value *)
  n_labels : int;
  label_names : string array;          (** local label → label string *)
  local_of_label : (string, int) Hashtbl.t;
  fwd_off : int array;                 (** length [n_nodes + 1] *)
  fwd_lab : int array;                 (** per edge: local label *)
  fwd_tgt : int array;                 (** per edge: target tcode *)
  seg : (int, int * int) Hashtbl.t;    (** node·n_labels+label → (off, len) *)
  seg_tgt : int array;                 (** segment targets, insertion order *)
  rev_off : int array;                 (** length [n_nodes + n_values + 1] *)
  rev_src : int array;                 (** per in-edge: source node index *)
  rev_lab : int array;                 (** per in-edge: local label *)
  label_edges : int array;             (** local label → edge count *)
  label_srcs : int array;              (** local label → distinct source count *)
  cache : (int, cache) Hashtbl.t;
}

val fresh_uid : unit -> int

val node_index : t -> Oid.t -> int option
val label_local : t -> string -> int option
val tcode_is_node : t -> int -> bool
val out_degree : t -> int -> int
val in_degree : t -> int -> int
(** In-degree of a tcode (node or value). *)

val seg_range : t -> int -> int -> (int * int) option
(** [(offset, length)] into [seg_tgt] of the (node index, local label)
    segment, if any edge with that label leaves the node. *)
