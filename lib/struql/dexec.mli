(** Differential (semi-naive) evaluation of StruQL site queries — the
    Delta-StruQL engine.

    Where {!Exec} recomputes a site graph from scratch, this engine
    {e maintains} one under {!Sgraph.Delta} changes to the data graph,
    at O(change) cost and byte-identical to a cold full build.

    Each top-level block is classified with its nested subtree
    ({!Plan.delta_class}, the classifier [explain-analyze] and lint
    code SA070 also call): {e driven} blocks re-derive only the
    drivers — members of the driving collection — within the block's
    read depth of a touched object: a block whose subtree reads [k]
    hops past its driver re-derives the drivers at most [k] backward
    hops from the change (one breadth-first walk over the
    reverse-adjacency index, as deep as the deepest block reads, serves
    every block); {e fallback} blocks (aggregates,
    negation, enumerators, opaque externs, constant-anchored reads)
    replay in full, reason recorded, on a cycle whose delta can change
    what their subtree reads: a member of a footprint collection gained
    or lost, an edge of a footprint label added or removed, a node
    holding one resequenced, or either kind of extent reordered
    ({!Plan.delta_footprint}, {!Sgraph.Delta.t}); an opaque footprint,
    a changed plan or class, or delta evaluation switched off always
    replays.  Construction events
    are support-counted per (block, driver) and carry a canonical
    (block, driver-rank, sequence) position; touched out-buckets and
    collections re-sort by minimum position over supporters, which is
    exactly cold construction order.  Every derivation steps its rows
    through {!Exec}'s operators ({!Exec.stepper}), the engine a cold
    build runs.

    Typical use (the [strudel watch] loop):
    {[
      let dx = Dexec.create ~queries data in
      Dexec.prime dx;                        (* cold build, recorded *)
      ...mutate data / integrate sources...
      let ch = Dexec.apply dx delta in       (* O(change) maintenance *)
      ...re-render the pages that read ch.sc_touched...
    ]} *)

open Sgraph

type t

type counters = {
  mutable c_cycles : int;
  mutable c_drivers : int;  (** drivers (re-)derived *)
  mutable c_rows : int;  (** binding rows (re-)derived *)
  mutable c_events_added : int;  (** event records stored by derivations *)
  mutable c_events_removed : int;  (** event records retracted *)
  mutable c_events_live : int;
      (** events holding an id after the last prime or cycle: exactly
          the events some derivation still emits *)
  mutable c_event_ids : int;
      (** ids the event store has handed out, live or free: its
          high-water mark, as the last prime or cycle left it.  A
          drained id is handed out again before a new one. *)
  mutable c_fallback_replays : int;  (** ⊥-driver full block replays *)
  mutable c_full_rederives : int;  (** whole-block re-derivations *)
}

val create :
  ?options:Eval.options -> name:string -> queries:Ast.query list -> Graph.t ->
  t
(** An engine over the given data graph, maintaining a site graph named
    [name] (as {!Exec.run_all}'s); validates the queries when
    [options.validate] (the default).  Call {!prime} before {!apply}. *)

val prime : t -> unit
(** Cold-prime: plan, classify, and construct the site graph with a
    cold build's exact mutation sequence, through a {!Graph.Loader} as
    {!Exec.run_all} builds one, recording every construction event.
    The resulting {!site_graph} equals {!Exec.run_all}'s of the same
    queries in every listing. *)

val site_graph : t -> Graph.t
(** The maintained site graph, empty until {!prime}.  Owned by the
    engine: callers must not mutate it. *)

val scope : t -> Skolem.t
(** The Skolem scope naming the site graph's nodes. *)

val data_graph : t -> Graph.t

(** What one delta cycle changed in the site graph. *)
type site_change = {
  sc_touched : Oid.t list;
      (** exactly the site nodes this cycle created, plus those whose
          ordered out-edges or collection list differ from before the
          cycle — every node whose reads a page render could see
          change *)
  sc_removed : Oid.t list;  (** site nodes that no longer exist *)
  sc_drivers : int;  (** drivers re-derived this cycle *)
  sc_rows : int;  (** binding rows re-derived this cycle *)
  sc_fallbacks : (string * string) list;
      (** (block path, reason) of full block replays this cycle *)
  sc_structural : bool;
      (** a site node, or an edge whose target is a node, was net added
          or removed: the only changes that can move reachability or
          the families' links *)
  sc_labels : string list;
      (** the labels of the value edges net added or removed, and of
          every edge in an out-bucket the cycle re-sorted (re-sorting
          moves those edges to the end of their labels' extents): with
          [sc_structural], every label whose extent can differ *)
}

val apply : ?data:Graph.t -> t -> Delta.t -> site_change
(** Apply one data delta and bring the site graph up to date.  [data]
    swaps in a replacement data graph sharing surviving oids (the
    mediated path: the warehouse's new view and its
    {!Sgraph.Delta.diff} from the old one; the file-watch path: a
    {!Sgraph.Delta.rebase}d re-read); without it the engine's current
    graph is assumed already mutated (the direct path:
    {!Sgraph.Delta.Rec}).  When {!Exec.delta_enabled}
    is cleared, the cycle re-derives every block through the same
    machinery — still byte-identical, no longer O(change). *)

val counters : t -> counters

val classes : t -> (string * string) list
(** Per top-level block: (path, classification) — "static",
    "driven by Coll(v)", or "fallback: reason". *)

val fallbacks : t -> (string * string) list
(** The blocks that force full re-evaluation, with reasons — the
    [explain-analyze] / SA070 surface. *)

val pp_counters : Format.formatter -> counters -> unit
