(** Data-graph deltas: node / edge / collection adds and removes
    between two states of a graph, plus the order signals differential
    evaluation needs (out-bucket resequencing, collection reordering,
    label-extent reordering).

    Produced either exactly by the {!Rec} recording mutator (direct
    watch mode) or structurally by {!diff} over two graphs sharing
    oids: two integrations of the warehouse (mediated mode; source
    reloads are {!rebase}d and Skolem oids reused, so surviving
    objects keep their oids), or a re-read file {!rebase}d onto the
    previous graph by node name (file-watch mode). *)

type edge = Oid.t * string * Graph.target

type t = {
  nodes_added : Oid.t list;
  nodes_removed : Oid.t list;
  edges_added : edge list;
  edges_removed : edge list;
  coll_added : (string * Oid.t) list;
  coll_removed : (string * Oid.t) list;
  resequenced : Oid.t list;
      (** nodes whose out-bucket kept its edge set but changed order *)
  reordered : string list;
      (** collections whose surviving members changed relative order *)
  label_reordered : string list;
      (** labels whose surviving edges changed relative order in the
          label's extent ({!Graph.label_extent}): the order a scan of
          the label yields its rows in.  Only {!diff} reports it; a
          recorded live graph never reorders. *)
}

val empty : t
val is_empty : t -> bool

val card : t -> int
(** Number of elementary changes (order signals count once each). *)

val union : t -> t -> t

val touched : t -> Oid.Set.t
(** Every oid whose local neighbourhood the delta touches: endpoints
    of changed edges, changed members, added/removed/resequenced
    nodes. *)

val closure : depth:int -> Graph.t -> t -> int Oid.Map.t
(** Backward closure of {!touched} by hop distance: every node that can
    forward-reach a touched element in at most [depth] hops ([max_int]:
    any number), mapped to its fewest hops, walking the graph's
    incoming edges {e plus} the reverse of the removed edges (which the
    post-change graph no longer holds).  These are the candidate
    drivers of differential re-evaluation: a block that reads [k] hops
    past its driver re-derives the drivers at distance [k] or less.
    [g] is the post-change graph. *)

val diff : old:Graph.t -> Graph.t -> t
(** Oid-keyed structural diff.  Only meaningful when both graphs share
    oids for surviving objects (see {!rebase}). *)

val rebase : old:Graph.t -> Graph.t -> Graph.t
(** Replay [g] (a freshly integrated graph) into a new graph in which
    every node whose name uniquely matches a node of [old] reuses the
    old oid.  Insertion order — node order, per-node out-bucket order,
    collection extent order, and the order of every label-extent,
    value-index and incoming-edge bucket — is exactly [g]'s, so the
    result is an order-faithful copy of [g] over stable oids.  Nodes
    with duplicated names (in either graph) are conservatively treated
    as new. *)

(** A recording mutator over a live graph: each operation applies to
    the graph and accumulates the exact delta.  No-op mutations (e.g.
    adding a present edge) record nothing. *)
module Rec : sig
  type r

  val create : Graph.t -> r
  val graph : r -> Graph.t
  val add_node : r -> Oid.t -> unit
  val remove_node : r -> Oid.t -> unit
  val add_edge : r -> Oid.t -> string -> Graph.target -> unit
  val remove_edge : r -> Oid.t -> string -> Graph.target -> unit
  val add_to_collection : r -> string -> Oid.t -> unit
  val remove_from_collection : r -> string -> Oid.t -> unit

  val set_value : r -> Oid.t -> string -> Value.t -> unit
  (** Replace the node's atomic values under [label] with the single
      value [v] (a data-file-style attribute update). *)

  val flush : r -> t
  (** The delta accumulated since creation or the last flush; resets
      the accumulator. *)
end

val pp : Format.formatter -> t -> unit
