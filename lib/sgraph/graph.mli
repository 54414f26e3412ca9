(** Labeled directed graphs — the semistructured data model.

    A graph consists of objects connected by directed edges labeled with
    string-valued attribute names.  Objects are either internal nodes,
    identified by an {!Oid.t}, or atomic {!Value.t}s.  Objects are
    grouped into named collections; an object may belong to several
    collections, and objects of one collection may have different
    attribute sets (the model is schema-less).

    Graphs are mutable.  When [indexed] (the default), the graph
    maintains the full set of indexes the paper describes for the data
    repository: the extent of every attribute label, the extent of every
    collection, a value index global to the graph, and an incoming-edge
    index.  With [~indexed:false] those lookups fall back to full scans
    of the edges (used by the indexing ablation bench); a scan answers
    in the same order as the index.

    Every listing is in a fixed order, which the system's output
    depends on down to Skolem oid allocation: nodes, collection members
    and edges in insertion order (a removed and re-added one counts
    from its re-insertion), labels and collections in first-seen
    order. *)

type target =
  | N of Oid.t      (** an internal object *)
  | V of Value.t    (** an atomic value *)

type t

val target_equal : target -> target -> bool
val target_compare : target -> target -> int
val pp_target : Format.formatter -> target -> unit

(** A target's identity as a key for the polymorphic hash and compare:
    oids by id, values structurally, except [-0.0], which they would
    take for [0.0]: two targets have one key exactly when
    {!target_equal} holds.  An edge's identity is (source id, label,
    [tkey] of its target), as in the graph's own edge set. *)
type tkey = Knode of int | Kval of Value.t | Kneg_zero

val tkey : target -> tkey

val create : ?indexed:bool -> ?name:string -> unit -> t
val name : t -> string
val indexed : t -> bool

(** {1 Nodes} *)

val add_node : t -> Oid.t -> unit
val new_node : t -> string -> Oid.t
(** [new_node g hint] allocates a fresh oid named [hint] and adds it. *)

val mem_node : t -> Oid.t -> bool
val nodes : t -> Oid.t list
(** In insertion order; a node removed and added again goes last. *)

val iter_nodes : (Oid.t -> unit) -> t -> unit
(** Every node, in {!nodes} order, without building the list. *)

val node_count : t -> int

val find_node : t -> string -> Oid.t option
(** Look up a node by its oid name (first added wins). *)

val names_shared : t -> bool
(** [true] once a node was added under a name a node of the graph held
    at the time: {!find_node} then answers for one of them only.
    Removals do not reset it. *)

(** {1 Edges} *)

val add_edge : t -> Oid.t -> string -> target -> unit
(** Adds the edge if not already present; both endpoints are added as
    nodes when they are oids. *)

val remove_edge : t -> Oid.t -> string -> target -> unit
val has_edge : t -> Oid.t -> string -> target -> bool
val edge_count : t -> int

val out_edges : t -> Oid.t -> (string * target) list
(** Outgoing edges in insertion order. *)

val in_edges : t -> target -> (Oid.t * string) list
(** Incoming edges of an object (or of an atomic value), in the order
    the edges were inserted. *)

val attr : t -> Oid.t -> string -> target list
(** All targets of edges labeled [label] leaving the node, in insertion
    order. *)

val fold_attr : t -> Oid.t -> string -> ('a -> target -> 'a) -> 'a -> 'a
val fold_out_edges :
  t -> Oid.t -> ('a -> string -> target -> 'a) -> 'a -> 'a
val fold_collections_of : t -> Oid.t -> ('a -> string -> 'a) -> 'a -> 'a
(** [List.fold_left] over {!attr}, {!out_edges} and {!collections_of},
    allocating nothing of their own. *)

val attr1 : t -> Oid.t -> string -> target option
(** First target of the attribute, if any. *)

val attr_value : t -> Oid.t -> string -> Value.t option
(** First atomic value of the attribute, if any. *)

val iter_edges : (Oid.t -> string -> target -> unit) -> t -> unit
(** Node-major: every node's out-bucket in order, nodes in insertion
    order. *)

val iter_edges_inserted : (Oid.t -> string -> target -> unit) -> t -> unit
(** Every edge in insertion order (an edge removed and added again
    counts from its re-insertion) — the order each label-extent,
    value-index and incoming-edge bucket keeps its edges in. *)

val fold_edges : (Oid.t -> string -> target -> 'a -> 'a) -> t -> 'a -> 'a

(** {1 Collections} *)

val declare_collection : t -> string -> unit
(** Create an empty collection unless it exists, fixing its place in
    {!collections} and so in every {!collections_of}. *)

val add_to_collection : t -> string -> Oid.t -> unit
val remove_from_collection : t -> string -> Oid.t -> unit
val in_collection : t -> string -> Oid.t -> bool
val collection : t -> string -> Oid.t list
(** Members in insertion order; empty for an unknown collection. *)

val collection_size : t -> string -> int
val collections : t -> string list
(** In the order first declared or used; an emptied collection stays. *)

val collections_of : t -> Oid.t -> string list
(** The node's collections, in {!collections} order. *)

(** {1 Schema and value indexes} *)

val labels : t -> string list
(** All attribute names that ever appeared in the graph (the schema
    index), in first-seen order; a label whose edges are all removed
    stays. *)

val label_extent : t -> string -> (Oid.t * target) list
(** All edges carrying the label, in the order they were inserted. *)

val label_count : t -> string -> int
val value_index : t -> Value.t -> (Oid.t * string) list
(** All (source, label) pairs of edges whose target is exactly this
    atomic value, in the order the edges were inserted.  Global to the
    graph, as in the paper. *)

(** {1 Comparing two graphs}

    Whether one listing of two graphs that share oids agrees entry by
    entry, in order — an oid by identity, a value by {!Value.equal} —
    without building either list. *)

val same_out_edges : t -> t -> Oid.t -> bool
(** The node's {!out_edges} in both graphs; [true] when neither holds
    the node. *)

val same_label_extent : t -> t -> string -> bool
(** The label's {!label_extent} in both graphs. *)

val same_collection : t -> t -> string -> bool
(** The collection's members ({!collection}) in both graphs. *)

(** {1 Generations}

    Readers on several domains may share a graph while nothing mutates
    it: every public read records a sanitizer read ({!Dsan.read}) of
    the graph, and every mutation a write, so a mutation racing a
    reader is reported when the sanitizer is armed. *)

val generation : t -> int
(** Mutation counter; bumped by every node, edge and membership addition
    and removal and by a collection's creation, so a graph whose
    generation has not moved holds exactly what it held.  {!Path}'s
    kernel keys its prepared state and memos to it. *)

type kernel_counters = { hits : int; misses : int }

val kernel_counters : t -> kernel_counters
(** Cumulative path-kernel memo hits and misses, counted by {!Path}
    against this graph. *)

val reset_kernel_counters : t -> unit
(** Zero the counters.  Used by [explain-analyze] and the shard
    observability surfaces to report per-run deltas deterministically. *)

(** {1 Whole-graph operations} *)

val remove_node : t -> Oid.t -> unit
(** Removes the node together with its outgoing edges, incoming edges
    and collection memberships.  The name table only forgets the name
    when it maps to this oid (first-added-wins: a later node sharing
    the name becomes unfindable by name rather than adopted). *)

val set_out_edges : t -> Oid.t -> (string * target) list -> unit
(** Replace the node's out-edge bucket with exactly [edges], in order.
    Implemented as remove-all / re-add, so every index stays
    consistent; the {e global} orders of the label/value/incoming
    indexes place the re-added edges last. *)

val set_collection : t -> string -> Oid.t list -> unit
(** Replace a collection's extent with exactly [members], in order. *)

val union : name:string -> t list -> t
(** A fresh graph, indexed as the first graph is, built by a {!Loader}
    from each graph in turn: its nodes in order, its edges in insertion
    order, then its collections in order (an empty one too) with their
    members.  Every
    edge listing, collection and member list keeps the graphs' order,
    a node, edge or membership they share entering where it first
    occurs.  Objects are shared, not copied (graphs of one database
    may share objects). *)

val copy : ?name:string -> t -> t
(** [union] of the graph alone, under its own name by default. *)

(** {1 Bulk loading}

    The one way to build a graph that starts empty and is only written
    until it is returned (a construction's fresh output, a copy, a
    union, a read-back).  Events assign slots, label ids and value ids
    and deduplicate edges as they arrive, as the per-event calls do;
    {!finish} then sizes every bucket (out-edges, incoming edges, label
    extents, the value index, member vectors) exactly and fills each
    in event order.  The result equals the graph the same events give
    one at a time through {!add_node}, {!add_edge},
    {!declare_collection} and {!add_to_collection}, in every listing
    and in its {!generation}.  Nothing can read the graph before
    [finish]. *)
module Loader : sig
  type graph := t
  type t

  val create : ?indexed:bool -> ?name:string -> unit -> t
  val add_node : t -> Oid.t -> unit
  val add_edge : t -> Oid.t -> string -> target -> unit
  val declare_collection : t -> string -> unit
  val add_to_collection : t -> string -> Oid.t -> unit

  val finish : t -> graph
  (** The loaded graph.  The loader is spent: any further call raises
      [Invalid_argument]. *)
end

val pp_stats : Format.formatter -> t -> unit

(** {1 Slot layout}

    The dense storage behind the listings above, read in place by
    {!Path}'s compiled kernel and the segment writer.  A node has a
    {e slot}: slots are numbered in {!nodes} order, with the slots of
    removed nodes left in place until the graph compacts.  An edge has
    an {e edge id} into the edge log, and its target a {e target key},
    which codes a node's slot or an atomic value's id.  Labels have ids
    in {!labels} order; a value has an id while some live edge points
    at it.  Every bucket holds edge ids in
    insertion order, and keeps dead ones (whose {!Slots.label} is [-1])
    until it is swept.

    Everything here is valid until the next mutation, that is while
    {!generation} stays put, and records no sanitizer read: a reader
    records one through {!generation} first. *)
module Slots : sig
  val is_node : int -> bool
  (** Whether a target key is a node's (else a value's). *)

  val index : int -> int
  (** The slot or value id behind a target key. *)

  val node_key : int -> int
  (** The target key of a slot. *)

  val value_key : int -> int
  (** The target key of a value id. *)

  val count : t -> int
  (** Slots in use, removed nodes' included. *)

  val find : t -> Oid.t -> int
  (** The node's slot, [-1] when it is not a node of the graph. *)

  val live : t -> int -> bool
  (** Whether the slot holds a node (not a removed one). *)

  val oid : t -> int -> Oid.t

  val out : t -> int -> int array
  (** The slot's out-bucket: edge ids, in insertion order; its first
      [out_len] entries are in use. *)

  val out_len : t -> int -> int

  val label : t -> int -> int
  (** The edge's label id; [-1] once the edge is dead. *)

  val target : t -> int -> int
  (** The edge's target key. *)

  val source : t -> int -> int
  (** The edge's source slot. *)

  val incoming : t -> int -> int array
  (** The incoming edge ids of a target key, in insertion order; its
      first [incoming_len] entries are in use.  Empty on a graph
      created with [~indexed:false]. *)

  val incoming_len : t -> int -> int

  val in_degree : t -> int -> int
  (** Live incoming edges of a target key (an indexed graph's). *)

  val label_count : t -> int
  val label_name : t -> int -> string

  val value_count : t -> int
  (** Value ids in use, freed ones included. *)

  val value_live : t -> int -> bool
  val value : t -> int -> Value.t

  val decode : t -> int -> target
  (** The object behind a target key: the node, or the value as the
      graph interned it (the first of its {!Value.equal} class). *)

  val hit : t -> unit
  val miss : t -> unit
  (** Count a path-kernel memo hit or miss ({!kernel_counters}). *)
end
