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

(** A target's identity as a hashable key: oids by id, values
    structurally.  An edge's identity is (source id, label, [tkey] of
    its target); it is the key the graph's own edge set uses. *)
type tkey = Knode of int | Kval of Value.t

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

(** {1 Kernel snapshot}

    A graph can be {e frozen} into an immutable {!Csr.t} snapshot — the
    compiled form the path engine and attribute fast paths run on.
    Freezing is lazy and cached: the first call after any mutation
    builds the snapshot (O(V + E)); subsequent calls return it in O(1).
    Every mutation bumps the graph's generation, which makes
    outstanding snapshots invisible to {!snapshot} (readers fall back
    to the live structures) — a stale snapshot can never be observed
    through this API — and lets go of the graph's own hold on the last
    snapshot.  [freeze] is safe to call from multiple domains. *)

val generation : t -> int
(** Mutation counter; bumped by every node, edge and membership addition
    and removal and by a collection's creation, so a graph whose
    generation has not moved holds exactly what it held. *)

val freeze : t -> Csr.t
(** The snapshot for the current generation, building it if needed. *)

val snapshot : t -> Csr.t option
(** The cached snapshot, only if it is still valid ([None] after any
    mutation since the last {!freeze}).  Never builds. *)

val decode_tcode : Csr.t -> int -> target
(** The object behind a snapshot tcode (node index or interned value). *)

type kernel_counters = { freezes : int; hits : int; misses : int }

val kernel_counters : t -> kernel_counters
(** Cumulative kernel statistics: snapshot builds, and path-engine memo
    hits/misses (counted by {!Path} against this graph's snapshots). *)

val reset_kernel_counters : t -> unit
(** Zero the counters (outstanding snapshots share the record, so their
    future hits/misses count against the fresh baseline).  Used by
    [explain-analyze] and the shard observability surfaces to report
    per-run deltas deterministically. *)

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

val copy : ?name:string -> t -> t
val merge_into : dst:t -> src:t -> unit
(** Adds all nodes, edges and collections of [src] to [dst] (objects are
    shared, not copied — graphs of one database may share objects). *)

val pp_stats : Format.formatter -> t -> unit
