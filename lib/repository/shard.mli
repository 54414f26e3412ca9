(** The sharded repository: partitioning, segments on disk, manifests
    and pinned snapshots.

    The mediated graph is partitioned by collection or Skolem family
    into shards.  A shard is itself a graph sharing the union's oids:
    it holds its member nodes (plus {e ghost} stubs for foreign edge
    targets), every out-edge of a member, and each member's collection
    entries — so a collection whose members fall in several shards
    appears, split, in each of them.  Publishing writes every shard to
    a {!Segment} under the repository directory and then atomically
    replaces the [MANIFEST] file, which names the current epoch's
    segment set; a reader that opened the previous manifest keeps a
    fully consistent (if stale) repository.

    Each shard's segment carries the global node ids and sequence
    numbers the union gives its elements ({!Segment.whole}), so
    {!open_dir} re-assembles the union of a cold repository
    deterministically: nodes in global-id order, edges and collection
    members replayed in sequence order.  An edge's sequence number is
    its place in the published graph's edge log (insertion order), so
    the re-assembled union lists every label extent, value index and
    incoming bucket in the published graph's order, and a query over it
    answers as over that graph. *)

open Sgraph

(** Partition key: a node's primary collection (first collection, in
    the union's collection order, that contains it), or the Skolem
    family of its oid name (["YearPage(1997)"] → ["YearPage"]).  Either
    spec falls back to the other key and then to the ["rest"] shard. *)
type spec = By_collection | By_family

val spec_name : spec -> string
val spec_of_name : string -> spec option

type config = {
  dir : string;  (** repository directory; created on first publish *)
  cfg_spec : spec;
}

val family_of_name : string -> string option
(** The Skolem family of an oid name, if it has the shape
    ["Family(...)"].  *)

val shard_key : spec -> primary:(Oid.t -> string option) -> Oid.t -> string
(** The shard key of a node given its primary-collection lookup. *)

val partition : spec -> Graph.t -> (string * Graph.t) list
(** Split a graph into shard graphs, in first-touch key order.  Shard
    graphs share the union's oids; every node, edge and collection
    entry of the input appears in exactly one shard (ghost stubs
    excepted), in the input's insertion order. *)

(** {1 Manifest} *)

exception Manifest_error of string

type entry = {
  e_name : string;  (** shard key *)
  e_file : string;  (** segment file name, relative to the directory *)
  e_collections : string list;
  e_labels : string list;
  e_nodes : int;  (** including ghost stubs *)
  e_edges : int;
  e_bytes : int;
}

type manifest = {
  m_epoch : int;
  m_spec : spec;
  m_graph : string;  (** the union graph's name *)
  m_sources : (string * int) list;  (** source name → version at publish *)
  m_entries : entry list;
}

val manifest_file : string
(** ["MANIFEST"], under the repository directory. *)

val load_manifest : dir:string -> manifest
(** Raises {!Manifest_error} on a missing or malformed manifest. *)

val pp_manifest : Format.formatter -> manifest -> unit

(** {1 Snapshots} *)

type snapshot = {
  sn_epoch : int;
  sn_manifest : manifest;  (** its entries describe the shards *)
  sn_union : Graph.t;
}

val publish :
  config ->
  epoch:int ->
  ?sources:(string * int) list ->
  Graph.t ->
  snapshot
(** Number the graph once ({!Segment.whole}), partition it, write one
    segment per shard ([<key>.<epoch>.seg]), then swap the manifest in
    ({!Segment.write_file}).  The returned snapshot's union is the
    argument itself — no segment is read back, and the partitions are
    not kept. *)

val open_dir : dir:string -> unit -> snapshot
(** Load a cold repository: read the manifest, decode every segment
    and re-assemble the union graph ({!Segment.to_graph}).  Raises
    {!Manifest_error} or {!Segment.Corrupt}. *)
