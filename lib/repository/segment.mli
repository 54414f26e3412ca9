(** Graph segments: the repository's one on-disk graph format (the
    stored data and site graphs of §2.2, and an answer to §6's "efficient
    storage representations for semistructured data").

    A segment stores a graph schema-free but compactly: one string table
    (labels, names and string values interned once), varint indexes, the
    nodes with their names, the edges in sequence order and the
    collections with their members, behind a header carrying a format
    version and an FNV-1a checksum of the body.  Indexes are rebuilt on
    load, per the repository's full-indexing policy.

    Every element has a global id (a node) or a sequence number (an
    edge, a collection entry) in the {e whole} graph it belongs to.  A
    standalone graph is its own whole: its numbers follow from its own
    order and cost no bytes.  A shard of a {!Shard} repository holds a
    sparse subset of the union's elements and carries its numbers, so
    {!to_graph} re-assembles the union in the order it was published
    in. *)

open Sgraph

exception Corrupt of string * int
(** Malformed input: what was wrong, and the absolute byte offset at
    which the decoder detected it. *)

val magic : string
(** The first 8 bytes of every segment. *)

(** {1 Writing} *)

type whole
(** A graph numbered as the whole that shards are cut from: nodes by
    their place in {!Graph.nodes}, edges by their place in the edge log
    (insertion order), collection entries collection-major. *)

val whole : Graph.t -> whole
(** Number a graph, once per publish. *)

val encode :
  ?epoch:int -> ?meta:(string * string) list -> ?whole:whole -> Graph.t ->
  string
(** Serialize a graph ([epoch] defaults to 0; [meta] is carried as is,
    after a ["graph"] entry naming the graph).  Without [whole] the
    graph is its own whole.  With [whole] the graph must be a shard of
    it, as {!Shard.partition} cuts one: its nodes are [whole]'s, each of
    its edge sources has all of its out-edges in [whole], and its edges
    and collection entries run in [whole]'s order; raises
    [Invalid_argument] otherwise. *)

val write :
  path:string -> ?epoch:int -> ?meta:(string * string) list -> ?whole:whole ->
  Graph.t -> int
(** [encode] to a file through {!write_file}; returns the byte size. *)

val write_file : path:string -> string -> unit
(** Write a repository file: to [path ^ ".tmp"], then renamed over
    [path], so a reader sees the old file or the new one, never a torn
    one.  On a failed write the temporary is removed. *)

(** {1 Reading} *)

type t
(** A decoded segment. *)

val of_string : string -> t
(** Decode a segment, checking the checksum and every byte; raises
    {!Corrupt} on bad magic, an unknown version, truncation, trailing
    bytes, a checksum mismatch, an out-of-range index or an unknown
    tag. *)

val read : path:string -> unit -> t
(** [of_string] of a file's contents. *)

val size_bytes : t -> int
val epoch : t -> int

val to_graph : ?name:string -> t list -> Graph.t
(** A fresh graph from segments that number one whole: one standalone
    segment, or the shards of a repository.  Nodes come in global-id
    order (a shard's ghost stub and the node's home record must agree
    on its name, else {!Corrupt}), then edges and collection entries
    replayed in sequence order, so the graph lists every index in the
    whole's order.  A standalone segment also declares its collections
    in order, an empty one too; shards hold no empty collection.  The
    name defaults to the first segment's ["graph"] meta entry. *)
