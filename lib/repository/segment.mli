(** Mmap-able binary shard segments — the int-coded form of one
    repository shard.

    A segment persists a graph in a node-major int-coded layout
    (interned symbol table, forward and reverse adjacency, value heap),
    built from the live graph at publish time and written as
    fixed-width little-endian [int64] sections behind a checksummed
    header, so a reader can either decode the whole file or map it and
    index sections in place without parsing.  Alongside the adjacency
    arrays a segment records what the plain {!Binary} format cannot:
    each node's {e global id} (its position in the mediated union
    graph) and per-element {e sequence numbers} for edges and
    collection members, which let {!Shard} re-assemble a multi-segment
    repository into a union graph whose iteration orders are
    deterministic.

    All malformed-input errors raise {!Binary.Corrupt} carrying the
    absolute byte offset at which the reader gave up. *)

open Sgraph

val magic : string
(** ["SGSEG001"]; the first 8 bytes of every segment file. *)

(** {1 Writing} *)

val encode :
  ?epoch:int ->
  ?meta:(string * string) list ->
  gid:(Oid.t -> int) ->
  edge_seq:(Oid.t -> int -> int) ->
  coll_seq:(string -> int -> int) ->
  Graph.t ->
  string
(** Serialize the graph.  [gid] maps each node
    to its global id; [edge_seq node k] gives the global sequence
    number of the node's [k]-th outgoing edge (insertion order);
    [coll_seq c k] that of collection [c]'s [k]-th member.  [meta] keys
    and values must not contain ['\n'] (or ['='] in keys). *)

val write :
  path:string ->
  ?epoch:int ->
  ?meta:(string * string) list ->
  gid:(Oid.t -> int) ->
  edge_seq:(Oid.t -> int -> int) ->
  coll_seq:(string -> int -> int) ->
  Graph.t ->
  int
(** [encode] to a file (written to a temporary name, then renamed into
    place); returns the byte size. *)

val edge_log_seq : Graph.t -> Oid.t -> int -> int
(** [edge_log_seq g] numbers [g]'s edges for [edge_seq] by their ids in
    [g]'s edge log: [edge_log_seq g o k] is the id of node [o]'s [k]-th
    out-edge, and sequence order is insertion order. *)

val write_graph :
  path:string -> ?epoch:int -> ?meta:(string * string) list -> Graph.t -> int
(** [write] with canonical standalone numbering — the single-shard (or
    testing) case: global ids are node positions, edge sequence
    numbers {!edge_log_seq}, and member sequence numbers the
    collection-major member positions. *)

(** {1 Reading} *)

type t
(** An open segment: either fully loaded bytes or a live memory map.
    Accessors validate on touch and raise {!Binary.Corrupt} with
    absolute byte offsets. *)

val of_string : ?verify:bool -> string -> t
val read : ?verify:bool -> path:string -> unit -> t
(** Load the whole file into memory.  [verify] (default [true]) also
    checks the body checksum. *)

val map : ?verify:bool -> path:string -> unit -> t
(** Memory-map the file ([Unix.map_file], read-only).  With
    [~verify:false] only the header and section geometry are validated
    — no body page is touched until accessed, which is the
    cold-metadata fast path the bench measures. *)

(** {1 Accessors} *)

val size_bytes : t -> int
val version : t -> int
val generation : t -> int
(** The source graph's mutation generation when it was written. *)

val epoch : t -> int
val node_count : t -> int
val value_count : t -> int
val edge_count : t -> int
val label_count : t -> int
val member_count : t -> int

val label_name : t -> int -> string
val node_gid : t -> int -> int
val node_name : t -> int -> string
val value : t -> int -> Value.t
val collections : t -> string list
val meta : t -> (string * string) list

(** An edge target, resolved within the segment. *)
type etarget = T_node of int  (** local node index *) | T_value of Value.t

val iter_edges : t -> (int -> int -> string -> etarget -> unit) -> unit
(** [iter_edges t f] calls [f seq src_index label target] for every
    edge, node-major in per-source insertion order. *)

val iter_members : t -> (int -> string -> int -> unit) -> unit
(** [iter_members t f] calls [f seq collection member_index] for every
    collection membership, collection-major in insertion order. *)

val to_graph : ?indexed:bool -> ?name:string -> t -> Graph.t
(** Materialize the segment as a fresh graph: nodes in stored order
    (names preserved, fresh oids), then edges and then collection
    members replayed in sequence order.  A {!write_graph} segment reads
    back with every index in the written graph's order, as a
    {!Binary.decode} does. *)

val validate : t -> unit
(** Walk every section (strings, values, adjacency in both directions,
    collections, meta) raising {!Binary.Corrupt} at the first
    malformed byte; used by [strudel repo status --check] and the
    corruption fuzz suite. *)
