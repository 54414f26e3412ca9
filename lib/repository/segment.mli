(** Graph segments: the repository's one on-disk graph format (the
    stored data and site graphs of §2.2, and an answer to §6's "efficient
    storage representations for semistructured data").

    A segment stores a graph schema-free but compactly: one string table
    (labels, names and string values interned once), varint indexes, the
    nodes with their names, the edges in insertion order and the
    collections with their members, behind a header carrying a format
    version and an FNV-1a checksum of the body.  Indexes are rebuilt on
    load, per the repository's full-indexing policy. *)

open Sgraph

exception Corrupt of string * int
(** Malformed input: what was wrong, and the absolute byte offset at
    which the decoder detected it. *)

val magic : string
(** The first 8 bytes of every segment. *)

(** {1 Writing} *)

val encode : ?epoch:int -> Graph.t -> string
(** Serialize a graph ([epoch] defaults to 0), with a ["graph"] meta
    entry naming it. *)

val write : path:string -> ?epoch:int -> Graph.t -> int
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
    {!Corrupt} on bad magic, an unknown version or numbering flag,
    truncation, trailing bytes, a checksum mismatch, an out-of-range
    index or an unknown tag.  A segment whose numbering flag is 1 (a
    partition of a sharded repository, which this format no longer
    has) raises {!Corrupt} at the flag's offset. *)

val read : path:string -> unit -> t
(** [of_string] of a file's contents. *)

val size_bytes : t -> int
val epoch : t -> int

val to_graph : ?name:string -> t -> Graph.t
(** A fresh graph from a segment: its nodes, edges and collections
    (an empty one too) in the order the saved graph lists them, so the
    graph lists every index in that order.  The name defaults to the
    segment's ["graph"] meta entry. *)
