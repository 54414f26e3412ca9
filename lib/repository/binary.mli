(** A compact binary storage representation for semistructured data
    (§6's "efficient storage representations" open problem).

    Stores a graph schema-free but compactly: one string table (labels,
    names and string values interned once), varint ids, a flat edge
    list in insertion order; indexes are rebuilt on load per the
    repository's full-indexing policy (§2.2), so a decoded graph lists
    its out-edges, label extents, value index and incoming edges in the
    encoded graph's order.  Deterministic (no [Marshal]) and versioned
    by magic. *)

open Sgraph

exception Corrupt of string * int
(** Malformed input: what was wrong, and the byte offset at which the
    decoder detected it (so a truncated or bit-flipped file can be
    triaged without a hex dump). *)

val encode : Graph.t -> string
val decode : ?indexed:bool -> string -> Graph.t
(** Raises {!Corrupt} on malformed input (bad magic, truncation,
    out-of-range indexes, trailing bytes). *)

val save : path:string -> Graph.t -> unit
val load : ?indexed:bool -> path:string -> unit -> Graph.t

(** {1 Codec primitives}

    Shared with the mmap-able {!Segment} format, so both formats agree
    on varint and atomic-value encodings and raise the same {!Corrupt}
    exception. *)

val put_varint : Buffer.t -> int -> unit
(** LEB128 over the 63-bit unsigned word; any bit pattern round-trips. *)

type reader = { src : string; mutable pos : int }

val get_varint : reader -> int
(** Raises {!Corrupt} with the reader's byte offset on truncation. *)

type interner
(** A write-side string table: first occurrence assigns the next id. *)

val interner : unit -> interner
val intern : interner -> string -> int
val interner_strings : interner -> string list
(** The interned strings in id order. *)

val put_value : Buffer.t -> interner -> Value.t -> unit
val get_value : reader -> string array -> Value.t
(** Decode one value against a string table; raises {!Corrupt} (bad
    tag, string index out of range, truncation) with byte offsets
    relative to the reader's string. *)
