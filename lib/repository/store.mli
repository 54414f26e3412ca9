(** The data repository for semistructured data (§2.2): a catalog of
    named graphs with persistence.

    Unlike a traditional system, the repository cannot rely on schema
    information to organize data; instead graphs are fully indexed
    (collection and attribute extents, global value index, schema
    index) — the indexes live in {!Sgraph.Graph} and are rebuilt when a
    graph loads.  Persistence is the human-readable DDL or the compact
    {!Segment} format. *)

open Sgraph

type t

exception Not_found_graph of string

val create : unit -> t
val put : t -> Graph.t -> unit
(** Catalog a graph under its own name, replacing any previous graph of
    that name. *)

val get : t -> string -> Graph.t
val get_opt : t -> string -> Graph.t option
val names : t -> string list
val mem : t -> string -> bool
val remove : t -> string -> unit

val dump_graph : Graph.t -> string
(** The DDL text of a graph. *)

val load_graph : name:string -> string -> Graph.t

val save_dir : ?format:[ `Ddl | `Segment ] -> t -> dir:string -> unit
(** Persist every graph below [dir] as [<name>.ddl] or [<name>.seg],
    each through {!Segment.write_file}; once a file is in place, the
    other format's file of the same name is removed. *)

val load_dir : dir:string -> t
(** Load every [*.ddl] and [*.seg] file of [dir], each graph under its
    file's name.  Raises [Failure] naming both files when one name has
    a [.ddl] and a [.seg] file, which only an interrupted {!save_dir}
    leaves. *)

val reload : Graph.t -> Graph.t
(** Round-trip a graph through the DDL (fresh oids, same structure,
    rebuilt indexes). *)
