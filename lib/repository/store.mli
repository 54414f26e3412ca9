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

val reload : Graph.t -> Graph.t
(** Round-trip a graph through the DDL (fresh oids, same structure,
    rebuilt indexes). *)

(** {1 Repository directories}

    A directory holds one file per catalogued graph and a [MANIFEST]
    naming them.  The manifest carries an epoch; every file it names is
    [<epoch>.<position>.seg] or [.ddl], the graph's place in the
    catalog, so a graph's name never becomes a file name. *)

exception Manifest_error of string
(** A missing or malformed manifest: its path, and for a bad line the
    line's number. *)

type entry = {
  e_graph : string;  (** the graph's name *)
  e_file : string;  (** its file, relative to the directory *)
  e_nodes : int;
  e_edges : int;
  e_bytes : int;
}

type manifest = {
  m_epoch : int;  (** 1 for a directory's first save *)
  m_sources : (string * int) list;  (** source name → version at save *)
  m_entries : entry list;  (** in catalog order, oldest first *)
}

val save_dir :
  ?format:[ `Ddl | `Segment ] -> ?sources:(string * int) list -> t ->
  dir:string -> unit
(** Save the catalog below [dir] (created if missing) as the live
    manifest's epoch plus one (1 in a directory without one): write
    each graph's file ([`Ddl] text by default, or a {!Segment}), then
    swap the manifest in ({!Segment.write_file}), then remove the files
    the replaced manifest named.  No file the live manifest names is
    written before the swap, so a save that fails leaves the previous
    catalog loadable; it removes what it wrote before re-raising.
    Raises {!Manifest_error} when [dir] holds a malformed manifest. *)

val load_manifest : dir:string -> manifest
(** Read [dir]'s manifest.  Raises {!Manifest_error}, and only it, on a
    missing or malformed one: a bad magic line (a manifest of a sharded
    repository, ["strudel-shard-manifest 1"], too), an unknown keyword,
    a short or over-long line, a second line that is not the epoch, a
    file name outside the epoch's, or a graph listed twice. *)

val load_entry : dir:string -> entry -> Graph.t
(** Decode the file of one manifest entry into a fresh graph with the
    entry's name.  Raises {!Segment.Corrupt}, {!Sgraph.Ddl.Ddl_error} or
    [Sys_error]. *)

val load_dir : dir:string -> t
(** A fresh catalog of every graph [dir]'s manifest names, each decoded
    by {!load_entry}.  If a file is gone because a save swapped the
    manifest meanwhile, the new manifest's catalog is loaded instead.
    Raises {!Manifest_error} on a missing or malformed manifest. *)

val pp_manifest : Format.formatter -> manifest -> unit
