(** Object identifiers.

    Every internal object of a graph is identified by a unique oid.  An
    oid carries a human-readable [name] — either the name given in a
    data file (["pub1"]) or the Skolem term that created it
    (["YearPage(1997)"]).  Identity is by the numeric [id]; names are
    not required to be unique. *)

type t

val fresh : string -> t
(** [fresh name] allocates a new oid, distinct from all previously
    allocated ones, on any domain. *)

val id : t -> int
val name : t -> string

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val pp : Format.formatter -> t -> unit
(** Prints ["&name#id"] in full form. *)

val pp_name : Format.formatter -> t -> unit
(** Prints just the name — the form used in data files and examples. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Tbl : Hashtbl.S with type key = t
