(** Integrity constraints on site structure (§1, [FER 98b]).

    Constraints like "all pages are reachable from the root", "every
    organization homepage points to the homepages of its
    suborganizations" or "proprietary data is not displayed on the
    external version" are checked two ways: {e statically} on the site
    schema (a sound approximation — the schema describes the possible
    paths of every site the query can generate), and {e exactly} on a
    concrete site graph, where Skolem families are recovered from node
    names. *)

open Sgraph

type constraint_ =
  | Reachable_from of string
      (** every object of the site is reachable from the family's pages *)
  | Points_to of string * string * string
      (** [Points_to (a, l, b)]: every [a]-page has an [l]-edge to some
          [b]-page *)
  | No_edge of string * string
      (** [No_edge (a, l)]: no [a]-page carries an [l]-edge *)
  | No_attribute_anywhere of string
      (** the label never appears in the site (proprietary data) *)
  | Acyclic_links of string
      (** edges with the given label form no cycle *)

val pp_constraint : Format.formatter -> constraint_ -> unit

type verdict =
  | Holds
  | Violated of string list  (** human-readable witnesses *)
  | Unknown of string        (** static analysis cannot decide *)

val pp_verdict : Format.formatter -> verdict -> unit

val check_schema : Site_schema.t -> constraint_ -> verdict
(** Static check: [Violated] here rules out every instance;
    [Unknown] means the verdict depends on the data. *)

val family_of_node : Oid.t -> string option
(** The Skolem family recovered from a node name
    (["YearPage(1997)"] → ["YearPage"]). *)

val family_members : Graph.t -> string -> Oid.t list

val check_site : Graph.t -> constraint_ -> verdict
(** Exact check on a generated site graph. *)

val check_all_site :
  Graph.t -> constraint_ list -> (constraint_ * verdict) list

(** {2 Verdicts across updates}

    A site graph maintained in place (the watch session's, through
    {!Struql.Dexec}) need not be checked whole after every update: a
    verdict, witnesses included, stands until the update changes
    something its check reads.  Reachability, [Points_to] and
    [Acyclic_links] read nodes (their names, and their order for
    witnesses) and edges to nodes, so only a structural change moves
    them; [No_edge (_, l)] and [No_attribute_anywhere l] read value
    edges too, listing witnesses in node or extent order, so they also
    move when [l]'s extent changes.  Every other update keeps the
    verdict.  A cold build checks every constraint. *)

val recheck_site :
  Graph.t ->
  structural:bool ->
  labels:string list ->
  (constraint_ * verdict) list ->
  (constraint_ * verdict) list
(** [recheck_site g ~structural ~labels verdicts]: the verdicts of the
    graph as it was, brought up to date with [g] after an update —
    [structural] when a node, or an edge to a node, came or went, and
    [labels] the labels whose extents changed otherwise (value edges
    added or removed, edges re-laid in another order).  The
    constraints the update can move are checked again; the rest keep
    their verdicts. *)

val check_all_schema :
  Site_schema.t -> constraint_ list -> (constraint_ * verdict) list
