(** Global-as-view mediation (§2.3).

    In GAV, each collection of the mediated schema is defined by a
    query over the sources: a StruQL query reading a source graph and
    constructing objects/edges in the mediated graph.  The paper chose
    GAV because StruQL extends to it directly and the set of sources
    was small and stable.  All mappings of one integration share a
    Skolem scope, so mappings that build the same Skolem term converge
    on one mediated object — the fusion mechanism for overlapping
    sources. *)

open Sgraph

type mapping = {
  source_name : string;
      (** a source's name, or ["*"] for the union of all sources
          (cross-source joins) *)
  query : Struql.Ast.query;
}

exception Unknown_source of string * string list
(** A mapping (run without a fault context) names a source that is not
    among the declared sources: the offending name and the declared
    names.  With a fault context the mapping is recorded and skipped
    instead. *)

val mapping : source:string -> Struql.Ast.query -> mapping
val mapping_of_string : source:string -> string -> mapping

val copy_collection :
  source:string -> collection:string -> ?fn:string -> unit -> mapping
(** The identity mapping: copy every member of the collection and its
    attributes into the mediated graph under Skolem function [fn]
    (default [<collection>Obj]); membership is copied even for members
    without attributes. *)

(** {1 Integration and construction logs}

    Integration runs every mapping over its source into one fresh
    mediated graph.  Each single-source run records its
    {e construction log}: the additions it made to the mediated graph
    — nodes, edges and memberships in mutation order, each at its
    first occurrence in that mapping (a repeat is a no-op for the
    graph), never merged across mappings — together with the source
    graph it read and its {!Graph.generation}.  An integration given
    the previous one's logs {e replays} a mapping's log instead of
    evaluating it when its source is the same graph at the same
    generation (a loader may hand back one graph mutated in place, as
    {!Source.of_graph} does).  A ["*"] join reads every source, and an
    integration runs only because one changed, so it is evaluated
    every time, over the all-sources merge; that merge is built only
    when the mappings include one.

    A replayed node takes its Skolem term from the reused scope
    ({!Skolem.adopt}), so the scope still holds exactly one
    integration's terms, and the graph is the one the runs would have
    built, in every index order. *)

type logs
(** The logs of one integration, one per mapping.  Immutable: the
    warehouse keeps them in the view they built. *)

(** How a mapping took part in an integration. *)
type run =
  | Ran  (** evaluated (a single-source mapping's log recorded) *)
  | Replayed  (** its previous log replayed *)
  | Skipped  (** its source was unavailable or unknown *)

val runs : logs -> run list
(** Per mapping, in declared order. *)

val integrate :
  ?options:Struql.Eval.options ->
  ?graph_name:string ->
  scope:Skolem.t ->
  ?previous:logs ->
  ?load:(Source.t -> Graph.t option) ->
  ?fault:Fault.ctx ->
  Source.t list ->
  mapping list ->
  Graph.t * logs
(** Run the mappings over their sources into a fresh mediated graph,
    with their logs.  [load] plugs in a fault-aware loader (typically
    {!Source.load_with} partially applied); a source it yields [None]
    for is unavailable — its mappings are skipped and ["*"] unions only
    the sources that did load.  Each source loads at most once per
    integration.  With [fault], a mapping over an unknown source is
    recorded and skipped instead of aborting.  [scope] is the mappings'
    shared Skolem scope: a fresh one for a first integration, one
    created with [~reuse] of the previous integration's scope to keep
    every term's oid.  [previous] are that integration's logs, over the
    same mappings: the mappings the rule above allows replay them. *)
