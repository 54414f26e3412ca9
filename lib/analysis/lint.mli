(** Cross-layer static analysis of a site specification ([strudel
    lint]).

    Analyzes the complete specification — site-definition queries,
    templates, derived site schema, integrity constraints, and source
    declarations — {e without building the site}.  Five analysis
    families:

    - {b path emptiness}: each regular path expression's NFA is
      intersected with a DataGuide of the source data (product
      automaton); an empty intersection means the pattern can never
      bind (SA010–SA013);
    - {b dead and unused specification}: dead variables, unused
      collections, page families unreachable from the root, duplicate
      link clauses (SA020–SA024);
    - {b schema-level constraint verification}: the site schema is
      derived from the queries and every declared constraint checked
      statically (SA030–SA031);
    - {b template lint}: templates are checked against the derived
      schema — impossible attribute references, templates bound to
      never-collected collections, broken template references, unused
      named templates (SA040–SA043);
    - {b delta evaluability}: site-query blocks [strudel watch]
      re-evaluates in full each cycle instead of differentially, with
      the reason (SA070).

    Parse/check plumbing (SA001–SA005) runs first; analyses degrade
    gracefully when a query does not parse. *)

open Sgraph

type spec = {
  name : string;  (** site name, used as the fallback artifact name *)
  queries : (string * string) list;  (** named StruQL sources *)
  templates : Template.Generator.template_set;
  root_family : string;
  constraints : Schema.Verify.constraint_ list;
  registry : Struql.Builtins.registry;
  data : Graph.t option;
      (** the source data graph; [None] disables the data-dependent
          analyses (SA010–SA013 and the extent checks of SA011/SA012) *)
  declared_sources : string list;
      (** mediated sites: the declared source names *)
  mapping_sources : string list;
      (** mediated sites: the source name of every GAV mapping *)
  max_guide_states : int;
      (** DataGuide size bound for the path-emptiness analysis; when
          exceeded the analysis degrades to SA013 instead of failing *)
}

val of_definition :
  ?data:Graph.t ->
  ?declared_sources:string list ->
  ?mapping_sources:string list ->
  ?max_guide_states:int ->
  Strudel.Site.definition ->
  spec

val run : spec -> Diagnostic.t list
(** Run all analyses; diagnostics come back sorted (file, position,
    code). *)

type fail_on = Fail_error | Fail_warning

val fail_on_of_string : string -> fail_on option

val exit_code : fail_on -> Diagnostic.t list -> int
(** [1] when a diagnostic at or above the threshold severity is
    present, [0] otherwise. *)
