(** Static decomposition of site-definition queries (§5.2, [FER 98c]):
    from the site schema, one self-contained StruQL query per unit of
    work — one per Skolem family's CREATE, one per link clause, one per
    collect clause.  Composing all pieces under a shared Skolem scope
    reproduces the original site graph exactly; any subset computes the
    corresponding fragment.  [Strudel.Materialize.Click_time]
    evaluates the pieces one clicked node at a time. *)

type piece = {
  piece_name : string;  (** e.g. ["create:YearPage"], ["link:3:..."] *)
  query : Struql.Ast.query;
}

val decompose : Site_schema.t -> piece list
val of_query : Struql.Ast.query -> piece list

val run_all :
  ?options:Struql.Eval.options ->
  piece list -> Sgraph.Graph.t -> Sgraph.Graph.t
(** Evaluate every piece under one Skolem scope; equals the original
    query's site graph. *)

val pp : Format.formatter -> piece list -> unit
