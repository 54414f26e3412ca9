(** Static decomposition of site-definition queries (§5.2, [FER 98c]).

    "S TRU QL's declarative semantics allow us to ... automatically
    convert a complete site-definition query into multiple queries
    [that] can be evaluated statically or dynamically at 'click time'."

    This module produces the {e static} decomposition: from the site
    schema, one self-contained StruQL query per unit of work — one per
    Skolem family's CREATE, one per link clause, one per collect
    clause.  Each piece is a complete, independently evaluable query;
    composing all pieces under a shared Skolem scope reproduces the
    original site graph exactly (tested), and any subset computes the
    corresponding fragment — the basis for evaluating parts of a site
    on different schedules.  The {e dynamic} use is
    {!Strudel.Materialize.Click_time}: it evaluates these pieces one
    clicked node at a time, the node's Skolem arguments bound, running
    each link piece whose source is the node's family and each collect
    piece over it. *)

open Struql

type piece = {
  piece_name : string;  (** e.g. ["create:YearPage"], ["link:3"] *)
  query : Ast.query;
}

(* A complete query must CREATE every Skolem function it links from or
   to, so each piece re-states the creates it depends on (Skolem
   semantics make re-creation idempotent under a shared scope). *)
let rec term_creates (t : Ast.term) : Ast.create_clause list =
  match t with
  | Ast.T_skolem (f, args) ->
    ((f, args) :: List.concat_map term_creates args)
  | Ast.T_var _ | Ast.T_const _ -> []
  | Ast.T_agg (_, inner) -> term_creates inner

let decompose (s : Site_schema.t) : piece list =
  let input = s.Site_schema.input and output = s.Site_schema.output in
  let mk name where create link collect =
    {
      piece_name = name;
      query =
        {
          Ast.input;
          blocks = [ { Ast.where; create; link; collect; nested = [] } ];
          output;
        };
    }
  in
  let creates =
    List.map
      (fun (k : Site_schema.create_info) ->
        mk ("create:" ^ k.k_fn) k.k_conds [ (k.k_fn, k.k_args) ] [] [])
      s.Site_schema.creates
  in
  let links =
    List.mapi
      (fun i (e : Site_schema.edge) ->
        let src = Ast.T_skolem (Site_schema.node_name e.src, e.src_args) in
        let dst =
          match e.dst with
          | Site_schema.NF g -> Ast.T_skolem (g, e.dst_args)
          | Site_schema.NS -> (
              match e.dst_args with
              | [ t ] -> t
              | _ -> Ast.T_const Sgraph.Value.Null)
        in
        let create =
          (* deduplicated creates for both endpoints *)
          List.sort_uniq compare (term_creates src @ term_creates dst)
        in
        mk
          (Printf.sprintf "link:%d:%s-%s" i
             (Site_schema.node_name e.src)
             (Site_schema.node_name e.dst))
          e.conds create
          [ (src, e.label, dst) ]
          [])
      s.Site_schema.edges
  in
  let collects =
    List.mapi
      (fun i (c : Site_schema.collect_info) ->
        mk
          (Printf.sprintf "collect:%d:%s" i c.c_name)
          c.c_conds
          (List.sort_uniq compare (term_creates c.c_term))
          []
          [ (c.c_name, c.c_term) ])
      s.Site_schema.collects
  in
  creates @ links @ collects

let of_query q = decompose (Site_schema.of_query q)

(** Evaluate every piece under one Skolem scope; the result equals the
    original query's site graph. *)
let run_all ?(options = Eval.default_options) (pieces : piece list)
    (data : Sgraph.Graph.t) : Sgraph.Graph.t =
  fst
    (Exec.run_all ~options
       ~name:(match pieces with p :: _ -> p.query.Ast.output | [] -> "out")
       data
       (List.map (fun p -> p.query) pieces))

let pp ppf (pieces : piece list) =
  List.iter
    (fun p ->
      Fmt.pf ppf "-- %s@.%s@." p.piece_name (Pretty.to_string p.query))
    pieces
