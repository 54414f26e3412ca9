(** Materialization strategies for STRUDEL sites (§1, §6, [FER 98c]) —
    the "Web site as view" spectrum.

    {!Site.build} materializes the complete site before browsing (the
    prototype's default).  {!Click_time} precomputes only the root(s):
    the site-definition query is decomposed statically
    ({!Schema.Decompose}) into one block per create, link and collect
    clause, and when the user clicks to page [F(a)] the engine binds
    [F]'s defining variables to [a] and evaluates only the link and
    collect pieces over [F], through the row pipeline and construction
    stage ({!Struql.Exec}, {!Struql.Eval}) a full build runs; rendered
    pages are optionally cached.

    What holds: a click-time page gets the full build's out-edges and
    collections.  Collections are declared at {!Click_time.start} in
    the order of their first COLLECT clause, the order a full build
    fills them in, so a page in two templated collections takes the
    full build's template however the session reached it.  A page's
    bytes still differ from the full build's in three cases.  A block
    whose link clauses give one page two or more out-edges per row
    lists them row by row in a full build but clause by clause here,
    since each link piece runs alone.  A template read more than two
    edges deep reaches nodes the session has not expanded.  A family
    whose Skolem arguments nest another Skolem term is never expanded.
    The differential suite checks every page of the five bundled sites
    byte for byte. *)

open Sgraph

module Click_time : sig
  type t = {
    data : Graph.t;
    def : Site.definition;
    scope : Skolem.t;
    partial : Graph.t;  (** the lazily materialized site graph *)
    pieces : Struql.Ast.block list;
        (** the static decomposition of every site-definition query, in
            query order: one block per create, link and collect clause *)
    options : Struql.Eval.options;
    mutable expanded : Oid.Set.t;
    page_cache : Render_cache.t;
        (** dependency-tracked page cache, re-verified against the
            partial graph on every lookup *)
    cache_pages : bool;
    compiled : Template.Generator.compiled;
        (** session-wide template-compilation cache *)
    mutable stats_expansions : int;
    mutable stats_queries : int;  (** piece evaluations performed *)
    mutable stats_peak_live : int;
        (** largest live-binding watermark any click-time query reached
            on the streaming {!Struql.Exec} pipeline *)
  }

  val start : ?cache:bool -> data:Graph.t -> Site.definition -> t
  (** Evaluate only the create pieces of the root family; all links
      stay pending. *)

  val roots : t -> Oid.t list

  val expand : t -> Oid.t -> unit
  (** Materialize one node's outgoing links and its collections: each
      link piece whose source is [F(xs)] and each collect piece over
      [F(xs)], [F] being the node's family, runs with [xs] bound to
      the node's Skolem arguments (a link piece re-creates the node,
      same term and oid, and creates its target).  Idempotent. *)

  type browse_error =
    | Unknown_object of string
        (** the oid is not a node of this session's site graph — the
            serving layer's 404 *)
    | Render_failed of string
        (** the generator raised; the page is isolated — the serving
            layer's 503 *)

  exception Browse_error of browse_error

  val browse_error_message : browse_error -> string

  val guarded : (unit -> 'a) -> ('a, browse_error) result
  (** Run a page render as a structured result: any exception but
      [Out_of_memory], [Stack_overflow] and [Sys.Break] becomes
      [Render_failed], never an escape — the click-time session's
      exception mapping. *)

  val render_page :
    t -> Oid.t -> (Template.Generator.rendered, browse_error) result
  (** Expand the node and its immediate successors, then render just
      that page under {!guarded}, tracing reads when the session
      caches pages; an unknown oid is [Unknown_object].  Does not
      consult or fill the page cache. *)

  val try_browse : t -> Oid.t -> (string, browse_error) result
  (** {!browse} with structured errors, through the page cache when
      enabled. *)

  val browse : t -> Oid.t -> string
  (** Render one page at click time (expanding the node and its
      immediate successors), through the page cache when enabled.
      Raises {!Browse_error} on an unknown oid or a failed render. *)

  val random_walk : t -> clicks:int -> seed:int -> int
  (** The browse simulator standing in for real user clicks: a
      deterministic random walk from the root.  Returns pages
      visited. *)

  type stats = {
    expansions : int;
    queries : int;        (** piece evaluations performed *)
    cache_hits : int;
    cache_misses : int;
    cache_invalidations : int;
        (** cached pages whose read trace no longer verified against
            the partial graph and were re-rendered *)
    materialized_nodes : int;
    materialized_edges : int;
    peak_live : int;      (** see [stats_peak_live] *)
  }

  val stats : t -> stats
end
