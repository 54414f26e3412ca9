(** Materialization strategies for STRUDEL sites (§1, §6, [FER 98c]) —
    the "Web site as view" spectrum.

    {!Site.build} materializes the complete site before browsing (the
    prototype's default).  {!Click_time} precomputes only the root(s):
    the site-definition query is decomposed through the site schema
    into one node-expansion query per Skolem family, and when the user
    clicks to page [F(a)] the engine binds [F]'s defining variables to
    [a] and evaluates only the link clauses leaving [F], caching
    rendered pages optionally.  Click-time pages are byte-identical to
    the full build's. *)

open Sgraph

module Click_time : sig
  type t = {
    data : Graph.t;
    def : Site.definition;
    scope : Skolem.t;
    partial : Graph.t;  (** the lazily materialized site graph *)
    schemas : Schema.Site_schema.t list;
    options : Struql.Eval.options;
    mutable expanded : Oid.Set.t;
    page_cache : Render_cache.t;
        (** dependency-tracked page cache, re-verified against the
            partial graph on every lookup *)
    cache_pages : bool;
    compiled : Template.Generator.compiled;
        (** session-wide template-compilation cache *)
    mutable stats_expansions : int;
    mutable stats_queries : int;
    mutable stats_peak_live : int;
        (** largest live-binding watermark any click-time query reached
            on the streaming {!Struql.Exec} pipeline *)
  }

  val start : ?cache:bool -> data:Graph.t -> Site.definition -> t
  (** Evaluate only the CREATE clauses of the root family; all links
      stay pending. *)

  val roots : t -> Oid.t list

  val expand : t -> Oid.t -> unit
  (** Materialize one node's outgoing links by evaluating, per schema
      edge leaving its family, the governing conjunction with the
      node's Skolem arguments bound.  Aggregate link targets are
      grouped and folded exactly as in full evaluation.  Idempotent. *)

  type browse_error =
    | Unknown_object of string
        (** the oid is not a node of this session's site graph — the
            serving layer's 404 *)
    | Render_failed of string
        (** the generator raised; the page is isolated — the serving
            layer's 503 *)

  exception Browse_error of browse_error

  val browse_error_message : browse_error -> string

  val render_page :
    ?compiled:Template.Generator.compiled ->
    ?trace_reads:bool ->
    t -> Oid.t ->
    (Template.Generator.rendered, browse_error) result
  (** Expand the node and its immediate successors, then render just
      that page, as a structured result: an unknown oid or a generator
      exception becomes an [Error], never an escape.  [compiled] lets a
      caller thread of control (a serving worker domain) own its
      template-compilation cache; [trace_reads] defaults to the
      session's caching mode.  Does not consult or fill the page
      cache. *)

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
    queries : int;        (** link-clause evaluations performed *)
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
