(** Materialization strategies for STRUDEL sites (§1, §6, [FER 98c]).

    The "Web site as view" spectrum runs from full materialization —
    {!Site.build}, the prototype's default: warehouse-style, maximal
    up-front cost, minimal click latency — to {!Click_time}: precompute
    only the root(s) of the site, then compute at click time the
    queries that obtain the next page.  The site-definition query is
    decomposed statically ({!Schema.Decompose}) into one block per
    create, link and collect clause: when the user clicks to page
    [F(a)], the engine binds [F]'s defining variables to [a] and
    evaluates only the link and collect pieces over [F], through the
    same row pipeline and construction stage a full build runs.
    Results are optionally cached, so a revisited page costs nothing. *)

open Sgraph
open Struql

module Click_time = struct
  type t = {
    data : Graph.t;
    def : Site.definition;
    scope : Skolem.t;
    partial : Graph.t;  (** the lazily materialized site graph *)
    pieces : Ast.block list;
        (** the static decomposition of every site-definition query, in
            query order: one block per create, link and collect clause *)
    options : Eval.options;
    mutable expanded : Oid.Set.t;
    page_cache : Render_cache.t;
        (** dependency-tracked page cache: entries are re-verified
            against the partial graph on every lookup, so a session that
            mutates already-expanded regions re-renders exactly the
            affected pages *)
    cache_pages : bool;
    compiled : Template.Generator.compiled;
        (** session-wide template-compilation cache *)
    mutable stats_expansions : int;
    mutable stats_queries : int;  (** piece evaluations performed *)
    mutable stats_peak_live : int;
        (** largest live-binding watermark any click-time query reached *)
  }

  (* Bind the argument terms of a piece's Skolem term to the concrete
     arguments of the clicked node. *)
  let bind_args (terms : Ast.term list) (args : Graph.target list) =
    let rec go env ts as_ =
      match ts, as_ with
      | [], [] -> Some env
      | Ast.T_var v :: ts', a :: as' ->
        go (Eval.Env.add v (Eval.B_target a) env) ts' as'
      | Ast.T_const c :: ts', Graph.V v :: as' ->
        if Value.coerce_equal c v then go env ts' as' else None
      | Ast.T_const _ :: _, _ -> None
      | Ast.T_skolem _ :: _, _ -> None  (* nested Skolem args: not expandable *)
      | _, _ -> None
    in
    go Eval.Env.empty terms args

  (* Evaluate one piece into the partial graph as [Exec.run_block] does
     a block: its rows with [env] pre-bound, each constructed through
     [Eval], aggregate links folded once the last row is in. *)
  let run_piece ?env t (b : Ast.block) =
    t.stats_queries <- t.stats_queries + 1;
    let needed_obj, needed_label = Eval.construction_needs b in
    let rows, _, peak =
      Exec.bindings_profiled ~options:t.options ?env ~needed_obj
        ~needed_label t.data b.Ast.where
    in
    t.stats_peak_live <- max t.stats_peak_live peak;
    let sink = { Eval.out = Eval.Live t.partial; scope = t.scope; emit = None } in
    let bld = Eval.builder sink (Eval.compile b) in
    List.iter (Eval.row bld) rows;
    Eval.flush bld

  (** Start a click-time session: evaluate only the create pieces of
      the root family, leaving all links pending. *)
  let start ?(cache = true) ~(data : Graph.t) (def : Site.definition) : t =
    let pieces =
      List.concat_map
        (fun (_, q) ->
          List.concat_map
            (fun (p : Schema.Decompose.piece) -> p.query.Ast.blocks)
            (Schema.Decompose.of_query q))
        (Site.parse_queries def)
    in
    let t =
      {
        data;
        def;
        scope = Skolem.create ();
        partial = Graph.create ~name:(def.Site.name ^ "-clicktime") ();
        pieces;
        options =
          { Eval.default_options with
            strategy = def.Site.strategy;
            registry = def.Site.registry };
        expanded = Oid.Set.empty;
        page_cache = Render_cache.create ();
        cache_pages = cache;
        compiled = Template.Generator.new_compiled ();
        stats_expansions = 0;
        stats_queries = 0;
        stats_peak_live = 0;
      }
    in
    Render_cache.set_templates t.page_cache def.Site.templates;
    (* Declare every collection, then run the root family's create
       pieces.  A page in two templated collections takes the template
       of the collection listed first; a full build lists collections
       in the order it fills them, clause order, and declaring them up
       front keeps that order whichever page the session reaches
       first. *)
    List.iter
      (fun (b : Ast.block) ->
        List.iter
          (fun (c, _) -> Graph.declare_collection t.partial c)
          b.collect;
        match b.create, b.link, b.collect with
        | [ (f, _) ], [], [] when f = def.Site.root_family -> run_piece t b
        | _ -> ())
      pieces;
    t

  (** Materialize one node's outgoing links and its collections by
      evaluating each link piece whose source is [F(xs)] and each
      collect piece over [F(xs)], [F] being the node's family, with
      [xs] bound to the node's Skolem arguments. *)
  let expand t (o : Oid.t) =
    if not (Oid.Set.mem o t.expanded) then begin
      t.expanded <- Oid.Set.add o t.expanded;
      t.stats_expansions <- t.stats_expansions + 1;
      match Skolem.term_of t.scope o with
      | None -> ()  (* a data object copied into the site graph *)
      | Some (fam, args) ->
        List.iter
          (fun (b : Ast.block) ->
            match b.link, b.collect with
            | [ (Ast.T_skolem (f, xs), _, _) ], []
            | [], [ (_, Ast.T_skolem (f, xs)) ]
              when f = fam -> (
                match bind_args xs args with
                | Some env -> run_piece ~env t b
                | None -> ())
            | _ -> ())
          t.pieces
    end

  type browse_error =
    | Unknown_object of string
        (** the oid is not a node of this session's site graph — the
            serving layer's 404 *)
    | Render_failed of string
        (** the generator raised; the page is isolated — the serving
            layer's 503 *)

  exception Browse_error of browse_error

  (** Run a page render as a structured result: any exception but
      [Out_of_memory], [Stack_overflow] and [Sys.Break] becomes
      [Render_failed], never an escape — one crashing page must not
      take down the browsing session. *)
  let guarded f =
    match f () with
    | r -> Ok r
    | exception Template.Generator.Generator_error msg ->
      Error (Render_failed msg)
    | exception Template.Tparse.Template_error msg -> Error (Render_failed msg)
    | exception Fault.Inject.Injected msg -> Error (Render_failed msg)
    | exception ((Out_of_memory | Stack_overflow | Sys.Break) as e) -> raise e
    | exception e -> Error (Render_failed (Printexc.to_string e))

  (** Expand the node (and, for embedded content, its immediate
      successors) and render just that page, through {!guarded}; an oid
      outside the session's site graph is [Unknown_object]. *)
  let render_page t (o : Oid.t) :
      (Template.Generator.rendered, browse_error) result =
    if not (Graph.mem_node t.partial o) then Error (Unknown_object (Oid.name o))
    else
      guarded (fun () ->
          expand t o;
          List.iter
            (fun (_, tgt) ->
              match tgt with Graph.N n -> expand t n | Graph.V _ -> ())
            (Graph.out_edges t.partial o);
          Template.Generator.render_page_full ~templates:t.def.Site.templates
            ~compiled:t.compiled ~trace_reads:t.cache_pages t.partial o)

  let try_browse t (o : Oid.t) : (string, browse_error) result =
    match
      if t.cache_pages then Render_cache.find_valid t.page_cache t.partial o
      else None
    with
    | Some e -> Ok e.Render_cache.e_html
    | None -> (
      match render_page t o with
      | Ok r ->
        if t.cache_pages then Render_cache.store t.page_cache r;
        Ok r.Template.Generator.r_page.Template.Generator.html
      | Error e -> Error e)

  (** Render one page at click time, through the page cache when
      enabled.  Raises {!Browse_error} on an unknown oid or a failed
      render (callers that can degrade should use {!try_browse}). *)
  let browse t (o : Oid.t) : string =
    match try_browse t o with
    | Ok html -> html
    | Error e -> raise (Browse_error e)

  let roots t =
    List.filter
      (fun o ->
        match Skolem.term_of t.scope o with
        | Some (f, _) -> f = t.def.Site.root_family
        | None -> false)
      (Graph.nodes t.partial)

  (** Deterministic random walk over the site from the root — the
      browse simulator standing in for real user clicks.  Returns the
      number of pages visited. *)
  let random_walk t ~clicks ~seed =
    let state = ref (seed lor 1) in
    let next_int bound =
      state := (!state * 1103515245 + 12345) land 0x3FFFFFFF;
      if bound <= 0 then 0 else !state mod bound
    in
    match roots t with
    | [] -> 0
    | root :: _ ->
      let current = ref root in
      let visited = ref 0 in
      for _ = 1 to clicks do
        ignore (browse t !current);
        incr visited;
        let links =
          List.filter_map
            (fun (_, tgt) ->
              match tgt with
              | Graph.N n when Skolem.term_of t.scope n <> None -> Some n
              | _ -> None)
            (Graph.out_edges t.partial !current)
        in
        match links with
        | [] -> current := root  (* dead end: back to the root *)
        | _ -> current := List.nth links (next_int (List.length links))
      done;
      !visited

  type stats = {
    expansions : int;
    queries : int;
    cache_hits : int;
    cache_misses : int;
    cache_invalidations : int;
        (** cached pages whose read trace no longer verified against
            the partial graph and were re-rendered *)
    materialized_nodes : int;
    materialized_edges : int;
    peak_live : int;
  }

  let stats t =
    let hits, misses, invalidations = Render_cache.stats t.page_cache in
    {
      expansions = t.stats_expansions;
      queries = t.stats_queries;
      cache_hits = hits;
      cache_misses = misses;
      cache_invalidations = invalidations;
      materialized_nodes = Graph.node_count t.partial;
      materialized_edges = Graph.edge_count t.partial;
      peak_live = t.stats_peak_live;
    }
end
