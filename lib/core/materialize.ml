(** Materialization strategies for STRUDEL sites (§1, §6, [FER 98c]).

    The "Web site as view" spectrum runs from full materialization —
    {!Site.build}, the prototype's default: warehouse-style, maximal
    up-front cost, minimal click latency — to {!Click_time}: precompute
    only the root(s) of the site, then compute at click time the
    queries that obtain the next page.  The site-definition query is
    decomposed — via the site schema — into one node-expansion query
    per Skolem family: when the user clicks to page [F(a)], the engine
    binds [F]'s defining variables to [a] and evaluates only the link
    clauses leaving [F].  Results are optionally cached, so a revisited
    page costs nothing. *)

open Sgraph
open Struql

module Click_time = struct
  type t = {
    data : Graph.t;
    def : Site.definition;
    scope : Skolem.t;
    partial : Graph.t;  (** the lazily materialized site graph *)
    schemas : Schema.Site_schema.t list;
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
    mutable stats_queries : int;  (** link-clause evaluations performed *)
    mutable stats_peak_live : int;
        (** largest live-binding watermark any click-time query reached *)
  }

  let binding_of_arg = function
    | Skolem.A_oid o -> Eval.B_target (Graph.N o)
    | Skolem.A_val v -> Eval.B_target (Graph.V v)
    | Skolem.A_label l -> Eval.B_label l

  (* Bind the source-term variables of a schema edge to the concrete
     arguments of the clicked node. *)
  let bind_args (terms : Ast.term list) (args : Skolem.arg list) =
    let rec go env ts as_ =
      match ts, as_ with
      | [], [] -> Some env
      | Ast.T_var v :: ts', a :: as' ->
        go (Eval.Env.add v (binding_of_arg a) env) ts' as'
      | Ast.T_const c :: ts', Skolem.A_val v :: as' ->
        if Value.coerce_equal c v then go env ts' as' else None
      | Ast.T_const _ :: _, _ -> None
      | Ast.T_skolem _ :: _, _ -> None  (* nested Skolem args: not expandable *)
      | _, _ -> None
    in
    go Eval.Env.empty terms args

  (** Start a click-time session: evaluate only the CREATE clauses of
      the root family (plus its collects), leaving all links pending. *)
  let start ?(cache = true) ~(data : Graph.t) (def : Site.definition) : t =
    let queries = Site.parse_queries def in
    let scope = Skolem.create () in
    (* the data graph is never mutated by a click-time session: one
       freeze serves every root and expansion query *)
    ignore (Graph.freeze data);
    let partial = Graph.create ~name:(def.Site.name ^ "-clicktime") () in
    let options =
      { Eval.default_options with
        strategy = def.Site.strategy;
        registry = def.Site.registry }
    in
    let schemas = List.map (fun (_, q) -> Schema.Site_schema.of_query q) queries in
    let t =
      {
        data;
        def;
        scope;
        partial;
        schemas;
        options;
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
    (* materialize the root family's nodes *)
    List.iter
      (fun sch ->
        List.iter
          (fun (k : Schema.Site_schema.create_info) ->
            if k.k_fn = def.Site.root_family then begin
              t.stats_queries <- t.stats_queries + 1;
              let rows, _, peak =
                Exec.bindings_profiled ~options data k.k_conds
                  ~needed_obj:
                    (Ast.dedup
                       (List.concat_map (Ast.term_vars []) k.k_args))
              in
              t.stats_peak_live <- max t.stats_peak_live peak;
              List.iter
                (fun env ->
                  let args =
                    List.map
                      (fun term ->
                        match term with
                        | Ast.T_var v -> (
                            match Eval.Env.find_opt v env with
                            | Some (Eval.B_target (Graph.N o)) ->
                              Skolem.A_oid o
                            | Some (Eval.B_target (Graph.V v')) ->
                              Skolem.A_val v'
                            | Some (Eval.B_label l) -> Skolem.A_label l
                            | None -> Skolem.A_val Value.Null)
                        | Ast.T_const c -> Skolem.A_val c
                        | Ast.T_skolem _ | Ast.T_agg _ -> Skolem.A_val Value.Null)
                      k.k_args
                  in
                  let o, _ = Skolem.apply scope k.k_fn args in
                  Graph.add_node partial o)
                rows
            end)
          sch.Schema.Site_schema.creates)
      schemas;
    t

  let family_of t o =
    match Skolem.term_of t.scope o with
    | Some (f, args) -> Some (f, args)
    | None -> None

  (* Materialize the collections a node of this family belongs to. *)
  let apply_collects t o fam =
    List.iter
      (fun sch ->
        List.iter
          (fun (c : Schema.Site_schema.collect_info) ->
            match c.c_term with
            | Ast.T_skolem (f, _) when f = fam ->
              Graph.add_to_collection t.partial c.c_name o
            | _ -> ())
          sch.Schema.Site_schema.collects)
      t.schemas

  (** Materialize the outgoing links of one site-graph node by
      evaluating, per schema edge leaving its family, the governing
      conjunction with the node's defining variables bound. *)
  let expand t (o : Oid.t) =
    if not (Oid.Set.mem o t.expanded) then begin
      t.expanded <- Oid.Set.add o t.expanded;
      t.stats_expansions <- t.stats_expansions + 1;
      match family_of t o with
      | None -> ()  (* a data object copied into the site graph *)
      | Some (fam, args) ->
        apply_collects t o fam;
        List.iter
          (fun sch ->
            List.iter
              (fun (e : Schema.Site_schema.edge) ->
                match e.src with
                | Schema.Site_schema.NF f when f = fam -> (
                    match bind_args e.src_args args with
                    | None -> ()
                    | Some env ->
                      t.stats_queries <- t.stats_queries + 1;
                      let rows, _, peak =
                        Exec.bindings_profiled ~options:t.options ~env t.data
                          e.conds
                          ~needed_obj:
                            (Ast.dedup
                               (List.concat_map (Ast.term_vars [])
                                  (e.dst_args
                                  @ List.concat_map
                                      (fun lt ->
                                        match lt with
                                        | Ast.L_var v -> [ Ast.T_var v ]
                                        | Ast.L_const _ -> [])
                                      [ e.label ])))
                      in
                      t.stats_peak_live <- max t.stats_peak_live peak;
                      let label_of env =
                        match e.label with
                        | Ast.L_const c -> Some c
                        | Ast.L_var v -> (
                            match Eval.Env.find_opt v env with
                            | Some (Eval.B_label l) -> Some l
                            | Some (Eval.B_target (Graph.V v')) ->
                              Some (Value.to_display_string v')
                            | _ -> None)
                      in
                      let plain_target env term =
                        match term with
                        | Ast.T_var v -> (
                            match Eval.Env.find_opt v env with
                            | Some (Eval.B_target tgt) -> Some tgt
                            | Some (Eval.B_label l) ->
                              Some (Graph.V (Value.String l))
                            | None -> None)
                        | Ast.T_const c -> Some (Graph.V c)
                        | Ast.T_skolem _ | Ast.T_agg _ -> None
                      in
                      (match e.dst, e.dst_args with
                       | Schema.Site_schema.NS, [ Ast.T_agg (fn, inner) ] ->
                         (* aggregate link: group the rows by label and
                            emit one aggregated edge per group, in
                            first-row order, exactly as full evaluation
                            does *)
                         let groups = Hashtbl.create 4 in
                         let labels = ref [] in
                         List.iter
                           (fun env ->
                             match label_of env, plain_target env inner with
                             | Some l, Some tgt ->
                               let vals =
                                 match Hashtbl.find_opt groups l with
                                 | Some h -> h
                                 | None ->
                                   let h = Hashtbl.create 8 in
                                   Hashtbl.add groups l h;
                                   labels := l :: !labels;
                                   h
                               in
                               Hashtbl.replace vals (Eval.target_key tgt) tgt
                             | _ -> ())
                           rows;
                         List.iter
                           (fun l ->
                             let values =
                               Hashtbl.fold
                                 (fun _ v acc -> v :: acc)
                                 (Hashtbl.find groups l) []
                             in
                             Graph.add_edge t.partial o l
                               (Graph.V (Eval.aggregate fn values)))
                           (List.rev !labels)
                       | _ ->
                      List.iter
                        (fun env ->
                          let label = label_of env in
                          let target =
                            match e.dst with
                            | Schema.Site_schema.NF g_fn ->
                              let sargs =
                                List.map
                                  (fun term ->
                                    match term with
                                    | Ast.T_var v -> (
                                        match Eval.Env.find_opt v env with
                                        | Some (Eval.B_target (Graph.N n)) ->
                                          Some (Skolem.A_oid n)
                                        | Some (Eval.B_target (Graph.V v')) ->
                                          Some (Skolem.A_val v')
                                        | Some (Eval.B_label l) ->
                                          Some (Skolem.A_label l)
                                        | None -> None)
                                    | Ast.T_const c -> Some (Skolem.A_val c)
                                    | Ast.T_skolem _ | Ast.T_agg _ -> None)
                                  e.dst_args
                              in
                              if List.for_all Option.is_some sargs then begin
                                let n, _ =
                                  Skolem.apply t.scope g_fn
                                    (List.map Option.get sargs)
                                in
                                Graph.add_node t.partial n;
                                Some (Graph.N n)
                              end
                              else None
                            | Schema.Site_schema.NS -> (
                                match e.dst_args with
                                | [ term ] -> plain_target env term
                                | _ -> None)
                          in
                          match label, target with
                          | Some l, Some tgt ->
                            Graph.add_edge t.partial o l tgt
                          | _ -> ())
                        rows))
                | _ -> ())
              sch.Schema.Site_schema.edges)
          t.schemas
    end

  type browse_error =
    | Unknown_object of string
        (** the oid is not a node of this session's site graph — the
            serving layer's 404 *)
    | Render_failed of string
        (** the generator raised; the page is isolated — the serving
            layer's 503 *)

  exception Browse_error of browse_error

  let browse_error_message = function
    | Unknown_object name -> "unknown site object: " ^ name
    | Render_failed msg -> "page render failed: " ^ msg

  (** Expand the node (and, for embedded content, its immediate
      successors) and render just that page, as a structured result: an
      oid outside the session's site graph or a generator exception
      becomes an [Error], never an escape — one crashing page must not
      take down a serving worker.  [compiled] lets each caller thread of
      control own its template-compilation cache (the session-wide one
      is not domain-safe); [trace_reads] defaults to the session's
      caching mode. *)
  let render_page ?compiled ?trace_reads t (o : Oid.t) :
      (Template.Generator.rendered, browse_error) result =
    if not (Graph.mem_node t.partial o) then Error (Unknown_object (Oid.name o))
    else begin
      expand t o;
      List.iter
        (fun (_, tgt) ->
          match tgt with Graph.N n -> expand t n | Graph.V _ -> ())
        (Graph.out_edges t.partial o);
      let compiled = match compiled with Some c -> c | None -> t.compiled in
      let trace_reads =
        match trace_reads with Some b -> b | None -> t.cache_pages
      in
      match
        Template.Generator.render_page_full
          ~templates:t.def.Site.templates ~compiled ~trace_reads t.partial o
      with
      | r -> Ok r
      | exception Template.Generator.Generator_error msg ->
        Error (Render_failed msg)
      | exception Template.Tparse.Template_error msg ->
        Error (Render_failed msg)
      | exception Fault.Inject.Injected msg -> Error (Render_failed msg)
      | exception ((Out_of_memory | Stack_overflow | Sys.Break) as e) ->
        raise e
      | exception e -> Error (Render_failed (Printexc.to_string e))
    end

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
        match family_of t o with
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
