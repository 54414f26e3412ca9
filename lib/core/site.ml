(** Site definitions and the end-to-end build pipeline (Fig. 1).

    A site definition bundles the three separated concerns:
    - the {e data}: a data graph (built by wrappers / the mediator);
    - the {e structure}: one or more StruQL site-definition queries,
      composed in order under a shared Skolem scope (§5.2: "we allowed
      queries to add nodes and arcs to a graph, [so] different queries
      [can] create different parts of the same site");
    - the {e presentation}: a set of HTML templates.

    [build] evaluates the queries over the data graph to produce the
    site graph, derives the site schema, checks the declared integrity
    constraints, and runs the HTML generator from the root family's
    pages.  Multiple versions of a site come from applying a different
    definition to the same data ({!build}) or different templates to
    the same site graph ({!regenerate}). *)

open Sgraph

let log_src = Logs.Src.create "strudel.site" ~doc:"site build pipeline"

module Log = (val Logs.src_log log_src : Logs.LOG)

type definition = {
  name : string;
  queries : (string * string) list;
      (** named StruQL sources, evaluated in order *)
  templates : Template.Generator.template_set;
  root_family : string;  (** Skolem family of the root page(s) *)
  constraints : Schema.Verify.constraint_ list;
  registry : Struql.Builtins.registry;
  strategy : Struql.Plan.strategy;
}

let define ?(templates = Template.Generator.empty_templates)
    ?(constraints = []) ?(registry = Struql.Builtins.default)
    ?(strategy = Struql.Plan.Heuristic) ~name ~root_family queries =
  { name; queries; templates; root_family; constraints; registry; strategy }

type built = {
  def : definition;
  data : Graph.t;
  site_graph : Graph.t;
  scope : Skolem.t;
  schemas : (string * Schema.Site_schema.t) list;
  site : Template.Generator.site;
  verification : (Schema.Verify.constraint_ * Schema.Verify.verdict) list;
  query_stats : Struql.Exec.profile list;
      (** per-operator execution profile of each site-definition query,
          in evaluation order *)
  render_profile : Render_pool.profile;
      (** per-domain page-rendering profile of the HTML generation
          phase (jobs, waves, shard times, cache hit counts) *)
  faults : Fault.report list;
      (** everything recorded in the build's fault context (ingest,
          integration and render faults), oldest first; [[]] for a
          clean or fault-blind build *)
}

exception Build_error of string

let parse_queries def =
  List.map
    (fun (qname, src) ->
      try (qname, Struql.Parser.parse ~registry:def.registry src)
      with Struql.Parser.Parse_error (msg, line, col) ->
        raise
          (Build_error
             (if col > 0 then
                Printf.sprintf "query %s, line %d, column %d: %s" qname line
                  col msg
              else Printf.sprintf "query %s, line %d: %s" qname line msg)))
    def.queries

(** Evaluate the definition's queries over [data] into one site graph;
    returns the graph, the shared Skolem scope, per-query schemas and
    evaluator statistics. *)
let build_site_graph ?scope def (data : Graph.t) =
  let queries = parse_queries def in
  let scope = match scope with Some s -> s | None -> Skolem.create () in
  let options =
    { Struql.Eval.default_options with
      strategy = def.strategy;
      registry = def.registry }
  in
  let site_graph, stats =
    Struql.Exec.run_all ~options ~scope ~name:def.name data
      (List.map snd queries)
  in
  let schemas =
    List.map (fun (n, q) -> (n, Schema.Site_schema.of_query q)) queries
  in
  (site_graph, scope, schemas, stats)

let roots_of site_graph family =
  Schema.Verify.family_members site_graph family

let build_roots site_graph def =
  match roots_of site_graph def.root_family with
  | [] ->
    raise
      (Build_error
         (Printf.sprintf "no pages of root family %s in site graph %s"
            def.root_family def.name))
  | roots -> roots

(** Assemble the published [built] from rendered pages: verify the
    declared constraints, unless a [verification] already up to date
    with [site_graph] is given, and snapshot the recorded faults. *)
let assemble ?fault ?verification ~def ~data ~site_graph ~scope ~schemas
    ~query_stats (site, render_profile) : built =
  let verification =
    match verification with
    | Some v -> v
    | None -> Schema.Verify.check_all_site site_graph def.constraints
  in
  List.iter
    (fun (c, v) ->
      match v with
      | Schema.Verify.Violated ws ->
        Log.warn (fun m ->
            m "site %s violates [%a] (%d witnesses)" def.name
              Schema.Verify.pp_constraint c (List.length ws))
      | Schema.Verify.Holds | Schema.Verify.Unknown _ -> ())
    verification;
  Log.info (fun m ->
      m "built site %s: %d pages, %d bytes" def.name
        (Template.Generator.page_count site)
        (Template.Generator.total_bytes site));
  {
    def;
    data;
    site_graph;
    scope;
    schemas;
    site;
    verification;
    query_stats;
    render_profile;
    faults = (match fault with Some c -> Fault.reports c | None -> []);
  }

let build ?jobs ?render_cache ?file_loader ?on_error ?fault ?sink ~data
    (def : definition) : built =
  Log.debug (fun m ->
      m "building site %s over %a" def.name Graph.pp_stats data);
  let site_graph, scope, schemas, query_stats =
    build_site_graph def data
  in
  Log.debug (fun m -> m "site graph: %a" Graph.pp_stats site_graph);
  assemble ?fault ~def ~data ~site_graph ~scope ~schemas ~query_stats
    (Render_pool.materialize ?jobs ?cache:render_cache ?file_loader ?on_error
       ?fault ?sink ~templates:def.templates site_graph
       ~roots:(build_roots site_graph def))

(** The machine-readable outcome of a build: site name, status
    ([Clean]/[Degraded]) and the recorded faults — what the CLI writes
    to [faults.json] and turns into the process exit code (0 clean,
    3 degraded). *)
let manifest (b : built) : Fault.Manifest.t =
  Fault.Manifest.make ~site:b.def.name b.faults

(** Re-run only the HTML generator with different templates — the cheap
    way to produce another visual version of the same site graph
    (internal vs external AT&T site). *)
let regenerate ?jobs ?file_loader (b : built) templates : built =
  let roots = roots_of b.site_graph b.def.root_family in
  let site, render_profile =
    Render_pool.materialize ?jobs ?file_loader ~templates b.site_graph ~roots
  in
  { b with site; render_profile; def = { b.def with templates } }

let violations (b : built) =
  List.filter_map
    (fun (c, v) ->
      match v with
      | Schema.Verify.Violated ws -> Some (c, ws)
      | Schema.Verify.Holds | Schema.Verify.Unknown _ -> None)
    b.verification

(* --- Specification metrics (the paper's §5.1 site statistics) --- *)

type spec_stats = {
  query_count : int;
  query_lines : int;
  link_clauses : int;
  template_count : int;
  template_lines : int;
}

let count_lines s =
  List.length
    (List.filter
       (fun l -> String.trim l <> "")
       (String.split_on_char '\n' s))

let spec_stats (def : definition) : spec_stats =
  let queries = parse_queries def in
  let ts = def.templates in
  let template_texts =
    List.map snd ts.Template.Generator.by_object
    @ List.map snd ts.Template.Generator.by_collection
    @ List.map snd ts.Template.Generator.named
  in
  {
    query_count = List.length queries;
    query_lines =
      List.fold_left (fun n (_, src) -> n + count_lines src) 0 def.queries;
    link_clauses =
      List.fold_left
        (fun n (_, q) -> n + Struql.Ast.query_link_count q)
        0 queries;
    template_count = List.length template_texts;
    template_lines =
      List.fold_left (fun n t -> n + count_lines t) 0 template_texts;
  }

let pp_spec_stats ppf s =
  Fmt.pf ppf
    "%d queries (%d lines, %d link clauses), %d templates (%d lines)"
    s.query_count s.query_lines s.link_clauses s.template_count
    s.template_lines
