(** Site definitions and the end-to-end build pipeline (Fig. 1).

    A site definition bundles the three separated concerns: the {e data}
    (a data graph built by wrappers / the mediator), the {e structure}
    (one or more StruQL site-definition queries, composed in order under
    a shared Skolem scope), and the {e presentation} (a set of HTML
    templates).  {!build} evaluates the queries over the data graph,
    derives the site schemas, checks the declared integrity constraints
    and runs the HTML generator from the root family's pages. *)

open Sgraph

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

val define :
  ?templates:Template.Generator.template_set ->
  ?constraints:Schema.Verify.constraint_ list ->
  ?registry:Struql.Builtins.registry ->
  ?strategy:Struql.Plan.strategy ->
  name:string ->
  root_family:string ->
  (string * string) list ->
  definition

type built = {
  def : definition;
  data : Graph.t;
  site_graph : Graph.t;
  scope : Skolem.t;  (** the shared Skolem scope of the build *)
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

val parse_queries : definition -> (string * Struql.Ast.query) list

val build_site_graph :
  ?scope:Skolem.t ->
  definition ->
  Graph.t ->
  Graph.t * Skolem.t * (string * Schema.Site_schema.t) list
  * Struql.Exec.profile list
(** Evaluate the definition's queries over the data into one site
    graph, without generating HTML.  Queries run on the streaming
    {!Struql.Exec} engine; the returned profiles carry per-operator
    row counts and the peak live-binding watermark of each query. *)

val roots_of : Graph.t -> string -> Oid.t list
(** Members of the root Skolem family in a site graph. *)

val build_roots : Graph.t -> definition -> Oid.t list
(** The definition's root pages in a site graph: {!roots_of} its root
    family.  Raises {!Build_error} when the family is empty, since a
    build needs a page to start from. *)

val assemble :
  ?fault:Fault.ctx ->
  ?verification:(Schema.Verify.constraint_ * Schema.Verify.verdict) list ->
  def:definition ->
  data:Graph.t ->
  site_graph:Graph.t ->
  scope:Skolem.t ->
  schemas:(string * Schema.Site_schema.t) list ->
  query_stats:Struql.Exec.profile list ->
  Template.Generator.site * Render_pool.profile ->
  built
(** The one place a [built] is assembled from rendered pages: check
    the definition's constraints on [site_graph] and snapshot the
    faults recorded in [fault].  {!build} calls it after rendering;
    the watch session calls it on the pages its {!Page_table} keeps
    over the site graph the delta engine maintains.  [verification],
    when given, stands for the check: the watch session passes the
    previous publish's verdicts brought up to date with what its cycle
    changed ({!Schema.Verify.recheck_site}), so only the constraints
    that change can move are checked again and every other verdict is
    kept, witnesses included.  A cold build and a session's first
    publish check every constraint, and so does a cycle after one that
    raised before it published. *)

val build :
  ?jobs:int ->
  ?render_cache:Render_cache.t ->
  ?file_loader:(string -> string option) ->
  ?on_error:Fault.on_error ->
  ?fault:Fault.ctx ->
  ?sink:Render_pool.sink ->
  data:Graph.t -> definition ->
  built
(** The full pipeline: site graph, schema, then
    {!Render_pool.materialize} the pages reachable from the root
    family ({!build_roots}) and {!assemble}.  [jobs] (default 1) fans
    page rendering out over OCaml domains through {!Render_pool}
    ([jobs <= 0] auto-detects the machine's domain count);
    [render_cache] reuses pages whose read traces still verify.
    Output is byte-identical across [jobs] values and cache states.

    With [sink], pages are streamed out in canonical order as they
    render and [built.site] carries an empty page list — peak memory
    is bounded by one render slice of pages instead of the site size ([built.render_profile.rp_pages] still counts them).

    With [~on_error:Degrade] a failed page render becomes a
    placeholder instead of aborting the build; faults recorded in
    [fault] (by this build or by the ingest stage before it) are
    snapshotted into [built.faults] for {!manifest}. *)

val manifest : built -> Fault.Manifest.t
(** The machine-readable outcome of the build ([faults.json]): site
    name, [Clean]/[Degraded] status, the recorded faults, and the exit
    code (0 clean, 3 degraded). *)

val regenerate :
  ?jobs:int ->
  ?file_loader:(string -> string option) ->
  built -> Template.Generator.template_set -> built
(** Re-run only the HTML generator with different templates — another
    visual version of the same site graph (internal vs external). *)

val violations : built -> (Schema.Verify.constraint_ * string list) list
(** The violated constraints with their witnesses (empty = clean). *)

(** {1 Specification metrics} — the paper's §5.1 site statistics. *)

type spec_stats = {
  query_count : int;
  query_lines : int;
  link_clauses : int;
  template_count : int;
  template_lines : int;
}

val spec_stats : definition -> spec_stats
val pp_spec_stats : Format.formatter -> spec_stats -> unit
