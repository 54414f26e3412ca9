(** Page materialization on the persistent domain pool: the one loop
    that discovers a site build's pages.

    Pages are rendered in waves (BFS levels of the demand-driven page
    closure).  Each wave is cut into bounded {e slices}; the workers —
    the main domain plus [jobs - 1] domains from the persistent
    {!Pool.shared}, reused across builds — claim chunks of a slice's
    pages from one atomic cursor ({!Pool.iter}).  Results land in
    per-page slots and settle on the main domain in frontier order, so
    output never depends on scheduling: the concatenation of the wave
    frontiers is the generator's discovery queue, and URLs are assigned
    in that order ([slug.html], or the first free [slug_N.html] when an
    earlier page holds it).  Pages come out in canonical order and
    byte-identical at every [jobs]; the test oracle's sequential
    generator is the reference.

    With a {!sink} pages are streamed out in canonical order as each
    slice settles and never retained — peak memory is bounded by the
    slice size, not the site size.  A {!Render_cache} short-circuits
    rendering with batched lookups: a slice's entries are prefetched in
    one pass, traces verify on the worker domains, and verdicts settle
    back on the main domain. *)

open Sgraph

type shard = {
  sh_domain : int;   (** 0 is the main domain *)
  sh_pages : int;    (** pages this domain rendered, summed over waves *)
  sh_wall_ms : float;
}

type profile = {
  rp_jobs : int;
  rp_pages : int;     (** pages in the final site *)
  rp_rendered : int;  (** pages actually rendered (not served from cache) *)
  rp_waves : int;
  rp_shards : shard list;
  rp_cache_hits : int;
  rp_cache_misses : int;
  rp_cache_invalidations : int;
  rp_degraded : int;
      (** pages that failed to render and were emitted as placeholders
          (always 0 under [~on_error:Abort]) *)
  rp_wall_ms : float;  (** whole materialization, main-domain clock *)
}

val pp_profile : Format.formatter -> profile -> unit

type sink = {
  sk_emit : Template.Generator.page -> unit;
      (** called once per new or changed page, in canonical (sequential
          discovery) order; the pool retains nothing after the call.  A
          build emits every page; a watch cycle ({!Page_table.update})
          emits only the pages it rendered, so a sink keyed by URL holds
          the current site after every call. *)
  sk_reset : unit -> unit;
      (** everything emitted so far is invalid and the whole site will
          be re-emitted in order: a watch cycle dropped a published
          page or moved one to another URL *)
}

val file_sink : dir:string -> sink
(** A sink writing each page below [dir] (created if missing), as
    {!Template.Generator.write_site} would; reset removes every file it
    wrote, so after a reset and re-emission the directory holds exactly
    the current site. *)

val materialize :
  ?jobs:int ->
  ?cache:Render_cache.t ->
  ?file_loader:(string -> string option) ->
  ?templates:Template.Generator.template_set ->
  ?on_error:Fault.on_error ->
  ?fault:Fault.ctx ->
  ?sink:sink ->
  Graph.t ->
  roots:Oid.t list ->
  Template.Generator.site * profile
(** Materialize the site's pages reachable from [roots] with the wave
    loop on [jobs] domains (default 1; [jobs <= 0] auto-detects,
    {!Pool.auto_jobs}): the main domain renders alongside [jobs - 1]
    persistent pool workers.  Output is byte-identical at every [jobs]
    and cache state, and equal to the test oracle's sequential
    generator (enforced by the differential suites).

    A page gets its URL the first time a settled page references it
    (roots first, in root order): [slug.html], or the first
    [slug_N.html] no earlier page holds.  A page that holds a renamed
    URL, or links to a page that does, is rendered again on the main
    domain with the assigned hrefs before it is emitted; that render is
    not stored in [cache] and not counted in [rp_rendered].  [cache]
    keys pages by name, so it is not used on a graph where two nodes
    share one ({!Sgraph.Graph.names_shared}).

    With [~sink], pages are streamed to the sink in canonical order and
    the returned site has an empty page list ([profile.rp_pages] still
    counts them); peak memory is bounded by a slice of 4096 pages,
    which is also the granularity of streaming emission.

    Workers read the graph in place: nothing may mutate it until
    [materialize] returns.

    With [~on_error:Degrade], a failed (or injected-faulty) page render
    is isolated: the page becomes a {!Template.Generator.placeholder_page}
    under its assigned URL, a [Render] fault naming that URL is
    recorded in [fault] (in URL order per slice, so manifests are
    [jobs]-independent), and the placeholder is never stored in the
    render cache. *)

type names
(** The URLs given so far in one naming of a site's pages. *)

val names : unit -> names

val name_url : names -> string -> string
(** The one URL rule, for pages named roots first, then in discovery
    order: [name_url nm url] gives the next page, of slug URL [url],
    [url] itself unless a page named before holds it, else the first
    [slug_N.html] none holds, and records it in [nm]. *)

(** {1 Rendering chosen pages}

    The per-page half of {!materialize}, for a caller that decides
    itself which pages to render — the watch session's
    {!Page_table}. *)

type renderer
(** One build's render settings, per-worker template caches and
    tallies. *)

val renderer :
  ?jobs:int ->
  ?file_loader:(string -> string option) ->
  ?templates:Template.Generator.template_set ->
  ?on_error:Fault.on_error ->
  ?fault:Fault.ctx ->
  ?trace:bool ->
  unit ->
  renderer
(** [jobs <= 0] auto-detects; [trace] (default [true]) records each
    page's read trace.  Render faults are injected from [fault]'s
    injector. *)

val restart : renderer -> unit
(** Zero the tallies a {!profile} reports and keep the template caches,
    so one renderer serves pass after pass, each template parsed once
    per domain. *)

val render_pages :
  renderer -> Graph.t -> Oid.t array ->
  (Template.Generator.rendered * Fault.report option) array
(** Render the pages of the given objects with slug hrefs, results in
    input order.  At [jobs = 1] they render one after another; at
    [jobs > 1] they fan out over the shared pool.  Either way they read
    the live graph.  Under [~on_error:Degrade] a failed render yields a
    placeholder (empty trace) and its fault report, which the caller
    records; under [Abort] the exception propagates. *)

val rerender :
  renderer -> href:(Oid.t -> string) -> Graph.t -> Oid.t ->
  Template.Generator.page
(** A page that rendered before, rendered again on the main domain
    with [href]'s URLs, untraced and not counted; between fan-outs. *)

val profile :
  renderer -> t0:float -> pages:int -> rendered:int -> waves:int ->
  hits:int -> misses:int -> invalidations:int -> degraded:int -> profile
(** A profile with the renderer's per-domain tallies, one per domain
    that can take part ([min jobs (Pool.auto_jobs ())]; [rp_jobs] is
    [jobs] as asked); [t0] is the start on the {!now_ms} clock. *)

val now_ms : unit -> float
(** Wall clock in milliseconds. *)
