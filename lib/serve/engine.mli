(** The [strudeld] serving engine: epochs, routes, click-time renders.

    One engine serves one site definition over either a static data
    graph or a warehousing mediator.  Per {e epoch} (one consistent
    integration) it keeps an immutable serving state: the site graph a
    cold build evaluates from the pinned graph
    ({!Strudel.Site.build_site_graph}), frozen once, so the site
    {e structure} is materialized per epoch while page {e HTML} stays
    click-time — rendered on first request by the cold build's
    generator through the verifying render cache, revalidated with
    ETags.  Routes are the pages reachable from the root family, each
    at its slug URL, the first page to claim a URL keeping it.  Served
    bytes equal a cold build's page, except where two page names share
    a slug: a cold build renames the second page and rewrites links to
    it, while here those links keep the shared URL and the renamed URL
    answers 404.

    A request pins the current epoch state with one atomic read and
    works against that snapshot for its whole lifetime; {!refresh}
    builds the next epoch completely off to the side (warehouse
    refresh under snapshot isolation, then a fresh site graph and
    route table) and installs it with one atomic swap — no request
    ever observes a half-refreshed view.  The render cache is shared
    across epochs and keyed by page {e name} with verifying read
    traces, so a swap invalidates exactly the pages whose reads
    changed: unchanged pages keep hitting, changed ones re-render.

    Render failures are structured
    ({!Strudel.Materialize.Click_time.guarded}): a failing page answers
    [503] with the fault manifest as body and trips its per-page
    circuit {!Breaker}; a quarantined source keeps its last integrated
    data serving (the warehouse's stale-snapshot policy) and is
    reported on [/healthz] — degradation is always page- or
    source-scoped, never process-wide. *)

open Sgraph

type source =
  | Static of Graph.t
  | Federated of Mediator.Warehouse.t

type t

val create :
  ?clock:Fault.Clock.t ->
  ?cache:bool ->
  ?workers:int ->
  ?breaker_threshold:int ->
  ?breaker_retry:Fault.Policy.retry ->
  ?fault:Fault.ctx ->
  source:source ->
  Strudel.Site.definition ->
  t
(** Builds and installs the first epoch synchronously (the engine is
    ready as soon as [create] returns).  [cache] (default [true])
    enables the shared render cache; [workers] (default 8) sizes the
    per-worker template-compilation cache pool; [fault] collects serve
    faults and may carry a seeded injector whose [Render_page] points
    fail page renders (the deterministic fault-injection hook of the
    serve tests). *)

val handle : ?worker:int -> t -> Http.request -> Http.response
(** Serve one request: site pages by URL ([/] is the root page), plus
    [/healthz] (liveness + degraded-state inventory), [/readyz]
    (readiness; 503 while draining) and [/faultz] (the fault
    manifest).  GET/HEAD only — anything else is 405.  [worker]
    selects the template-compilation cache slot; concurrent callers
    must pass distinct worker ids. *)

val refresh : ?jobs:int -> t -> bool
(** Pick up source changes: refresh the warehouse (snapshot-isolated),
    build the next epoch's serving state and swap it in atomically.
    Returns whether a new epoch was installed.  [false] for static
    engines and unchanged sources.  A refresh failure is recorded as a
    fault and reported per source — the previous epoch keeps serving. *)

val epoch : t -> int
val page_count : t -> int
(** Routable pages of the current epoch. *)

val set_draining : t -> bool -> unit
(** Flips [/readyz] to 503 so load balancers stop sending traffic;
    the daemon sets it when drain begins. *)

val degraded : t -> bool
(** Whether any breaker is open, any source is quarantined, or any
    degraded (503) response has been served — the drain exit-code
    input. *)

val manifest_json : t -> string
(** The fault manifest ([faults.json] shape): serve-stage faults plus
    everything the warehouse recorded. *)

val breaker : t -> Breaker.t
val cache_stats : t -> (int * int * int) option
(** Render-cache [(hits, misses, invalidations)]; [None] when caching
    is off. *)

type counters = {
  sc_requests : int;
  sc_page_ok : int;        (** 200s from a render or cache hit *)
  sc_not_modified : int;   (** 304s *)
  sc_not_found : int;      (** 404s *)
  sc_unavailable : int;    (** degraded 503s (breaker or render failure) *)
  sc_rejected : int;       (** 405s and 400-class *)
}

val counters : t -> counters
