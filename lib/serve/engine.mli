(** The [strudeld] serving engine: published epochs, looked up per
    request.

    One engine serves one site definition over either a static data
    graph or a warehousing mediator.  An {e epoch} is what the system
    publishes for one consistent integration: an immutable map from
    URL to page bytes, their ETag and whether the page is a
    placeholder, filled through a {!Strudel.Render_pool.sink}.  A
    [Static] source fills it from one {!Strudel.Site.build}; a
    [Federated] source from a {!Watch} session, whose cycles emit only
    the pages their change re-rendered.  Both producers run with
    [~on_error:Degrade] and the engine's fault context.  Served URLs
    and bytes are therefore a cold build's, renamed URLs included:
    routes are exactly the pages a build writes, and pages render when
    an epoch is installed, never on request.

    A request pins the current epoch with one atomic read and only
    looks its page up.  {!refresh} runs the session's next cycle off to
    the side and installs the pages it left with one atomic swap — no
    request ever observes a half-refreshed view, and a refresh costs
    what its change costs.

    Degradation is page- or source-scoped, never process-wide: a page
    whose render failed is served as [503] with the fault manifest as
    body until a later changed cycle renders it, and a quarantined
    source keeps its last integrated data serving (the warehouse's
    stale-snapshot policy) and is reported on [/healthz]. *)

open Sgraph

type source =
  | Static of Graph.t
  | Federated of Mediator.Warehouse.t

type t

val create :
  ?fault:Fault.ctx -> source:source -> Strudel.Site.definition -> t
(** Builds and installs the first epoch synchronously (the engine is
    ready as soon as [create] returns): a static source is built once
    and keeps no session; a federated one primes a watch session.
    [fault] collects serve faults and may carry a seeded injector whose
    [Render_page] points fail page renders (the deterministic
    fault-injection hook of the serve tests).  Raises
    {!Strudel.Site.Build_error} when the root family is empty, as
    [strudel build] does. *)

val handle : t -> Http.request -> Http.response
(** Serve one request: site pages by URL ([/] is the root page), plus
    [/healthz] (liveness + degraded-state inventory), [/readyz]
    (readiness; 503 while draining) and [/faultz] (the fault
    manifest).  GET/HEAD only — anything else is 405.  A request
    renders nothing; any number of domains may call it at once. *)

val refresh : t -> bool
(** Pick up source changes: run the watch session's next cycle and,
    if it changed anything, install its pages as the next epoch with
    one atomic swap.  Returns whether a new epoch was installed.
    [false] for static engines and unchanged sources.  A cycle that
    raises is recorded as an [Integrate] fault and the previous epoch
    keeps serving. *)

val epoch : t -> int
val page_count : t -> int
(** Pages of the current epoch. *)

val set_draining : t -> bool -> unit
(** Flips [/readyz] to 503 so load balancers stop sending traffic;
    the daemon sets it when drain begins. *)

val degraded : t -> bool
(** Whether any source is quarantined, any fault was recorded, or any
    degraded (503) response has been served — the drain exit-code
    input. *)

val manifest_json : t -> string
(** The fault manifest ([faults.json] shape): serve-stage faults plus
    everything the warehouse recorded. *)

type counters = {
  sc_requests : int;
  sc_page_ok : int;        (** 200s *)
  sc_not_modified : int;   (** 304s *)
  sc_not_found : int;      (** 404s *)
  sc_unavailable : int;    (** degraded 503s (placeholder pages) *)
  sc_rejected : int;       (** 405s *)
}

val counters : t -> counters
