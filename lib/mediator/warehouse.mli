(** The warehousing mediator (§2.3).

    STRUDEL's prototype materializes the integrated view: data from all
    sources is loaded into the repository and queries run against the
    warehouse.  The warehouse tracks per-source versions; {!refresh}
    re-integrates when any source changed, serving unchanged sources
    from their wrapper caches.

    Each integration produces an immutable {!view} installed by an
    atomic swap: site builds, incremental rebuilds, and click-time
    browsing {!pin} a view once and work against that snapshot while
    refreshes proceed off to the side — snapshot isolation, never a
    half-refreshed mix.  A view keeps, beside its Skolem scope, the
    construction log of every single-source mapping ({!Gav.logs}): the
    next integration replays the logs of the mappings whose sources
    did not change and evaluates only the rest, so a pinned view holds
    its own logs and refreshes share no mutable state. *)

open Sgraph

type t

(** Per-source outcome of the most recent integration. *)
type outcome =
  | Changed  (** the source's version bumped and its data was reloaded *)
  | Unchanged  (** served from the wrapper cache *)
  | Quarantined of string
      (** the load failed; the fault policy skipped the source or served
          a stale snapshot (the reason is the last load exception) *)

type source_stat = {
  ss_source : string;
  ss_outcome : outcome;
  ss_duration_ms : float;  (** load-attempt wall time on the warehouse clock *)
  ss_version : int;
}

(** One consistent integration: the mediated graph and the state the
    next integration starts from. *)
type view

val create :
  ?options:Struql.Eval.options ->
  ?clock:Fault.Clock.t ->
  ?snapshots:Repository.Store.t ->
  ?fault:Fault.ctx ->
  ?jobs:int ->
  sources:Source.t list ->
  mappings:Gav.mapping list ->
  unit ->
  t
(** Builds the initial integration.  With [snapshots] and/or [fault],
    sources load through {!Source.load_with} — honouring each source's
    fault policy (retry/backoff on [clock], skip, or stale-snapshot
    fallback persisted in [snapshots]) — and integration faults are
    recorded in [fault]; without either, loads are direct and the first
    failure aborts, exactly as before.

    [jobs] (default [1]) is the default parallelism of {!refresh}:
    above 1, {e all} declared sources are load-attempted eagerly across
    that many domains, then settled sequentially in declared order.
    Fault injectors and virtual clocks are not domain-safe; tests using
    them should keep [jobs = 1]. *)

val pin : t -> view
(** The current view, read atomically.  Everything reached through the
    returned view is immutable with respect to refreshes: build pages
    against it for as long as needed. *)

val view_epoch : view -> int
val view_graph : view -> Graph.t

val graph : t -> Graph.t
(** [view_graph (pin w)]. *)

val scope_size : t -> int
(** Skolem terms in the current view's mediation scope.  Every
    integration runs under a fresh scope that takes the previous one's
    oid for each term it builds again, so a mediated object keeps its
    oid across refreshes while the scope holds exactly one
    integration's terms. *)

val last_runs : t -> Gav.run list
(** How each mapping took part in the current view's integration, in
    declared order: evaluated, its construction log replayed (its input
    could not have changed since the previous integration), or skipped
    (its source was unavailable). *)

val stale : t -> bool
(** Whether any source changed since the last integration. *)

val refresh : ?jobs:int -> t -> bool
(** Re-integrate if stale; returns whether a rebuild happened.  The new
    graph is built completely before the view swap, so concurrent
    readers holding pinned views never observe a half-refreshed mix.
    [jobs] overrides the warehouse default for this refresh only. *)

val refresh_delta : ?jobs:int -> t -> Delta.t option
(** Delta refresh: like {!refresh}, and returns the structural
    {!Sgraph.Delta.diff} between the previous view and the new one —
    the change currency [strudel watch] feeds to the differential
    evaluator.  The view is the fresh integration itself, equal to a
    cold {!create} over the same sources in every index order: it is
    not rebased.  Its oids are stable already, because each reloaded
    source is rebased onto its own previous load ({!Source.update})
    and the integration reuses the previous scope's oids
    ({!scope_size}), so the work tracks the changed source, not the
    mediated graph.  A mapping whose source did not change replays its
    construction log from the previous view instead of running again
    ({!Gav.integrate}, {!last_runs}); a ["*"] join runs every time.  [None] when no source
    changed ([refresh] would have returned [false]); [Some Delta.empty]
    when versions bumped
    without a content change.  Source fault policies apply as in
    {!refresh}: a quarantined source serves its previous data and
    contributes nothing to the delta. *)

val refresh_count : t -> int
(** Number of integrations performed (including the initial one). *)

val last_refresh : t -> source_stat list
(** Per-source outcomes of the most recent integration, in declared
    source order.  With [jobs = 1] only sources some mapping consulted
    appear; with [jobs > 1] every declared source does. *)

val faults : t -> Fault.report list
(** Reports recorded in the warehouse's fault context, oldest first
    ([[]] without a context). *)

val find_source : t -> string -> Source.t option

val pp_outcome : Format.formatter -> outcome -> unit
val pp_stats : Format.formatter -> source_stat list -> unit
(** The [strudel build --stats] / [strudel repo status] table body. *)
