(** [strudel watch]: differential site maintenance from ingest to
    publish.

    A watch session pairs a {!Struql.Dexec} engine (the maintained site
    graph with its recorded construction events) with a
    {!Strudel.Page_table} of the pages it published and the previously
    published build.  {!cycle} drives one turn of the loop: pick up
    what changed at the sources (a recorder flush in direct mode, a
    {!Mediator.Warehouse.refresh_delta} in mediated mode), maintain the
    site graph differentially, then visit only the pages that read a
    changed node, re-render those whose read traces the change
    invalidated, and hand the sink just those pages.  Published output
    is byte-identical to a cold {!Strudel.Site.build} over the same
    data, at O(change) cost; clearing {!Struql.Exec.delta_enabled}
    falls back to full re-derivation through the same pipeline.

    Source faults degrade, never abort: a quarantined source keeps
    serving its last integrated data (the warehouse's stale-snapshot
    policy) and is reported per cycle. *)

open Sgraph

type source =
  | Direct of Graph.t
      (** watch an in-process data graph; mutate it only through the
          session's {!recorder} so changes are observed *)
  | Mediated of Mediator.Warehouse.t
      (** watch a warehousing mediator; each {!cycle} polls
          {!Mediator.Warehouse.refresh_delta} *)

type t

type cycle_report = {
  cy_cycle : int;
  cy_changed : bool;  (** [false]: sources were clean, nothing ran *)
  cy_delta_card : int;  (** data-graph changes consumed *)
  cy_drivers : int;  (** drivers re-derived *)
  cy_rows : int;  (** binding rows re-derived *)
  cy_touched : int;
      (** site nodes created or whose out-edges or collections changed *)
  cy_removed : int;  (** site nodes removed *)
  cy_rerendered : int;
  cy_reused : int;
  cy_fallbacks : (string * string) list;
      (** (block path, reason) of full block replays this cycle *)
  cy_quarantined : (string * string) list;
      (** (source, reason) of sources serving stale data this cycle *)
  cy_mapped : (int * int) option;
      (** mediated mode: the GAV mappings the cycle's integration ran,
          of all mappings — the rest replayed their construction logs
          or were skipped ({!Mediator.Warehouse.last_runs}) *)
  cy_wall_ms : float;
}

val create :
  ?jobs:int ->
  ?on_error:Fault.on_error ->
  ?fault:Fault.ctx ->
  ?sink:Strudel.Render_pool.sink ->
  source:source ->
  Strudel.Site.definition ->
  t
(** Cold-start the session: prime the differential engine (recording
    every construction event) and publish the initial build, filling
    the page table in the same pass.  [jobs] parallelizes both the
    renders and, in mediated mode, source loads; [sink] additionally
    streams pages out (e.g. {!Strudel.Render_pool.file_sink}): every
    page on the initial publish, then on each changed cycle only the
    pages it rendered — or a reset and every page, when the cycle
    dropped pages.  Raises {!Strudel.Site.Build_error} when the root
    family is empty, as {!Strudel.Site.build} would. *)

val cycle : t -> cycle_report
(** One turn of the watch loop: ingest the pending change, maintain
    the site graph, publish.  Cheap when nothing changed
    ([cy_changed = false]). *)

val push : ?data:Graph.t -> t -> Delta.t -> cycle_report
(** Feed one externally computed delta through the maintain-and-publish
    leg — the file-watch ingest path ([strudel watch --data]), where
    the caller re-reads the changed input, {!Sgraph.Delta.rebase}s it
    onto the engine's graph and passes the rebased graph as [data]
    with the {!Sgraph.Delta.diff} between the two. *)

val built : t -> Strudel.Site.built
(** The current publish (updated after each changed cycle). *)

val engine : t -> Struql.Dexec.t
(** The maintained engine — counters, classifications and fallback
    reasons for [explain-analyze] surfaces. *)

val cache : t -> Strudel.Render_cache.t
(** The session's page statistics, counted as a render cache would:
    a page a cycle reused is a hit, one it re-rendered an
    invalidation, a new page (or a retried placeholder) a miss.  The
    cache holds no entries; the page table keeps the pages. *)

val recorder : t -> Delta.Rec.r option
(** Direct mode's mutation recorder: apply data-graph edits through it
    and the next {!cycle} picks them up.  [None] in mediated mode. *)

val warehouse : t -> Mediator.Warehouse.t option
(** Mediated mode's warehouse.  [None] in direct mode. *)

val pp_report : Format.formatter -> cycle_report -> unit
(** One line per cycle (plus fallback/quarantine detail lines) — the
    [strudel watch] console format; a mediated cycle's line carries
    [mapped=ran/total]. *)
