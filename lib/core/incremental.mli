(** Incremental re-evaluation of a site after a data change (§6,
    [FER 98c]).

    The site graph is recomputed — graph construction is the cheap,
    structural part — but HTML pages are re-rendered only where the
    render cache's read traces no longer verify: a page is reused iff
    every graph read its rendering made still returns the same answer.
    Output is byte-identical to a cold {!Site.build} over the same
    data, pages in the same order. *)

open Sgraph

type rebuild_report = {
  built : Site.built;
  pages_total : int;
  pages_rerendered : int;
  pages_reused : int;
}

val rebuild :
  ?jobs:int ->
  cache:Render_cache.t ->
  ?file_loader:(string -> string option) ->
  ?on_error:Fault.on_error ->
  ?fault:Fault.ctx ->
  previous:Site.built -> data:Graph.t -> unit ->
  rebuild_report
(** Rebuild [previous]'s site over changed data: {!Site.build} with
    [~render_cache:cache], reporting how many pages were re-rendered
    and how many the cache served.  [previous] supplies only the
    definition; the reuse decisions come from [cache], so prime it by
    building [previous] through the same cache.  Re-renders run
    through {!Render_pool.materialize} with [jobs] domains and store
    fresh traces back into [cache].

    With [~on_error:Degrade], failed renders become placeholder pages
    with recorded faults; placeholders never enter the cache, so a page
    that failed re-renders for real once the fault clears. *)
