(** The watch session's published pages, kept across delta cycles.

    {!Struql.Dexec} maintains the site graph in place, so a site node
    keeps its oid for the whole session.  The table keys every
    published page by its object's oid and keeps, per page, the bytes,
    the read trace of its last render and its demand refs (the pages
    it links to) as table slots.  A reverse index maps each node a
    trace read to the pages that read it.

    A cycle ({!update}) then costs what the change costs: the
    candidates are the readers of the touched and removed nodes, plus
    the placeholders, which are retried every cycle.  A candidate is
    reused when every read of a changed node replays to its recorded
    hash and every page it links to still exists; otherwise it
    re-renders.  Refs a re-render added become new pages.  When a ref
    list changed or the root set changed, discovery order is
    recomputed over the slots' refs from the roots (a breadth-first
    pass over dense arrays, no name lookups), which also finds the
    pages no longer reachable; those are dropped.  Pages come out in
    cold-build discovery order and byte-identical to a cold
    {!Site.build}.  Pages render with no file loader.

    A URL moves only when discovery order is recomputed: then, while
    two pages share a slug URL or the last naming renamed a page, the
    pass names every page as the wave loop does
    ({!Render_pool.name_url}) and keeps their URLs; pages renamed or
    linking to a renamed page render again with the assigned hrefs,
    and a renamed placeholder's fault report takes its URL.  A sink
    receives only the pages a cycle rendered, in discovery order; a
    cycle that drops a published page or moves one to another URL
    resets the sink and re-emits the whole site. *)

open Sgraph

type t

val create :
  ?jobs:int ->
  ?on_error:Fault.on_error ->
  ?fault:Fault.ctx ->
  ?sink:Render_pool.sink ->
  templates:Template.Generator.template_set ->
  root_family:string ->
  Graph.t ->
  roots:Oid.t list ->
  t * (Template.Generator.site * Render_pool.profile)
(** Render the site reachable from [roots] over the graph — the
    session's first publish — filling the table in the same pass, and
    emit every page to [sink].  Returns the table with that publish.
    The graph must stay the one the session maintains.  [jobs],
    [on_error] and [fault] mean what they mean to
    {!Render_pool.materialize}; render faults are recorded in [fault]
    per render batch, sorted by URL.  A profile counts pages as a
    render cache would: a reused page is a hit, a re-rendered one an
    invalidation, a new one (or a retried placeholder) a miss. *)

val update :
  t -> touched:Oid.t list -> removed:Oid.t list ->
  Template.Generator.site * Render_pool.profile
(** Bring the pages up to date after the graph changed.  [touched] must
    hold every node that was created or whose ordered out-edges or
    collection list changed, and [removed] every node that was removed
    ({!Struql.Dexec.apply}'s exact sets).  The roots are re-read only
    when one of these nodes belongs to the root family.  Returns the
    whole site, pages in discovery order, and the cycle's profile.  If
    a render raises (under [~on_error:Abort]) the table is emptied
    before the exception propagates, and the next update renders the
    site afresh. *)

val idle : t -> bool
(** [true] when an {!update} with no touched or removed node would
    reuse every page as it is: the table holds the last publish and no
    placeholder to retry.  [false] after a render raised, since the
    table is then empty. *)
