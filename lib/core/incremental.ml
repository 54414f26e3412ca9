(** Incremental re-evaluation of a site after a data change (§6,
    [FER 98c] "Warehousing and Incremental Evaluation for Web-site
    Management").

    Graph construction is the cheap, structural part, so a rebuild
    recomputes the site graph; HTML pages, the expensive rendered
    artifacts, are reused wherever the render cache's read traces still
    verify.  A rebuild is therefore a cold {!Site.build} over the
    cache, and the delta publish is {!Site.publish} over a site graph
    the delta engine maintained in place. *)

type rebuild_report = {
  built : Site.built;
  pages_total : int;
  pages_rerendered : int;
  pages_reused : int;
}

let report_of (built : Site.built) =
  let p = built.Site.render_profile in
  {
    built;
    pages_total = p.Render_pool.rp_pages;
    pages_rerendered = p.Render_pool.rp_rendered;
    pages_reused = p.Render_pool.rp_pages - p.Render_pool.rp_rendered;
  }

(** The differential publish leg ([strudel watch]): the site graph has
    already been maintained in place by {!Struql.Dexec}, so query
    re-evaluation is skipped entirely and only the render stage runs —
    against the cross-epoch [cache], whose verifying read traces give
    exact page invalidation.  [touched]/[removed] are the site-node
    names the delta cycle reported: when both are empty the previous
    pages are reused wholesale without touching the render pipeline. *)
let publish_delta ?jobs ?file_loader ?on_error ?fault ?sink ~cache
    ~(previous : Site.built) ~data ~site_graph ~scope ~touched ~removed () :
    rebuild_report =
  let def = previous.Site.def in
  if touched = [] && removed = [] then
    let total =
      List.length previous.Site.site.Template.Generator.pages
    in
    {
      built = { previous with Site.data; site_graph; scope };
      pages_total = total;
      pages_rerendered = 0;
      pages_reused = total;
    }
  else begin
    (* the delta cycle's touched ∪ removed names are exactly the site
       nodes whose adjacency changed: hand them to the render pool so
       trace verification replays only reads of changed nodes *)
    let dirty =
      let tbl = Hashtbl.create 64 in
      List.iter (fun n -> Hashtbl.replace tbl n ()) touched;
      List.iter (fun n -> Hashtbl.replace tbl n ()) removed;
      fun n -> Hashtbl.mem tbl n
    in
    report_of
      (Site.publish ?jobs ~cache ~dirty ?file_loader ?on_error ?fault ?sink
         ~refreeze:false
         ~roots:(Site.roots_of site_graph def.Site.root_family)
         ~def ~data ~site_graph ~scope ~schemas:previous.Site.schemas
         ~query_stats:previous.Site.query_stats ())
  end

(** Rebuild the site over changed data: a cold {!Site.build} of
    [previous]'s definition through [cache], which re-renders exactly
    the pages whose read traces the change invalidated. *)
let rebuild ?jobs ~cache ?file_loader ?on_error ?fault ?shards
    ~(previous : Site.built) ~data () : rebuild_report =
  report_of
    (Site.build ?jobs ~render_cache:cache ?file_loader ?on_error ?fault
       ?shards ~data previous.Site.def)
