(** Incremental re-evaluation of a site after a data change (§6,
    [FER 98c] "Warehousing and Incremental Evaluation for Web-site
    Management").

    Graph construction is the cheap, structural part, so a rebuild
    recomputes the site graph; HTML pages, the expensive rendered
    artifacts, are reused wherever the render cache's read traces still
    verify.  A rebuild is therefore a cold {!Site.build} over the
    cache.  The watch session's delta publish keeps its pages in a
    {!Page_table} instead. *)

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

(** Rebuild the site over changed data: a cold {!Site.build} of
    [previous]'s definition through [cache], which re-renders exactly
    the pages whose read traces the change invalidated. *)
let rebuild ?jobs ~cache ?file_loader ?on_error ?fault
    ~(previous : Site.built) ~data () : rebuild_report =
  report_of
    (Site.build ?jobs ~render_cache:cache ?file_loader ?on_error ?fault ~data
       previous.Site.def)
