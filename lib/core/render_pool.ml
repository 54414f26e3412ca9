(** Page materialization on the persistent domain pool.

    The generator's page set is demand-driven: roots become pages, and
    every object a rendered page links to becomes a page transitively.
    That closure is order-independent, so it can be computed in {e
    waves} (BFS levels of the demand graph): render the current
    frontier's pages concurrently (each page render is a pure function
    of the graph — graph reads build no indexes and mutate nothing),
    collect the objects they link to, and repeat until no new page
    appears.  Every build discovers its pages with this wave loop, at
    every job count.

    Scheduling.  Each wave is cut into {e slices} of at most [slice]
    pages (the emission granularity — see below), and each slice is
    rendered through {!Pool.iter}: the workers claim chunks of it from
    one atomic cursor, so skewed page costs even out instead of
    stalling a round — there is no per-page locking and no round-robin
    barrier within a slice.  The worker domains persist across builds
    in {!Pool.shared}, so only the first parallel call of a process
    pays domain spawns.  Workers write results into per-page slots, so
    output never depends on which worker rendered what.

    Order and URLs.  A slice settles on the main domain in frontier
    order, and the concatenation of the wave frontiers — each frontier
    deduplicated in frontier × first-reference order — is the
    sequential discovery queue of the paper's generator, so pages are
    emitted in canonical order with no post-hoc reconstruction.  URLs
    are assigned in that same order: roots first, then, as each page
    settles, every page it references for the first time gets
    [slug.html], or the first [slug_N.html] no earlier page holds.
    Workers render with slug hrefs (the click-time convention, which
    the render cache's name-keyed entries rely on); a page that is
    itself renamed or links to a renamed page is rendered again on the
    main domain with the assigned hrefs before it is emitted, and that
    render never enters the cache.  The reference implementation of
    the same rule is the test oracle's sequential generator.

    Memory.  With a {!sink}, pages are {e streamed}: each slice's pages
    are handed to the sink in canonical order as soon as the slice
    settles and are never retained, so peak memory is bounded by the
    slice size, not the site size — a 1M-page site builds in the memory
    of a few thousand pages.  Without a sink the full
    {!Template.Generator.site} is returned.

    A {!Render_cache} short-circuits rendering with {e batched}
    lookups: entries for a whole slice are prefetched in one pass on
    the main domain, trace verification (pure graph reads) runs on the
    worker domains alongside rendering, and the verdicts are settled
    back into the cache on the main domain after the slice joins — the
    cache table itself is only ever mutated from the main domain. *)

module G = Template.Generator
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

let pp_profile ppf p =
  Fmt.pf ppf
    "@[<v>jobs=%d pages=%d rendered=%d waves=%d wall=%.2fms \
     cache=%d/%d/%d (hit/miss/invalid)%s"
    p.rp_jobs p.rp_pages p.rp_rendered p.rp_waves p.rp_wall_ms
    p.rp_cache_hits p.rp_cache_misses p.rp_cache_invalidations
    (if p.rp_degraded > 0 then Printf.sprintf " DEGRADED(%d)" p.rp_degraded
     else "");
  List.iter
    (fun s ->
      Fmt.pf ppf "@,  domain %d: %d pages, %.2fms" s.sh_domain s.sh_pages
        s.sh_wall_ms)
    p.rp_shards;
  Fmt.pf ppf "@]"

let now_ms () = Unix.gettimeofday () *. 1000.

(* --- Streaming emission --- *)

type sink = {
  sk_emit : G.page -> unit;
      (** called once per new or changed page, in canonical (sequential
          discovery) order; the pool retains nothing after the call *)
  sk_reset : unit -> unit;
      (** everything emitted so far is invalid and the whole site will
          be re-emitted: a watch cycle dropped a page or moved one to
          another URL *)
}

(** A sink that writes each page below [dir] as {!G.write_site} would
    (the directory is created if missing); reset removes every file it
    wrote. *)
let file_sink ~dir =
  let rec mkdirs d =
    if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      mkdirs (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdirs dir;
  let written = Hashtbl.create 64 in
  {
    sk_emit =
      (fun p ->
        let path = Filename.concat dir p.G.url in
        let oc = open_out path in
        output_string oc p.G.html;
        close_out oc;
        Hashtbl.replace written path ());
    sk_reset =
      (fun () ->
        Hashtbl.iter
          (fun p () -> try Sys.remove p with Sys_error _ -> ())
          written;
        Hashtbl.reset written);
  }

(* --- URL assignment ---

   A site's pages are named roots first, then in discovery order: each
   gets its slug URL, or else the first [slug_N.html] no page named
   before holds.  [given] holds the URLs given; since it only grows,
   every N below [next]'s entry for a slug URL is taken, so a slug URL
   shared by k pages costs k probes, not k². *)
module Stbl = Hashtbl.Make (String)

type names = { given : unit Stbl.t; next : int Stbl.t }

let names () = { given = Stbl.create 1024; next = Stbl.create 16 }

let rec free nm url base n =
  let u = base ^ "_" ^ Int.to_string n ^ ".html" in
  if Stbl.mem nm.given u then free nm url base (n + 1)
  else begin
    Stbl.replace nm.next url (n + 1);
    u
  end

let name_url nm url =
  let u =
    if not (Stbl.mem nm.given url) then url
    else
      free nm url (Filename.chop_suffix url ".html")
        (Option.value (Stbl.find_opt nm.next url) ~default:1)
  in
  Stbl.add nm.given u ();
  u

(* How many pages a wave slice holds in memory at once (and the
   granularity of streaming emission and of deterministic fault-report
   ordering).  Must not depend on [jobs], or degraded manifests would
   not be reproducible across job counts. *)
let slice = 4096

(* --- Rendering pages on the workers --- *)

(* A build's render state: the job count asked for, what every page
   render needs, and per participant — {!Pool.iter} runs at most the
   machine's domain count, whatever [jobs] says — a template-compilation
   cache and the tallies a profile reports. *)
type renderer = {
  rd_jobs : int;
  rd_file_loader : (string -> string option) option;
  rd_templates : G.template_set;
  rd_on_error : Fault.on_error;
  rd_inject : Fault.Inject.t option;
  rd_trace : bool;
  rd_compiled : G.compiled array;
  rd_pages : int array;
  rd_ms : float array;
  (* sanitizer identity for the per-worker tallies: field [w] covers
     [rd_pages.(w)]/[rd_ms.(w)]/[rd_compiled.(w)] — written only by
     worker [w], read by the main domain after the pool barrier *)
  rd_ds : int;
}

let renderer ?(jobs = 1) ?file_loader ?(templates = G.empty_templates)
    ?(on_error = Fault.Abort) ?fault ?(trace = true) () =
  let jobs = if jobs <= 0 then Pool.auto_jobs () else jobs in
  let workers = min jobs (Pool.auto_jobs ()) in
  {
    rd_jobs = jobs;
    rd_file_loader = file_loader;
    rd_templates = templates;
    rd_on_error = on_error;
    rd_inject = Fault.inject fault;
    rd_trace = trace;
    rd_compiled = Array.init workers (fun _ -> G.new_compiled ());
    rd_pages = Array.make workers 0;
    rd_ms = Array.make workers 0.;
    rd_ds = Dsan.alloc ~name:"Render_pool.shards";
  }

let restart rd =
  for w = 0 to Array.length rd.rd_pages - 1 do
    Dsan.write ~site:__POS__ rd.rd_ds w;
    rd.rd_pages.(w) <- 0;
    rd.rd_ms.(w) <- 0.
  done

(* Render [o] on worker [w], with slug hrefs.  Under [Degrade] a failed
   (or injected-faulty) render is isolated: it yields a placeholder
   with an empty trace and the fault report. *)
let render_one rd w g o =
  let render () =
    Fault.Inject.fire rd.rd_inject (Fault.Inject.Render_page (Oid.name o));
    G.render_page_full ?file_loader:rd.rd_file_loader
      ~templates:rd.rd_templates ~compiled:rd.rd_compiled.(w)
      ~trace_reads:rd.rd_trace g o
  in
  Dsan.write ~site:__POS__ rd.rd_ds w;
  rd.rd_pages.(w) <- rd.rd_pages.(w) + 1;
  match rd.rd_on_error with
  | Fault.Abort -> (render (), None)
  | Fault.Degrade -> (
    try (render (), None)
    with e ->
      let page, report = G.degraded_page g o ~url:(G.slug_url o) e in
      ({ G.r_page = page; r_reads = []; r_refs = [] }, Some report))

(* [o]'s page rendered again on the main domain, which is worker 0 and
   idle between fan-outs, with [href]'s URLs.  Only a page that
   rendered (or verified) before comes here, so it renders again; the
   render is neither traced nor counted. *)
let rerender rd ~href g o =
  Dsan.write ~site:__POS__ rd.rd_ds 0;
  (G.render_page_full ?file_loader:rd.rd_file_loader
     ~templates:rd.rd_templates ~compiled:rd.rd_compiled.(0) ~href g o)
    .G.r_page

(* Run [f w i] for every [i < len] on the renderer's workers, worker 0
   being the main domain; each worker's clock runs per chunk. *)
let fan_out rd ~len f =
  Pool.iter Pool.shared ~jobs:rd.rd_jobs len (fun w lo hi ->
      let t = now_ms () in
      for i = lo to hi - 1 do
        f w i
      done;
      Dsan.write ~site:__POS__ rd.rd_ds w;
      rd.rd_ms.(w) <- rd.rd_ms.(w) +. (now_ms () -. t))

(* Worker domains read the live graph, which nothing mutates while
   they render: every graph read records a sanitizer read, so a
   mutation racing them is reported. *)
let render_pages rd g (os : Oid.t array) =
  let n = Array.length os in
  let out = Array.make n None in
  (* sanitizer identity for the batch: field [i] covers [out.(i)] *)
  let ds = Dsan.alloc ~name:"Render_pool.batch" in
  fan_out rd ~len:n (fun w i ->
      Dsan.write ~site:__POS__ ds i;
      out.(i) <- Some (render_one rd w g os.(i)));
  Array.mapi
    (fun i r ->
      Dsan.read ~site:__POS__ ds i;
      match r with Some r -> r | None -> assert false)
    out

let profile rd ~t0 ~pages ~rendered ~waves ~hits ~misses ~invalidations
    ~degraded =
  {
    rp_jobs = rd.rd_jobs;
    rp_pages = pages;
    rp_rendered = rendered;
    rp_waves = waves;
    rp_shards =
      List.init (Array.length rd.rd_pages) (fun i ->
          Dsan.read ~site:__POS__ rd.rd_ds i;
          { sh_domain = i; sh_pages = rd.rd_pages.(i); sh_wall_ms = rd.rd_ms.(i) });
    rp_cache_hits = hits;
    rp_cache_misses = misses;
    rp_cache_invalidations = invalidations;
    rp_degraded = degraded;
    rp_wall_ms = now_ms () -. t0;
  }

(* Per-page result slot, written by exactly one worker; the pool
   barrier publishes the writes to the main domain. *)
type slot =
  | S_hit of G.page * Oid.t list
      (** verified cache entry: page + resolved demand refs *)
  | S_fresh of G.rendered * Fault.report option * bool
      (** fresh render (placeholder iff report present); the flag marks
          a stale entry this render replaced (an invalidation, not a
          miss) *)

(** Materialize the site's pages: the wave loop on [jobs] domains
    ([jobs <= 0] auto-detects, {!Pool.auto_jobs}), the main domain
    rendering alongside [jobs - 1] pool workers. *)
let materialize ?(jobs = 1) ?cache ?file_loader
    ?(templates = G.empty_templates) ?(on_error = Fault.Abort) ?fault ?sink
    (g : Graph.t) ~(roots : Oid.t list) : G.site * profile =
  let t0 = now_ms () in
  (* the cache keys entries and replays reads by node name: where two
     nodes share one, an entry could stand for the other's page *)
  let cache = if Graph.names_shared g then None else cache in
  (match cache with
   | Some c -> Render_cache.set_templates c templates
   | None -> ());
  let h0, m0, i0 =
    match cache with Some c -> Render_cache.stats c | None -> (0, 0, 0)
  in
  let rd =
    renderer ~jobs ?file_loader ~templates ~on_error ?fault
      ~trace:(cache <> None) ()
  in
  (* URL assignment in discovery order: [seen] holds every page given a
     URL, [nm] every URL given, [renamed] maps the pages whose URL is
     not their slug URL to theirs, and [next] is the next wave's
     frontier, newest first.  Workers render with slug hrefs. *)
  let seen = Oid.Tbl.create 1024 and nm = names () in
  let renamed = Oid.Tbl.create 16 and next = ref [] in
  let assign o =
    if not (Oid.Tbl.mem seen o) then begin
      Oid.Tbl.add seen o ();
      next := o :: !next;
      let url = G.slug_url o in
      let u = name_url nm url in
      if u <> url then Oid.Tbl.add renamed o u
    end
  in
  let href o =
    match Oid.Tbl.find_opt renamed o with Some u -> u | None -> G.slug_url o
  in
  let waves = ref 0 in
  let all_reports = ref [] in
  let pages_rev = ref [] in  (* only fed without a sink *)
  let emitted = ref 0 in
  (* Emit [o]'s page once the pages it references have URLs (given
     in [refs], or [hit_refs] for a cache hit): a placeholder takes
     [o]'s URL, and a page that is renamed or links to a renamed page
     renders again with the assigned hrefs. *)
  let settle_page o (p : G.page) ?(refs = []) ?(hit_refs = []) ~placeholder ()
      =
    List.iter (fun (o', _) -> assign o') refs;
    List.iter assign hit_refs;
    let p =
      if Oid.Tbl.length renamed = 0 then p
      else if placeholder then { p with G.url = href o }
      else if
        Oid.Tbl.mem renamed o
        || List.exists (fun (o', _) -> Oid.Tbl.mem renamed o') refs
        || List.exists (Oid.Tbl.mem renamed) hit_refs
      then rerender rd ~href g o
      else p
    in
    (match sink with
     | Some s -> s.sk_emit p
     | None -> pages_rev := p :: !pages_rev);
    incr emitted
  in
  List.iter assign roots;
  while !next <> [] do
    let arr = Array.of_list (List.rev !next) in
    next := [];
    incr waves;
    let n = Array.length arr in
    let s0 = ref 0 in
    while !s0 < n do
      let base = !s0 in
      let len = min slice (n - base) in
      s0 := base + len;
      let ents =
        match cache with
        | Some c -> Render_cache.peek_batch c (Array.sub arr base len)
        | None -> Array.make (min len 1) None
      in
      let slots : slot option array = Array.make len None in
      (* sanitizer identity for the slice: field [i] covers cell [i]
         of [ents] (written on the main domain before fan-out) and of
         [slots] (written by exactly one worker, read at settle) *)
      let ds_slice = Dsan.alloc ~name:"Render_pool.slice" in
      if Dsan.enabled () then
        for i = 0 to len - 1 do
          Dsan.write ~site:__POS__ ds_slice i
        done;
      (* executed on worker domains: verify the prefetched entry or
         render; each slot is written by exactly one worker *)
      let process w i =
        Dsan.write ~site:__POS__ ds_slice i;
        let o = arr.(base + i) in
        match if cache = None then None else ents.(i) with
        | Some e when Render_cache.verify ?file_loader g e ->
          slots.(i) <-
            Some
              (S_hit
                 (Render_cache.page_of_entry e o,
                  Render_cache.refs_of_entry g e))
        | ent ->
          let r, report = render_one rd w g o in
          slots.(i) <- Some (S_fresh (r, report, ent <> None))
      in
      fan_out rd ~len process;
      (* settle the slice on the main domain, in frontier order: cache
         verdicts and stores, fault reports (sorted by URL so manifests
         are identical whatever the scheduling produced), URLs for the
         pages referenced, page emission *)
      let sl_hits = ref 0 and sl_miss = ref 0 and sl_inval = ref 0 in
      let sl_reports = ref [] in
      for i = 0 to len - 1 do
        Dsan.read ~site:__POS__ ds_slice i;
        let o = arr.(base + i) in
        match slots.(i) with
        | Some (S_hit (p, refs)) ->
          incr sl_hits;
          settle_page o p ~hit_refs:refs ~placeholder:false ()
        | Some (S_fresh (r, report, stale)) ->
          if stale then incr sl_inval else incr sl_miss;
          (* placeholders never enter the cache: their empty read
             trace would re-validate vacuously forever *)
          (match (cache, report) with
           | Some c, None -> Render_cache.store c r
           | Some c, Some _ -> if stale then Render_cache.drop c o
           | None, _ -> ());
          (match report with
           | Some rep ->
             sl_reports := { rep with Fault.f_location = href o } :: !sl_reports
           | None -> ());
          settle_page o r.G.r_page ~refs:r.G.r_refs
            ~placeholder:(report <> None) ()
        | None -> assert false  (* Pool.iter re-raised before settling *)
      done;
      (match cache with
       | Some c ->
         Render_cache.settle c ~hits:!sl_hits ~misses:!sl_miss
           ~invalidations:!sl_inval
       | None -> ());
      all_reports :=
        !all_reports
        @ List.sort
            (fun a b -> compare a.Fault.f_location b.Fault.f_location)
            (List.rev !sl_reports)
    done
  done;
  (match fault with
   | Some c -> List.iter (Fault.record c) !all_reports
   | None -> ());
  let h, m, i =
    match cache with Some c -> Render_cache.stats c | None -> (0, 0, 0)
  in
  ( { G.pages = List.rev !pages_rev; graph = g },
    profile rd ~t0 ~pages:!emitted
      ~rendered:(Array.fold_left ( + ) 0 rd.rd_pages)
      ~waves:!waves ~hits:(h - h0) ~misses:(m - m0) ~invalidations:(i - i0)
      ~degraded:(List.length !all_reports) )
