(** Parallel page materialization on the persistent domain pool.

    The generator's page set is demand-driven: roots become pages, and
    every object a rendered page links to becomes a page transitively.
    That closure is order-independent, so it can be computed in {e
    waves} (BFS levels of the demand graph): render the current
    frontier's pages concurrently (each page render is a pure function
    of the graph — graph reads build no indexes and mutate nothing),
    collect the objects they link to, and repeat until no new page
    appears.

    Scheduling.  Each wave is cut into {e slices} of at most [slice]
    pages (the emission granularity — see below), and each slice is
    rendered through {!Pool.iter}: the workers claim chunks of it from
    one atomic cursor, so skewed page costs even out instead of
    stalling a round — there is no per-page locking and no round-robin
    barrier within a slice.  The worker domains persist across builds
    in {!Pool.shared}, so only the first parallel call of a process
    pays domain spawns.  Workers write results into per-page slots, so
    output never depends on which worker rendered what.

    Determinism and byte-identity with the sequential reference path
    ({!Template.Generator.generate}) rest on URL assignment and page
    order.  Pages here get slug-only URLs (the click-time convention,
    which the render cache's name-keyed entries rely on), and the
    concatenation of the wave frontiers — each frontier deduplicated in
    frontier × first-reference order — replays exactly the sequential
    generator's discovery queue, so pages are emitted in canonical
    order with no post-hoc reconstruction.  If two pages collide on a
    URL the pool discards its output and falls back to the sequential
    generator ([rp_fallback] — no site in this repository collides).

    Memory.  With a {!sink}, pages are {e streamed}: each slice's pages
    are handed to the sink in canonical order as soon as the slice
    settles and are never retained, so peak memory is bounded by the
    slice size, not the site size — a 1M-page site builds in the memory
    of a few thousand pages.  Without a sink the full
    {!Template.Generator.site} is returned as before.

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
  rp_fallback : bool;
      (** URL collision detected; the sequential generator's output was
          used instead of the pool's *)
  rp_degraded : int;
      (** pages that failed to render and were emitted as placeholders
          (always 0 under [~on_error:Abort]) *)
  rp_wall_ms : float;  (** whole materialization, main-domain clock *)
}

let pp_profile ppf p =
  Fmt.pf ppf
    "@[<v>jobs=%d pages=%d rendered=%d waves=%d wall=%.2fms \
     cache=%d/%d/%d (hit/miss/invalid)%s%s"
    p.rp_jobs p.rp_pages p.rp_rendered p.rp_waves p.rp_wall_ms
    p.rp_cache_hits p.rp_cache_misses p.rp_cache_invalidations
    (if p.rp_fallback then " FALLBACK(sequential)" else "")
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
          be re-emitted: a URL collision forced the sequential
          fallback, or a watch cycle dropped pages *)
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

(* How many pages a wave slice holds in memory at once (and the
   granularity of streaming emission and of deterministic fault-report
   ordering).  Must not depend on [jobs], or degraded manifests would
   not be reproducible across job counts. *)
let slice = 4096

(* --- Rendering pages on the workers --- *)

(* A build's render state: the job count, what every page render needs,
   one template-compilation cache per worker, and the per-worker
   tallies a profile reports. *)
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
  {
    rd_jobs = jobs;
    rd_file_loader = file_loader;
    rd_templates = templates;
    rd_on_error = on_error;
    rd_inject = Fault.inject fault;
    rd_trace = trace;
    rd_compiled = Array.init jobs (fun _ -> G.new_compiled ());
    rd_pages = Array.make jobs 0;
    rd_ms = Array.make jobs 0.;
    rd_ds = Dsan.alloc ~name:"Render_pool.shards";
  }

(* Render [o] on worker [w].  Under [Degrade] a failed (or
   injected-faulty) render is isolated: it yields a placeholder with an
   empty trace and the fault report. *)
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
      let page, report =
        G.degraded_page g o ~url:(G.slug (Oid.name o) ^ ".html") e
      in
      ({ G.r_page = page; r_reads = []; r_refs = [] }, Some report))

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
    ~fallback ~degraded =
  {
    rp_jobs = rd.rd_jobs;
    rp_pages = pages;
    rp_rendered = rendered;
    rp_waves = waves;
    rp_shards =
      List.init rd.rd_jobs (fun i ->
          Dsan.read ~site:__POS__ rd.rd_ds i;
          { sh_domain = i; sh_pages = rd.rd_pages.(i); sh_wall_ms = rd.rd_ms.(i) });
    rp_cache_hits = hits;
    rp_cache_misses = misses;
    rp_cache_invalidations = invalidations;
    rp_fallback = fallback;
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

(** Materialize the site's pages.  [jobs = 1] with no cache and no sink
    is the sequential reference path — a plain
    {!Template.Generator.generate}.  [jobs <= 0] auto-detects
    ({!Pool.auto_jobs}).  Otherwise the wave loop runs on [jobs]
    domains (the main domain renders alongside [jobs - 1] pool
    workers). *)
let materialize ?(jobs = 1) ?cache ?file_loader
    ?(templates = G.empty_templates) ?(on_error = Fault.Abort) ?fault ?sink
    (g : Graph.t) ~(roots : Oid.t list) : G.site * profile =
  let t0 = now_ms () in
  let jobs = if jobs <= 0 then Pool.auto_jobs () else jobs in
  let inject = Fault.inject fault in
  (* degraded (or injectable) builds always run the wave loop, even at
     [jobs = 1]: the sequential generator lets a failed render's
     partial work leak extra pages into its queue, so only the wave
     loop — which isolates each page render — keeps degraded output
     independent of [jobs] *)
  if
    jobs = 1 && cache = None && on_error = Fault.Abort && inject = None
    && sink = None
  then begin
    let site = G.generate ?file_loader ~templates g ~roots in
    let wall = now_ms () -. t0 in
    let pages = G.page_count site in
    ( site,
      {
        rp_jobs = 1;
        rp_pages = pages;
        rp_rendered = pages;
        rp_waves = 1;
        rp_shards = [ { sh_domain = 0; sh_pages = pages; sh_wall_ms = wall } ];
        rp_cache_hits = 0;
        rp_cache_misses = 0;
        rp_cache_invalidations = 0;
        rp_fallback = false;
        rp_degraded = 0;
        rp_wall_ms = wall;
      } )
  end
  else begin
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
    let seen = Oid.Tbl.create 1024 in
    let dedup os =
      List.filter
        (fun o ->
          if Oid.Tbl.mem seen o then false
          else begin
            Oid.Tbl.add seen o ();
            true
          end)
        os
    in
    let waves = ref 0 in
    let all_reports = ref [] in
    let pages_rev = ref [] in  (* only fed without a sink *)
    let emitted = ref 0 in
    let urls = Hashtbl.create 1024 in
    let collision = ref false in
    let emit (p : G.page) =
      if Hashtbl.mem urls p.G.url then collision := true
      else Hashtbl.add urls p.G.url ();
      (match sink with
       | Some s -> s.sk_emit p
       | None -> pages_rev := p :: !pages_rev);
      incr emitted
    in
    let frontier = ref (dedup roots) in
    while !frontier <> [] && not !collision do
      incr waves;
      let arr = Array.of_list !frontier in
      let n = Array.length arr in
      let refs_acc = ref [] in  (* per-page demand refs, reversed *)
      let s0 = ref 0 in
      while !s0 < n && not !collision do
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
        (* settle the slice on the main domain, in frontier order:
           cache verdicts and stores, fault reports (sorted by URL so
           manifests are identical whatever the scheduling produced),
           page emission, demand refs *)
        let sl_hits = ref 0 and sl_miss = ref 0 and sl_inval = ref 0 in
        let sl_reports = ref [] in
        for i = 0 to len - 1 do
          Dsan.read ~site:__POS__ ds_slice i;
          match slots.(i) with
          | Some (S_hit (p, refs)) ->
            incr sl_hits;
            refs_acc := refs :: !refs_acc;
            emit p
          | Some (S_fresh (r, report, stale)) ->
            if stale then incr sl_inval else incr sl_miss;
            (* placeholders never enter the cache: their empty read
               trace would re-validate vacuously forever *)
            (match (cache, report) with
             | Some c, None -> Render_cache.store c r
             | Some c, Some _ -> if stale then Render_cache.drop c arr.(base + i)
             | None, _ -> ());
            (match report with
             | Some rep -> sl_reports := rep :: !sl_reports
             | None -> ());
            refs_acc := r.G.r_refs :: !refs_acc;
            emit r.G.r_page
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
      done;
      (* next wave: referenced objects not yet seen, discovered in
         deterministic frontier × reference order — the concatenation of
         these frontiers replays the sequential generator's queue *)
      frontier := dedup (List.concat (List.rev !refs_acc))
    done;
    let mk_profile ~site_pages ~fallback ~degraded =
      let h, m, i =
        match cache with Some c -> Render_cache.stats c | None -> (0, 0, 0)
      in
      profile rd ~t0 ~pages:site_pages
        ~rendered:(Array.fold_left ( + ) 0 rd.rd_pages)
        ~waves:!waves ~hits:(h - h0) ~misses:(m - m0) ~invalidations:(i - i0) ~fallback
        ~degraded
    in
    if !collision then begin
      (* distinct pages share a slug: only the sequential generator's
         discovery-ordered uniquification produces the reference URLs,
         and name-keyed cache entries are ambiguous — drop them.  The
         pool's queued fault reports are discarded with its output; the
         generator records its own. *)
      (match cache with Some c -> Render_cache.clear c | None -> ());
      (match sink with Some s -> s.sk_reset () | None -> ());
      let site = G.generate ?file_loader ~templates ~on_error ?fault g ~roots in
      let degraded = List.length (List.filter G.is_placeholder site.G.pages) in
      let profile =
        mk_profile ~site_pages:(G.page_count site) ~fallback:true ~degraded
      in
      match sink with
      | Some s ->
        List.iter s.sk_emit site.G.pages;
        ({ G.pages = []; graph = g }, profile)
      | None -> (site, profile)
    end
    else begin
      (match fault with
       | Some c -> List.iter (Fault.record c) !all_reports
       | None -> ());
      let pages =
        match sink with Some _ -> [] | None -> List.rev !pages_rev
      in
      ( { G.pages; graph = g },
        mk_profile ~site_pages:!emitted ~fallback:false
          ~degraded:(List.length !all_reports) )
    end
  end
