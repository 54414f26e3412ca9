(* Differential suite for the render pool: builds at jobs ∈ {1,2,4,8}
   must be byte-identical to the test oracle's sequential generator —
   same page URLs, same bytes, same Skolem page identities, in the same
   order — on every example site and under randomized mutations of the
   data graph.  The collision differential does the same on a site
   whose pages clash on slug URLs, held and streamed, through a render
   cache, degraded, and in a watch session. *)

open Sgraph

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let job_levels = [ 1; 2; 4; 8 ]

(* (url, skolem name, html) per page, in generator order: comparing the
   full triple list checks byte-identity AND identical page identities
   AND identical discovery order at once *)
let page_triples (site : Template.Generator.site) =
  List.map
    (fun (p : Template.Generator.page) ->
      ( p.Template.Generator.url,
        Oid.name p.Template.Generator.obj,
        p.Template.Generator.html ))
    site.Template.Generator.pages

(* the oracle's pages over a build's site graph *)
let oracle_triples (b : Strudel.Site.built) =
  page_triples
    (Oracle.generate ~templates:b.Strudel.Site.def.Strudel.Site.templates
       b.Strudel.Site.site_graph
       ~roots:(Strudel.Site.build_roots b.Strudel.Site.site_graph b.Strudel.Site.def))

let sites_under_test () =
  [
    ("paper", Sites.Paper_example.definition, Sites.Paper_example.data ());
    ("cnn", Sites.Cnn.definition, Sites.Cnn.data ~articles:20 ());
    ( "org",
      Sites.Org.definition,
      let _, w = Sites.Org.data ~people:20 ~orgs:3 () in
      Mediator.Warehouse.graph w );
    ("homepage", Sites.Homepage.definition, Sites.Homepage.data ~entries:12 ());
    ("rodin", Sites.Rodin.definition, Sites.Rodin.data ~extra_projects:2 ());
  ]

let shape_data name =
  fst
    (Ddl.parse ~graph_name:name
       {|object x1 in C { a "a1" a "a2" b "b1" featured "yes" title "One" }
object x2 in C { a "a3" b "b2" featured "no" title "Two" }
object x3 in C { a "a4" b "b3" title "Three" }
object x4 in C { a "a5" b "b4" title "Four" }
object x5 in C { a "a6" b "b5" title "Five" }
|})

(* Shape A: one block links a page to two attributes, so a cold build
   lists P(x1)'s out-edges row by row (a1, b1, a2), not clause by
   clause (a1, a2, b1).  No templates: the default page prints every
   out-edge in order. *)
let shape_a () =
  ( "shape-a",
    Strudel.Site.define ~name:"shape-a" ~root_family:"Root"
      [
        ( "site",
          {|{ CREATE Root() }
            { WHERE C(x), x -> "a" -> va, x -> "b" -> vb
              CREATE P(x)
              LINK Root() -> "item" -> P(x), P(x) -> "a" -> va,
                   P(x) -> "b" -> vb }
            OUTPUT A|} );
      ],
    shape_data "shape-a" )

(* Shape B: a COLLECT with its own WHERE, placed before the block that
   creates the pages, puts only x1's page in Featured; every other
   page takes the Items template. *)
let shape_b () =
  ( "shape-b",
    Strudel.Site.define ~name:"shape-b" ~root_family:"Root"
      ~templates:
        {
          Template.Generator.by_object = [];
          by_collection =
            [
              ("Featured", "<h1>Featured: <SFMT @title></h1>\n");
              ("Items", "<p>Item: <SFMT @title></p>\n");
            ];
          named = [];
        }
      [
        ( "site",
          {|{ CREATE Root() }
            { WHERE C(x), x -> "featured" -> "yes" COLLECT Featured(P(x)) }
            { WHERE C(x), x -> "title" -> t
              CREATE P(x)
              LINK Root() -> "item" -> P(x), P(x) -> "title" -> t
              COLLECT Items(P(x)) }
            OUTPUT B|} );
      ],
    shape_data "shape-b" )

let example_site_tests =
  List.map
    (fun (name, def, data) ->
      t
        (Printf.sprintf "%s: parallel builds byte-identical to sequential"
           name)
        (fun () ->
          let seq_pages = oracle_triples (Strudel.Site.build ~data def) in
          check_bool (name ^ " has pages") true (seq_pages <> []);
          List.iter
            (fun jobs ->
              let b = Strudel.Site.build ~jobs ~data def in
              let prof = b.Strudel.Site.render_profile in
              check_int
                (Printf.sprintf "%s jobs=%d profile jobs" name jobs)
                jobs prof.Strudel.Render_pool.rp_jobs;
              check_bool
                (Printf.sprintf "%s jobs=%d pages identical" name jobs)
                true
                (page_triples b.Strudel.Site.site = seq_pages))
            job_levels))
    (sites_under_test ())

(* randomized inputs: the site queries run over randomly mutated data
   graphs; the parallel build must track the sequential one on each *)
let parallel_equals_sequential_random muts =
  let data = Sites.Cnn.data ~articles:Test_end_to_end_props.articles () in
  Test_end_to_end_props.apply_mutations data Test_end_to_end_props.articles
    muts;
  let reference =
    oracle_triples (Strudel.Site.build ~data Sites.Cnn.definition)
  in
  List.for_all
    (fun jobs ->
      let b = Strudel.Site.build ~jobs ~data Sites.Cnn.definition in
      page_triples b.Strudel.Site.site = reference)
    job_levels

(* scheduler correctness under fault injection: an injector's fail
   decisions are a pure hash of (seed, point) — jobs-independent — so a
   degraded build at every jobs level must equal the oracle's degraded
   build page-for-page (placeholders included) and fault-for-fault,
   and the jobs=1 build report-for-report (the manifest, in order) and
   count-for-count *)
let degraded_parallel_equals_sequential (muts, seed) =
  let data = Sites.Cnn.data ~articles:Test_end_to_end_props.articles () in
  Test_end_to_end_props.apply_mutations data Test_end_to_end_props.articles
    muts;
  let injected () =
    Fault.ctx ~inject:(Fault.Inject.create ~seed ~p_render:0.12 ()) ()
  in
  let run jobs =
    let fault = injected () in
    let b =
      Strudel.Site.build ~jobs ~on_error:Fault.Degrade ~fault ~data
        Sites.Cnn.definition
    in
    ( b,
      ( page_triples b.Strudel.Site.site,
        b.Strudel.Site.faults,
        b.Strudel.Site.render_profile.Strudel.Render_pool.rp_degraded ) )
  in
  let b1, reference = run 1 in
  let oracle_fault = injected () in
  let oracle =
    Oracle.generate ~templates:Sites.Cnn.definition.Strudel.Site.templates
      ~on_error:Fault.Degrade ~fault:oracle_fault b1.Strudel.Site.site_graph
      ~roots:(Strudel.Site.build_roots b1.Strudel.Site.site_graph
                Sites.Cnn.definition)
  in
  let pages, faults, _ = reference in
  pages = page_triples oracle
  && List.sort compare faults = List.sort compare (Fault.reports oracle_fault)
  && List.for_all (fun jobs -> snd (run jobs) = reference) job_levels

(* cache-warm runs: a cache seeded by a jobs=1 build must serve
   parallel rebuilds verbatim — batched prefetch + worker-side trace
   verification change the schedule, never the bytes *)
let warm_cache_parallel_equals_sequential muts =
  let data = Sites.Cnn.data ~articles:Test_end_to_end_props.articles () in
  Test_end_to_end_props.apply_mutations data Test_end_to_end_props.articles
    muts;
  let cache = Strudel.Render_cache.create () in
  let seq_pages =
    oracle_triples
      (Strudel.Site.build ~render_cache:cache ~data Sites.Cnn.definition)
  in
  List.for_all
    (fun jobs ->
      Strudel.Render_cache.reset_stats cache;
      let b =
        Strudel.Site.build ~jobs ~render_cache:cache ~data
          Sites.Cnn.definition
      in
      let hits, misses, _ = Strudel.Render_cache.stats cache in
      page_triples b.Strudel.Site.site = seq_pages
      && misses = 0
      && hits = List.length seq_pages)
    job_levels

(* two distinct page objects sharing a name share a slug: the pool
   gives the second the URL the oracle gives it.  Their pages link to
   two nodes that share a name too, so a name-keyed cache entry could
   stand for either page: a warm cache must not change the pages. *)
let duplicate_names () =
  let g = Graph.create ~name:"collide" () in
  let root = Graph.new_node g "root" in
  let d1 = Graph.new_node g "dup" in
  let d2 = Graph.new_node g "dup" in
  Graph.add_edge g root "first" (Graph.N d1);
  Graph.add_edge g root "second" (Graph.N d2);
  List.iter
    (fun d ->
      let z = Graph.new_node g "z" in
      Graph.add_edge g z "title" (Graph.V (Value.String "Z"));
      Graph.add_edge g d "to" (Graph.N z))
    [ d1; d2 ];
  let reference = page_triples (Oracle.generate g ~roots:[ root ]) in
  let cache = Strudel.Render_cache.create () in
  List.iter
    (fun (what, jobs, cache) ->
      let site, _ =
        Strudel.Render_pool.materialize ~jobs ?cache g ~roots:[ root ]
      in
      check_bool (what ^ ": pages equal the oracle's") true
        (page_triples site = reference))
    [
      ("jobs=4", 4, None);
      ("cold cache", 1, Some cache);
      ("warm cache", 1, Some cache);
    ];
  let urls = List.map (fun (u, _, _) -> u) reference in
  check_int "five distinct urls" 5
    (List.length (List.sort_uniq compare urls))

(* --- the collision differential ---

   Item pages of "x.y" and "x_y" share the slug URL Itemx_y.html, and
   the one [x_y] falls back to, Itemx_y_1.html, is the slug URL of
   "x_y_1"'s page, which the root links first: Item(x_y), reached in
   the third wave through a "next" link, gets Itemx_y_2.html.  Every
   item page links to itself, so a renamed page links to a renamed
   page. *)

let collide_def =
  Strudel.Site.define ~name:"collide" ~root_family:"Root"
    [
      ( "site",
        {|{ CREATE Root() }
          { WHERE Items(i), i -> "title" -> t
            CREATE Item(i)
            LINK Item(i) -> "title" -> t, Item(i) -> "self" -> Item(i) }
          { WHERE Items(i), i -> "featured" -> "yes"
            LINK Root() -> "item" -> Item(i) }
          { WHERE Items(i), i -> "next" -> j
            LINK Item(i) -> "next" -> Item(j) }
          OUTPUT Collide|} );
    ]

let collide_data () =
  let g = Graph.create ~name:"collide-data" () in
  let item name =
    let o = Graph.new_node g name in
    Graph.add_to_collection g "Items" o;
    Graph.add_edge g o "title" (Graph.V (Value.String ("T " ^ name)));
    o
  in
  let a = item "a" and x1 = item "x_y_1" and xd = item "x.y" in
  let xu = item "x_y" in
  List.iter
    (fun o -> Graph.add_edge g o "featured" (Graph.V (Value.String "yes")))
    [ a; x1; xd ];
  Graph.add_edge g a "next" (Graph.N xd);
  Graph.add_edge g x1 "next" (Graph.N xu);
  Graph.add_edge g xu "next" (Graph.N a);
  (g, xu)

(* a sink that holds the pages it gets, in order, and fails on a reset
   or on a URL emitted twice *)
let strict_sink () =
  let seen = Hashtbl.create 16 and got = ref [] in
  ( {
      Strudel.Render_pool.sk_emit =
        (fun (p : Template.Generator.page) ->
          let u = p.Template.Generator.url in
          if Hashtbl.mem seen u then Alcotest.failf "URL %s emitted twice" u;
          Hashtbl.add seen u ();
          got :=
            (u, Oid.name p.Template.Generator.obj, p.Template.Generator.html)
            :: !got);
      sk_reset = (fun () -> Alcotest.fail "sink reset");
    },
    fun () -> List.rev !got )

let url_of_item pages name =
  List.find_map
    (fun (u, o, _) -> if o = "Item(" ^ name ^ ")" then Some u else None)
    pages

let collision_builds () =
  let data, _ = collide_data () in
  let reference = oracle_triples (Strudel.Site.build ~data collide_def) in
  Alcotest.(check (list (option string)))
    "the oracle renames x_y's page past x_y_1's"
    [ Some "Itemx_y.html"; Some "Itemx_y_1.html"; Some "Itemx_y_2.html" ]
    (List.map (url_of_item reference) [ "x.y"; "x_y_1"; "x_y" ]);
  List.iter
    (fun jobs ->
      let held = Strudel.Site.build ~jobs ~data collide_def in
      check_bool
        (Printf.sprintf "jobs=%d held pages equal the oracle's" jobs)
        true
        (page_triples held.Strudel.Site.site = reference);
      let sink, got = strict_sink () in
      let streamed = Strudel.Site.build ~jobs ~sink ~data collide_def in
      check_int
        (Printf.sprintf "jobs=%d streamed build holds no page" jobs)
        0 (Template.Generator.page_count streamed.Strudel.Site.site);
      check_bool
        (Printf.sprintf "jobs=%d streamed pages equal the oracle's" jobs)
        true
        (got () = reference))
    job_levels

let collision_cache () =
  let data, xu = collide_data () in
  let cache = Strudel.Render_cache.create () in
  let step what ~hits ~misses ~invalidations =
    Strudel.Render_cache.reset_stats cache;
    let b = Strudel.Site.build ~jobs:2 ~render_cache:cache ~data collide_def in
    check_bool (what ^ ": pages equal the oracle's") true
      (page_triples b.Strudel.Site.site = oracle_triples b);
    Alcotest.(check (triple int int int))
      (what ^ ": hits, misses, invalidations")
      (hits, misses, invalidations)
      (Strudel.Render_cache.stats cache);
    check_int (what ^ ": rendered") (misses + invalidations)
      b.Strudel.Site.render_profile.Strudel.Render_pool.rp_rendered
  in
  step "cold" ~hits:0 ~misses:5 ~invalidations:0;
  step "warm" ~hits:5 ~misses:0 ~invalidations:0;
  (* Item(x_y)'s title is read by its own page and by the page whose
     "next" link names it, Item(x_y_1)'s *)
  Graph.remove_edge data xu "title" (Graph.V (Value.String "T x_y"));
  Graph.add_edge data xu "title" (Graph.V (Value.String "Retitled"));
  step "retitled" ~hits:3 ~misses:0 ~invalidations:2

let collision_degraded () =
  let data, _ = collide_data () in
  let injected () =
    Fault.ctx
      ~inject:(Fault.Inject.create ~p_render:1.0 ~targets:[ "Item(x_y)" ] ())
      ()
  in
  List.iter
    (fun jobs ->
      let fault = injected () in
      let b =
        Strudel.Site.build ~jobs ~on_error:Fault.Degrade ~fault ~data
          collide_def
      in
      let oracle_fault = injected () in
      let oracle =
        Oracle.generate ~on_error:Fault.Degrade ~fault:oracle_fault
          b.Strudel.Site.site_graph
          ~roots:(Strudel.Site.build_roots b.Strudel.Site.site_graph collide_def)
      in
      check_bool
        (Printf.sprintf "jobs=%d pages equal the oracle's" jobs)
        true
        (page_triples b.Strudel.Site.site = page_triples oracle);
      let placeholder =
        List.find
          (fun (p : Template.Generator.page) ->
            Oid.name p.Template.Generator.obj = "Item(x_y)")
          b.Strudel.Site.site.Template.Generator.pages
      in
      check_bool "the renamed page is a placeholder" true
        (Template.Generator.is_placeholder placeholder);
      Alcotest.(check string) "under its assigned URL" "Itemx_y_2.html"
        placeholder.Template.Generator.url;
      Alcotest.(check (list string))
        (Printf.sprintf "jobs=%d the manifest names the assigned URL" jobs)
        [ "Itemx_y_2.html" ]
        (List.map
           (fun (f : Fault.report) -> f.Fault.f_location)
           (Fault.Manifest.faults (Strudel.Site.manifest b)));
      check_bool "the oracle records the same fault" true
        (Fault.reports oracle_fault = b.Strudel.Site.faults))
    job_levels

(* profile sanity on the wave path: every rendered page is attributed
   to exactly one shard, and shard page counts sum to the total *)
let profile_accounts_pages () =
  let data = Sites.Cnn.data ~articles:20 () in
  let b = Strudel.Site.build ~jobs:4 ~data Sites.Cnn.definition in
  let prof = b.Strudel.Site.render_profile in
  let shard_sum =
    List.fold_left
      (fun n (s : Strudel.Render_pool.shard) ->
        n + s.Strudel.Render_pool.sh_pages)
      0 prof.Strudel.Render_pool.rp_shards
  in
  check_int "shards account for every render"
    prof.Strudel.Render_pool.rp_rendered shard_sum;
  check_int "no cache, so rendered = pages" prof.Strudel.Render_pool.rp_pages
    prof.Strudel.Render_pool.rp_rendered;
  check_bool "at least one wave" true (prof.Strudel.Render_pool.rp_waves >= 1)

(* Pool.iter runs at most the machine's domain count: a jobs=8 profile
   lists those domains only, and still reports the jobs asked for *)
let profile_lists_running_domains () =
  let data = Sites.Cnn.data ~articles:20 () in
  let b = Strudel.Site.build ~jobs:8 ~data Sites.Cnn.definition in
  let prof = b.Strudel.Site.render_profile in
  let shards = prof.Strudel.Render_pool.rp_shards in
  check_int "jobs as asked" 8 prof.Strudel.Render_pool.rp_jobs;
  check_int "one row per domain that can run" (min 8 (Pool.auto_jobs ()))
    (List.length shards);
  check_int "their pages sum to the rendered count"
    prof.Strudel.Render_pool.rp_rendered
    (List.fold_left
       (fun n (s : Strudel.Render_pool.shard) ->
         n + s.Strudel.Render_pool.sh_pages)
       0 shards)

let suite =
  example_site_tests
  @ [
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make
           ~name:
             "parallel builds equal sequential on randomized site inputs \
              (jobs 2,4,8)"
           ~count:10 Test_end_to_end_props.muts_arb
           parallel_equals_sequential_random);
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make
           ~name:
             "degraded builds equal sequential under seeded fault \
              injection (jobs 2,4,8)"
           ~count:10
           QCheck.(pair Test_end_to_end_props.muts_arb small_nat)
           degraded_parallel_equals_sequential);
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make
           ~name:
             "warm-cache parallel rebuilds serve every page from the \
              cache, byte-identically (jobs 2,4,8)"
           ~count:8 Test_end_to_end_props.muts_arb
           warm_cache_parallel_equals_sequential);
      t "two pages of one name get the oracle's URLs" duplicate_names;
      t "collision: builds at jobs 1,2,4,8, held and streamed, equal the \
         oracle"
        collision_builds;
      t "collision: cold, warm and retitled cached builds equal the oracle"
        collision_cache;
      t "collision: a degraded renamed page keeps its assigned URL"
        collision_degraded;
      t "render profile accounts for every page" profile_accounts_pages;
      t "a jobs=8 profile lists only the domains that run"
        profile_lists_running_domains;
    ]
