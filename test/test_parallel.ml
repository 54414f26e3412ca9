(* Differential suite for the parallel render pool: builds at jobs ∈
   {2,4,8} must be byte-identical to the sequential reference path —
   same page URLs, same bytes, same Skolem page identities, in the same
   order — on every example site and under randomized mutations of the
   data graph.  Also pins the slug-collision fallback. *)

open Sgraph

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let job_levels = [ 2; 4; 8 ]

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
          let reference = Strudel.Site.build ~data def in
          let seq_pages = page_triples reference.Strudel.Site.site in
          check_bool (name ^ " has pages") true (seq_pages <> []);
          List.iter
            (fun jobs ->
              let b = Strudel.Site.build ~jobs ~data def in
              let prof = b.Strudel.Site.render_profile in
              check_int
                (Printf.sprintf "%s jobs=%d profile jobs" name jobs)
                jobs prof.Strudel.Render_pool.rp_jobs;
              check_bool
                (Printf.sprintf "%s jobs=%d no fallback" name jobs)
                false prof.Strudel.Render_pool.rp_fallback;
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
  let reference = Strudel.Site.build ~data Sites.Cnn.definition in
  List.for_all
    (fun jobs ->
      let b = Strudel.Site.build ~jobs ~data Sites.Cnn.definition in
      page_triples b.Strudel.Site.site
      = page_triples reference.Strudel.Site.site)
    job_levels

(* scheduler correctness under fault injection: an injector's fail
   decisions are a pure hash of (seed, point) — jobs-independent — so a
   degraded parallel build must equal the degraded jobs=1 wave
   build page-for-page (placeholders included), report-for-report (the
   manifest), and count-for-count *)
let degraded_parallel_equals_sequential (muts, seed) =
  let data = Sites.Cnn.data ~articles:Test_end_to_end_props.articles () in
  Test_end_to_end_props.apply_mutations data Test_end_to_end_props.articles
    muts;
  let run jobs =
    let inject = Fault.Inject.create ~seed ~p_render:0.12 () in
    let fault = Fault.ctx ~inject () in
    let b =
      Strudel.Site.build ~jobs ~on_error:Fault.Degrade ~fault ~data
        Sites.Cnn.definition
    in
    ( page_triples b.Strudel.Site.site,
      b.Strudel.Site.faults,
      b.Strudel.Site.render_profile.Strudel.Render_pool.rp_degraded )
  in
  let reference = run 1 in
  List.for_all (fun jobs -> run jobs = reference) job_levels

(* cache-warm runs: a cache seeded by the sequential build must serve
   parallel rebuilds verbatim — batched prefetch + worker-side trace
   verification change the schedule, never the bytes *)
let warm_cache_parallel_equals_sequential muts =
  let data = Sites.Cnn.data ~articles:Test_end_to_end_props.articles () in
  Test_end_to_end_props.apply_mutations data Test_end_to_end_props.articles
    muts;
  let cache = Strudel.Render_cache.create () in
  let reference =
    Strudel.Site.build ~render_cache:cache ~data Sites.Cnn.definition
  in
  let seq_pages = page_triples reference.Strudel.Site.site in
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

(* two distinct page objects sharing a name share a slug; only the
   sequential generator's discovery-ordered uniquification produces the
   reference URLs, so the pool must detect the collision and fall back *)
let collision_fallback () =
  let g = Graph.create ~name:"collide" () in
  let root = Graph.new_node g "root" in
  let d1 = Graph.new_node g "dup" in
  let d2 = Graph.new_node g "dup" in
  Graph.add_edge g root "first" (Graph.N d1);
  Graph.add_edge g root "second" (Graph.N d2);
  Graph.add_edge g d1 "kind" (Graph.V (Value.String "one"));
  Graph.add_edge g d2 "kind" (Graph.V (Value.String "two"));
  let reference = Template.Generator.generate g ~roots:[ root ] in
  let site, prof = Strudel.Render_pool.materialize ~jobs:4 g ~roots:[ root ] in
  check_bool "fallback detected" true prof.Strudel.Render_pool.rp_fallback;
  check_bool "pages equal sequential" true
    (page_triples site = page_triples reference);
  (* the reference really does uniquify: three pages, distinct URLs *)
  check_int "three pages" 3 (Template.Generator.page_count reference);
  let urls =
    List.map (fun (u, _, _) -> u) (page_triples reference)
    |> List.sort_uniq compare
  in
  check_int "distinct urls" 3 (List.length urls)

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
      t "slug collision falls back to the sequential generator"
        collision_fallback;
      t "render profile accounts for every page" profile_accounts_pages;
    ]
