(* The experiment harness: regenerates every figure and every reported
   statistic of the paper's evaluation (see DESIGN.md §2 for the E1-E14
   index and EXPERIMENTS.md for paper-vs-measured numbers), then runs
   the Bechamel microbenchmarks — one Test.make per measured
   experiment.

   Run with: dune exec bench/main.exe *)

open Sgraph

let section id title =
  Fmt.pr "@.========================================================@.";
  Fmt.pr "%s — %s@." id title;
  Fmt.pr "========================================================@."

let time_it f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

let ms t = t *. 1000.

(* ----------------------------------------------------------------- *)
(* E1 — Fig. 2: the data graph produced by the BibTeX wrapper         *)
(* ----------------------------------------------------------------- *)

let e1 () =
  section "E1" "Fig. 2 — data-graph fragment (BibTeX wrapper → DDL)";
  let g, _ = Ddl.parse ~graph_name:"BIBTEX" Sites.Paper_example.data_ddl in
  Fmt.pr "%a@." Graph.pp_stats g;
  Fmt.pr "@.%s@." (Ddl.print g);
  (* the same data obtained through the BibTeX wrapper *)
  let bib =
    {|@article{pub1,
  title = {Specifying Representations of Machine Instructions},
  author = {Norman Ramsey and Mary Fernandez},
  year = 1997, month = {May},
  journal = {Transactions on Programming Languages and Systems},
  abstract = {abstracts/toplas97.txt},
  postscript = {papers/toplas97.ps.gz},
  volume = {19 (3)},
  keywords = {Architecture Specifications, Programming Languages}
}|}
  in
  let g2, _ = Wrappers.Bibtex.load bib in
  Fmt.pr "via the BibTeX wrapper: %a@." Graph.pp_stats g2

(* ----------------------------------------------------------------- *)
(* E2 — Fig. 3: the site-definition query                             *)
(* ----------------------------------------------------------------- *)

let e2 () =
  section "E2" "Fig. 3 — site-definition query (parse → pretty → re-parse)";
  let q = Struql.Parser.parse Sites.Paper_example.site_query in
  Fmt.pr "blocks: %d (nested: %d), conditions: %d, link clauses: %d@."
    (List.length q.Struql.Ast.blocks)
    (List.fold_left
       (fun n b -> n + List.length b.Struql.Ast.nested)
       0 q.Struql.Ast.blocks)
    (Struql.Ast.query_condition_count q)
    (Struql.Ast.query_link_count q);
  let printed = Struql.Pretty.to_string q in
  let stable = Struql.Pretty.query_equal q (Struql.Parser.parse printed) in
  Fmt.pr "pretty-print/re-parse fixpoint: %b@." stable;
  Fmt.pr "@.%s@." printed

(* ----------------------------------------------------------------- *)
(* E3 — Fig. 4: the generated site graph                              *)
(* ----------------------------------------------------------------- *)

let e3 () =
  section "E3" "Fig. 4 — site-graph fragment (query evaluated on Fig. 2 data)";
  let b = Sites.Paper_example.build () in
  let sg = b.Strudel.Site.site_graph in
  Fmt.pr "%a@." Graph.pp_stats sg;
  List.iter
    (fun fam ->
      Fmt.pr "  %-20s %d node(s)@." fam
        (List.length (Schema.Verify.family_members sg fam)))
    [ "RootPage"; "AbstractsPage"; "PaperPresentation"; "AbstractPage";
      "YearPage"; "CategoryPage" ];
  let root = List.hd (Schema.Verify.family_members sg "RootPage") in
  Fmt.pr "@.fragment around the root (cf. Fig. 4):@.";
  List.iter
    (fun (l, t) -> Fmt.pr "  RootPage() -%S-> %a@." l Graph.pp_target t)
    (Graph.out_edges sg root);
  List.iter
    (fun y ->
      List.iter
        (fun (l, t) ->
          Fmt.pr "  %s -%S-> %a@." (Oid.name y) l Graph.pp_target t)
        (Graph.out_edges sg y))
    (Schema.Verify.family_members sg "YearPage")

(* ----------------------------------------------------------------- *)
(* E4 — Fig. 5: the site schema                                       *)
(* ----------------------------------------------------------------- *)

let e4 () =
  section "E4" "Fig. 5 — site schema derived from the Fig. 3 query";
  let q = Struql.Parser.parse Sites.Paper_example.site_query in
  let s = Schema.Site_schema.of_query q in
  Fmt.pr "%a@." Schema.Site_schema.pp s;
  (* schema → query → same site graph *)
  let g = Sites.Paper_example.data () in
  let census g' = (Graph.node_count g', Graph.edge_count g') in
  let direct = Struql.Exec.run g q in
  let recovered = Struql.Exec.run g (Schema.Site_schema.to_query s) in
  Fmt.pr "query recovered from schema evaluates identically: %b@."
    (census direct = census recovered);
  Fmt.pr "@.static verification on the schema:@.";
  List.iter
    (fun c ->
      Fmt.pr "  [%a] -> %a@." Schema.Verify.pp_constraint c
        Schema.Verify.pp_verdict (Schema.Verify.check_schema s c))
    Sites.Paper_example.constraints

(* ----------------------------------------------------------------- *)
(* E5 — Fig. 6/7: templates and HTML generation                       *)
(* ----------------------------------------------------------------- *)

let e5 () =
  section "E5" "Fig. 6/7 — HTML-template language and generated pages";
  let b = Sites.Paper_example.build () in
  let site = b.Strudel.Site.site in
  Fmt.pr "pages generated: %d, total bytes: %d@."
    (Template.Generator.page_count site)
    (Template.Generator.total_bytes site);
  List.iter
    (fun (p : Template.Generator.page) ->
      Fmt.pr "  %s@." p.Template.Generator.url)
    site.Template.Generator.pages;
  let root =
    List.hd (Schema.Verify.family_members b.Strudel.Site.site_graph "RootPage")
  in
  let page = Option.get (Template.Generator.page_of_object site root) in
  Fmt.pr "@.RootPage HTML (from the Fig. 7 RootPage template):@.%s@."
    page.Template.Generator.html;
  List.iter
    (fun (c, v) ->
      Fmt.pr "constraint [%a]: %a@." Schema.Verify.pp_constraint c
        Schema.Verify.pp_verdict v)
    b.Strudel.Site.verification

(* ----------------------------------------------------------------- *)
(* E6 — Fig. 8: tool-suitability matrix                               *)
(* ----------------------------------------------------------------- *)

(* a structurally simple site over the news data: one flat index,
   3 link clauses (the "RDBMS + Web interface" regime) *)
let simple_query =
  {|INPUT NEWS
{ CREATE Index()
  COLLECT Indexes(Index()) }
{ WHERE Articles(a)
  CREATE Page(a)
  LINK Index() -> "Article" -> Page(a)
  COLLECT Pages(Page(a)) }
{ WHERE Articles(a), a -> "headline" -> h
  LINK Page(a) -> "headline" -> h }
OUTPUT Simple
|}

let simple_templates =
  {
    Template.Generator.empty_templates with
    Template.Generator.by_collection =
      [
        ( "Indexes",
          {|<h1>Articles</h1><SFMTLIST @Article KEY=headline ORDER=ascend>|} );
        ("Pages", {|<h1><SFMT @headline></h1>|});
      ];
  }

let simple_definition =
  Strudel.Site.define ~name:"Simple" ~root_family:"Index"
    ~templates:simple_templates
    [ ("site", simple_query) ]

let e6 () =
  section "E6" "Fig. 8 — suitability: data size × structural complexity";
  Fmt.pr
    "build time (ms) and spec size, STRUDEL vs hand-coded procedural \
     baseline@.";
  Fmt.pr "%-10s %-12s %14s %14s %10s %12s@." "articles" "structure"
    "strudel(ms)" "baseline(ms)" "spec(lns)" "pages";
  let baseline_loc = 180 in
  (* lines of Baseline.Procedural.news_site + helpers, hand-coded *)
  List.iter
    (fun articles ->
      let data = Sites.Cnn.data ~articles () in
      List.iter
        (fun (label, def) ->
          let built, t = time_it (fun () -> Strudel.Site.build ~data def) in
          let _, tb =
            time_it (fun () -> ignore (Baseline.Procedural.news_site data))
          in
          let spec = Strudel.Site.spec_stats def in
          Fmt.pr "%-10d %-12s %14.1f %14.1f %10d %12d@." articles label
            (ms t) (ms tb)
            (spec.Strudel.Site.query_lines + spec.Strudel.Site.template_lines)
            (Template.Generator.page_count built.Strudel.Site.site))
        [ ("simple", simple_definition); ("complex", Sites.Cnn.definition) ])
    [ 20; 100; 400 ];
  Fmt.pr
    "@.procedural baseline: ~%d hand-written lines for ONE structure; \
     every variant (sports-only, text-only, restructure) costs another \
     copy.  STRUDEL: the complex site costs %d declarative lines, and \
     the sports-only variant differs by 2 predicates per clause (E8).@."
    baseline_loc
    (let s = Strudel.Site.spec_stats Sites.Cnn.definition in
     s.Strudel.Site.query_lines + s.Strudel.Site.template_lines);
  Fmt.pr
    "Fig. 8 reading: low data x low structure -> hand tools fine \
     (baseline faster, spec trivial); high data x complex structure -> \
     STRUDEL wins on specification cost while build times stay \
     comparable.@."

(* ----------------------------------------------------------------- *)
(* E7 — §5.1 site statistics                                          *)
(* ----------------------------------------------------------------- *)

let e7 () =
  section "E7" "§5.1 — site statistics (paper numbers in brackets)";
  Fmt.pr "%-22s %10s %8s %10s %10s %8s %10s@." "site" "qry lines" "links"
    "templates" "tpl lines" "pages" "build ms";
  let row name ?paper def data =
    let spec = Strudel.Site.spec_stats def in
    let built, t = time_it (fun () -> Strudel.Site.build ~data def) in
    Fmt.pr "%-22s %10d %8d %10d %10d %8d %10.1f@." name
      spec.Strudel.Site.query_lines spec.Strudel.Site.link_clauses
      spec.Strudel.Site.template_count spec.Strudel.Site.template_lines
      (Template.Generator.page_count built.Strudel.Site.site)
      (ms t);
    match paper with
    | Some s -> Fmt.pr "%-22s %s@." "" s
    | None -> ()
  in
  row "paper-example" Sites.Paper_example.definition
    (Sites.Paper_example.data ());
  row "homepage (mff)"
    ~paper:"[paper: 48-line query, 13 templates (202 lines)]"
    Sites.Homepage.definition
    (Sites.Homepage.data ~entries:30 ());
  row "cnn (300 articles)"
    ~paper:"[paper: 44-line query, 9 templates, ~300 articles]"
    Sites.Cnn.definition
    (Sites.Cnn.data ~articles:300 ());
  let _, w = Sites.Org.data () in
  row "org (400 people)"
    ~paper:"[paper: 115-line query, 17 templates (380 lines), ~400 users]"
    Sites.Org.definition
    (Mediator.Warehouse.graph w)

(* ----------------------------------------------------------------- *)
(* E8 — §5.1 multiple versions                                        *)
(* ----------------------------------------------------------------- *)

let e8 () =
  section "E8" "§5.1 — multiple versions of a site";
  (* org: external = same site graph, changed templates only *)
  let changed =
    List.length
      (List.filter
         (fun (c, t) ->
           List.assoc c
             Sites.Org.external_templates.Template.Generator.by_collection
           <> t)
         Sites.Org.internal_templates.Template.Generator.by_collection)
    + List.length
        (List.filter
           (fun (n, t) ->
             match
               List.assoc_opt n
                 Sites.Org.external_templates.Template.Generator.named
             with
             | Some t' -> t' <> t
             | None -> true)
           Sites.Org.internal_templates.Template.Generator.named)
  in
  Fmt.pr
    "org external version: 0 new queries, %d changed template files \
     [paper: \"no new queries were written\"; \"only five HTML template \
     files differ\"]@."
    changed;
  (* cnn sports-only: count predicate difference *)
  let conds q = Struql.Ast.query_condition_count (Struql.Parser.parse q) in
  Fmt.pr
    "cnn sports-only: same templates, +%d predicates over the general \
     query's %d conditions [paper: \"only differs in two extra \
     predicates in one where clause\"]@."
    (conds Sites.Cnn.sports_only_query - conds Sites.Cnn.general_query)
    (conds Sites.Cnn.general_query);
  (* homepage: internal vs external *)
  let internal, external_ = Sites.Homepage.build_both ~entries:20 () in
  Fmt.pr
    "homepage external: same site graph (%b), %d vs %d pages, patents \
     hidden by templates@."
    (internal.Strudel.Site.site_graph == external_.Strudel.Site.site_graph)
    (Template.Generator.page_count internal.Strudel.Site.site)
    (Template.Generator.page_count external_.Strudel.Site.site);
  (* text-only via one template *)
  let data = Sites.Cnn.data ~articles:100 () in
  let general = Strudel.Site.build ~data Sites.Cnn.definition in
  let text = Strudel.Site.regenerate general Sites.Cnn.text_only_templates in
  Fmt.pr
    "cnn text-only: 1 changed template file, %d pages regenerated [§3's \
     TextOnly problem, solved in the presentation layer]@."
    (Template.Generator.page_count text.Strudel.Site.site)

(* ----------------------------------------------------------------- *)
(* E9 — §2.4 optimizer comparison                                     *)
(* ----------------------------------------------------------------- *)

let optimizer_workload ?(pubs = 120) () =
  (* a join-heavy binding query over the bibliography data *)
  let g = fst (Wrappers.Bibtex.load (Wrappers.Synth.bibtex ~entries:pubs ())) in
  let conds =
    {|Publications(x), x -> "year" -> y, y = 1997,
      Publications(x2), x2 -> "year" -> y,
      x -> "category" -> c, x2 -> "category" -> c,
      x != x2|}
  in
  (g, Struql.Parser.parse_conditions conds)

let run_strategy g conds strategy =
  let options = { Struql.Eval.default_options with strategy } in
  Struql.Exec.bindings_profiled ~options g conds

(* Operator i's output is the whole relation after plan step i, so the
   operators' output counts are the sizes of the intermediate relations
   an eager evaluator would materialize. *)
let rows_out ops =
  List.map (fun (o : Struql.Exec.op_stats) -> o.os_rows_out) ops

let e9 () =
  section "E9" "§2.4 — optimizer: naive vs heuristic vs cost-based";
  let g, conds = optimizer_workload () in
  Fmt.pr "%-12s %10s %14s %16s %12s %12s@." "strategy" "rows" "time (ms)"
    "intermediate" "max interm." "peak live";
  List.iter
    (fun (name, strategy) ->
      let (rows, ops, peak), t =
        time_it (fun () -> run_strategy g conds strategy)
      in
      let outs = rows_out ops in
      Fmt.pr "%-12s %10d %14.2f %16d %12d %12d@." name (List.length rows)
        (ms t) (List.fold_left ( + ) 0 outs) (List.fold_left max 0 outs) peak)
    [ ("naive", Struql.Plan.Naive); ("heuristic", Struql.Plan.Heuristic);
      ("costbased", Struql.Plan.Cost_based) ];
  Fmt.pr
    "shape check: identical rows per strategy; peak live stays near the \
     per-row fanout while the largest intermediate relation grows with the \
     relation.@."

(* ----------------------------------------------------------------- *)
(* E10 — §2.2 full indexing ablation                                  *)
(* ----------------------------------------------------------------- *)

let e10 () =
  section "E10" "§2.2 — repository indexes: indexed vs full-scan";
  let build indexed =
    let g = Graph.create ~indexed ~name:"d" () in
    ignore (Wrappers.Bibtex.load_into g (Wrappers.Synth.bibtex ~entries:400 ()));
    g
  in
  let query =
    {|WHERE Publications(x), x -> "year" -> 1997, x -> "category" -> c
      COLLECT Hits(x) OUTPUT o|}
  in
  Fmt.pr "%-12s %14s@." "mode" "time (ms)";
  List.iter
    (fun indexed ->
      let g = build indexed in
      let _, t =
        time_it (fun () ->
            for _ = 1 to 20 do
              ignore (Struql.Exec.run_string g query)
            done)
      in
      Fmt.pr "%-12s %14.2f@."
        (if indexed then "indexed" else "scan-only")
        (ms t /. 20.))
    [ true; false ]

(* ----------------------------------------------------------------- *)
(* E11 — materialization strategies                                   *)
(* ----------------------------------------------------------------- *)

let e11 () =
  section "E11" "§1/§6 — materialization: full vs click-time (vs cached)";
  let data = Sites.Homepage.data ~entries:150 () in
  let def = Sites.Homepage.definition in
  let full, t_full = time_it (fun () -> Strudel.Site.build ~data def) in
  let total_pages = Template.Generator.page_count full.Strudel.Site.site in
  Fmt.pr "full materialization: %.1f ms for %d pages (TTFP = %.1f ms)@."
    (ms t_full) total_pages (ms t_full);
  List.iter
    (fun cache ->
      let ct, t_start =
        time_it (fun () ->
            Strudel.Materialize.Click_time.start ~cache ~data def)
      in
      let root = List.hd (Strudel.Materialize.Click_time.roots ct) in
      let _, t_first =
        time_it (fun () ->
            ignore (Strudel.Materialize.Click_time.browse ct root))
      in
      let clicks = 30 in
      let _, t_walk =
        time_it (fun () ->
            ignore
              (Strudel.Materialize.Click_time.random_walk ct ~clicks ~seed:5))
      in
      let st = Strudel.Materialize.Click_time.stats ct in
      Fmt.pr
        "click-time%s: start %.1f ms, TTFP %.2f ms, %.2f ms/click over %d \
         clicks; materialized %d/%d nodes, %d queries, %d cache hits@."
        (if cache then " (cached)" else "")
        (ms t_start) (ms t_first)
        (ms t_walk /. float_of_int clicks)
        clicks st.Strudel.Materialize.Click_time.materialized_nodes
        (Graph.node_count full.Strudel.Site.site_graph)
        st.Strudel.Materialize.Click_time.queries
        st.Strudel.Materialize.Click_time.cache_hits)
    [ false; true ];
  (* the deep org hierarchy shows partial materialization: a short
     browsing session touches a fraction of 500+ pages *)
  let _, w = Sites.Org.data ~people:200 ~orgs:8 ~projects:15 ~pubs:40 () in
  let org_data = Mediator.Warehouse.graph w in
  let org_full, t_org_full =
    time_it (fun () -> Strudel.Site.build ~data:org_data Sites.Org.definition)
  in
  let ct =
    Strudel.Materialize.Click_time.start ~data:org_data Sites.Org.definition
  in
  let _, t_walk =
    time_it (fun () ->
        ignore (Strudel.Materialize.Click_time.random_walk ct ~clicks:10 ~seed:2))
  in
  let st = Strudel.Materialize.Click_time.stats ct in
  Fmt.pr
    "org site (200 people): full build %.1f ms for %d pages; 10 clicks \
     cost %.1f ms and materialized %d/%d nodes (%d/%d edges)@."
    (ms t_org_full)
    (Template.Generator.page_count org_full.Strudel.Site.site)
    (ms t_walk)
    st.Strudel.Materialize.Click_time.materialized_nodes
    (Graph.node_count org_full.Strudel.Site.site_graph)
    st.Strudel.Materialize.Click_time.materialized_edges
    (Graph.edge_count org_full.Strudel.Site.site_graph);
  Fmt.pr
    "shape check: click-time TTFP << full-build TTFP; full build wins \
     when the whole site is browsed.@."

(* ----------------------------------------------------------------- *)
(* E12 — regular path expressions / transitive closure                *)
(* ----------------------------------------------------------------- *)

let chain_graph n =
  let g = Graph.create ~name:"chain" () in
  let first = Graph.new_node g "c0" in
  let prev = ref first in
  for i = 1 to n - 1 do
    let o = Graph.new_node g (Printf.sprintf "c%d" i) in
    Graph.add_edge g !prev "next" (Graph.N o);
    prev := o
  done;
  (g, first)

let grid_graph n =
  (* n x n grid with right/down edges *)
  let g = Graph.create ~name:"grid" () in
  let nodes =
    Array.init n (fun i ->
        Array.init n (fun j -> Graph.new_node g (Printf.sprintf "g%d_%d" i j)))
  in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if j + 1 < n then
        Graph.add_edge g nodes.(i).(j) "right" (Graph.N nodes.(i).(j + 1));
      if i + 1 < n then
        Graph.add_edge g nodes.(i).(j) "down" (Graph.N nodes.(i + 1).(j))
    done
  done;
  (g, nodes.(0).(0))

let random_graph n seed =
  let g = Graph.create ~name:"rand" () in
  let r = Wrappers.Synth.rng ~seed () in
  let nodes =
    Array.init n (fun i -> Graph.new_node g (Printf.sprintf "r%d" i))
  in
  for _ = 1 to 3 * n do
    let a = Wrappers.Synth.int r n and b = Wrappers.Synth.int r n in
    let l = Wrappers.Synth.pick r [| "a"; "b"; "c" |] in
    Graph.add_edge g nodes.(a) l (Graph.N nodes.(b))
  done;
  (g, nodes.(0))

let e12 () =
  section "E12" "§3 — regular path expressions: closure scaling";
  Fmt.pr "%-10s %8s %12s %14s@." "graph" "nodes" "reached" "time (ms)";
  let star = Path.any_path in
  List.iter
    (fun (label, g, src) ->
      let reached, t =
        time_it (fun () -> List.length (Path.eval_from g star src))
      in
      Fmt.pr "%-10s %8d %12d %14.2f@." label (Graph.node_count g) reached
        (ms t))
    [
      (let g, s = chain_graph 1000 in
       ("chain-1k", g, s));
      (let g, s = chain_graph 10000 in
       ("chain-10k", g, s));
      (let g, s = grid_graph 30 in
       ("grid-30", g, s));
      (let g, s = grid_graph 60 in
       ("grid-60", g, s));
      (let g, s = random_graph 1000 7 in
       ("rand-1k", g, s));
      (let g, s = random_graph 5000 7 in
       ("rand-5k", g, s));
    ];
  (* a constrained path expression on the grid *)
  let g, s = grid_graph 40 in
  let r =
    Path.Seq
      ( Path.Star (Path.Edge (Path.Label "right")),
        Path.Star (Path.Edge (Path.Label "down")) )
  in
  let reached, t = time_it (fun () -> List.length (Path.eval_from g r s)) in
  Fmt.pr "%-10s %8d %12d %14.2f  (right*.down*)@." "grid-40"
    (Graph.node_count g) reached (ms t)

(* ----------------------------------------------------------------- *)
(* E13 — HTML generation throughput                                   *)
(* ----------------------------------------------------------------- *)

let e13 () =
  section "E13" "§2.5 — HTML generation throughput";
  Fmt.pr "%-10s %8s %12s %14s %14s@." "articles" "pages" "bytes" "time (ms)"
    "pages/s";
  List.iter
    (fun articles ->
      let data = Sites.Cnn.data ~articles () in
      let b = Strudel.Site.build ~data Sites.Cnn.definition in
      let roots =
        Schema.Verify.family_members b.Strudel.Site.site_graph "FrontPage"
      in
      let (site, _), t =
        time_it (fun () ->
            Strudel.Render_pool.materialize ~templates:Sites.Cnn.templates
              b.Strudel.Site.site_graph ~roots)
      in
      let pages = Template.Generator.page_count site in
      Fmt.pr "%-10d %8d %12d %14.1f %14.0f@." articles pages
        (Template.Generator.total_bytes site)
        (ms t)
        (float_of_int pages /. Float.max 1e-9 t))
    [ 50; 200; 800 ]

(* ----------------------------------------------------------------- *)
(* E14 — incremental re-evaluation                                    *)
(* ----------------------------------------------------------------- *)

(* same pages, same URLs, same bytes, same order *)
let pages_identical (a : Template.Generator.site)
    (b : Template.Generator.site) =
  let key (p : Template.Generator.page) =
    (p.Template.Generator.url, p.Template.Generator.html)
  in
  List.map key a.Template.Generator.pages
  = List.map key b.Template.Generator.pages

let e14 () =
  section "E14" "§6 — incremental rebuild after data changes";
  let articles = 300 in
  let cold, t_full =
    time_it (fun () ->
        Strudel.Site.build
          ~data:(Sites.Cnn.data ~articles ())
          Sites.Cnn.definition)
  in
  Fmt.pr "full rebuild: %.1f ms (%d pages)@." (ms t_full)
    (Template.Generator.page_count cold.Strudel.Site.site);
  Fmt.pr "%-10s %12s %14s %12s %12s %10s@." "changed" "rerendered" "reused"
    "time (ms)" "speedup" "identical";
  let mismatched =
    List.filter
      (fun k ->
        (* every row starts from a cache primed by a build of the
           unedited data *)
        let cache = Strudel.Render_cache.create () in
        let previous =
          Strudel.Site.build ~render_cache:cache
            ~data:(Sites.Cnn.data ~articles ())
            Sites.Cnn.definition
        in
        let data2 = Sites.Cnn.data ~articles () in
        for i = 0 to k - 1 do
          match Graph.find_node data2 (Printf.sprintf "art%d" (i * 7)) with
          | Some a ->
            Graph.add_edge data2 a "headline"
              (Graph.V (Value.String (Printf.sprintf "UPDATE %d" i)))
          | None -> ()
        done;
        let report, t =
          time_it (fun () ->
              Strudel.Incremental.rebuild ~cache ~previous ~data:data2 ())
        in
        let identical =
          pages_identical
            (Strudel.Site.build ~data:data2 Sites.Cnn.definition)
              .Strudel.Site.site
            report.Strudel.Incremental.built.Strudel.Site.site
        in
        Fmt.pr "%-10d %12d %14d %12.1f %11.1fx %10b@." k
          report.Strudel.Incremental.pages_rerendered
          report.Strudel.Incremental.pages_reused (ms t)
          (t_full /. Float.max 1e-9 t)
          identical;
        not identical)
      [ 0; 1; 5; 20 ]
  in
  if mismatched <> [] then begin
    Fmt.epr "E14: rebuild after %s edit(s) differs from a cold build@."
      (String.concat ", " (List.map string_of_int mismatched));
    exit 1
  end

(* ----------------------------------------------------------------- *)
(* E15 — extensions: aggregation, XML exchange, DataGuides, Rodin     *)
(* ----------------------------------------------------------------- *)

let e15 () =
  section "E15" "extensions named by the paper (§2.2, §5.1, §5.2, §6)";
  (* grouping/aggregation (§5.2) on the CNN site *)
  let data = Sites.Cnn.data ~articles:200 () in
  let b = Strudel.Site.build ~data Sites.Cnn.definition in
  let sg = b.Strudel.Site.site_graph in
  Fmt.pr "aggregation: per-section article counts on the CNN site:@.";
  List.iter
    (fun sp ->
      match
        ( Graph.attr_value sg sp "Name",
          Graph.attr_value sg sp "ArticleCount" )
      with
      | Some n, Some c ->
        Fmt.pr "  %-12s %s@." (Value.to_display_string n)
          (Value.to_display_string c)
      | _ -> ())
    (Schema.Verify.family_members sg "SectionPage");
  (* XML exchange (§2.2) *)
  let g = Sites.Paper_example.data () in
  let xml = Xml.export g in
  let g2 = Xml.import xml in
  Fmt.pr
    "@.XML exchange: fig2 exports to %d bytes of XML; reimport preserves \
     %d nodes / %d edges (round trip: %b)@."
    (String.length xml) (Graph.node_count g2) (Graph.edge_count g2)
    (Xml.export g2 = xml);
  (* DataGuide over the news data: the guide vs actual cardinalities *)
  let news = Sites.Cnn.data ~articles:300 () in
  let dg, t_dg =
    time_it (fun () ->
        Schema.Dataguide.of_graph ~roots:(Graph.collection news "Articles")
          news)
  in
  Fmt.pr
    "@.DataGuide (graph schema from data): %d states, %d transitions \
     over %d nodes, built in %.2f ms@."
    (Schema.Dataguide.state_count dg)
    (Schema.Dataguide.transition_count dg)
    (Graph.node_count news) (ms t_dg);
  List.iter
    (fun path ->
      Fmt.pr "  path %-22s extent=%d@."
        (String.concat "." path)
        (Schema.Dataguide.extent_size dg path))
    [ [ "related" ]; [ "related"; "related" ] ];
  Fmt.pr "  distinct label paths (depth 2): %d@."
    (List.length (Schema.Dataguide.paths_up_to dg 2));
  (* the bilingual Rodin site (§5.1) *)
  let rb = Sites.Rodin.build ~extra_projects:20 () in
  Fmt.pr
    "@.Rodin bilingual site: one query, %d pages (EN+FR pairs), \
     cross-linking constraints: %s@."
    (Template.Generator.page_count rb.Strudel.Site.site)
    (if Strudel.Site.violations rb = [] then "all hold" else "VIOLATED")

(* ----------------------------------------------------------------- *)
(* E16 — streaming vs eager evaluation memory                         *)
(* ----------------------------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Evaluate each site's definition queries and compare the largest
   intermediate relation an eager evaluator would materialize (the
   largest operator output, see [rows_out]) with the streaming
   pipeline's peak live-binding watermark.  The output graph is checked
   against the delta engine's primed site graph, the other derivation
   of the same queries.  The per-stage watermarks (max output batch per
   operator) land in BENCH_exec.json as the regression baseline. *)
let e16 () =
  section "E16" "streaming engine: peak live bindings vs eager intermediates";
  let sites =
    [
      ( "paper-example",
        Sites.Paper_example.definition,
        Sites.Paper_example.data () );
      ("homepage", Sites.Homepage.definition, Sites.Homepage.data ~entries:50 ());
      ("cnn-100", Sites.Cnn.definition, Sites.Cnn.data ~articles:100 ());
      ( "org-100",
        Sites.Org.definition,
        let _, w = Sites.Org.data ~people:100 ~orgs:6 () in
        Mediator.Warehouse.graph w );
    ]
  in
  Fmt.pr "%-14s %8s %18s %12s %8s %10s@." "site" "rows" "eager max-interm"
    "peak live" "ratio" "identical";
  let entries =
    List.map
      (fun (name, def, data) ->
        let queries = Strudel.Site.parse_queries def in
        let options =
          {
            Struql.Eval.default_options with
            strategy = def.Strudel.Site.strategy;
            registry = def.Strudel.Site.registry;
          }
        in
        let s_out = Graph.create ~name () in
        let s_scope = Skolem.create () in
        let profs =
          List.map
            (fun (_, q) ->
              snd
                (Struql.Exec.run_with_profile ~options ~scope:s_scope
                   ~into:s_out data q))
            queries
        in
        let eager_max =
          List.concat_map
            (fun (p : Struql.Exec.profile) ->
              List.concat_map
                (fun (b : Struql.Exec.block_profile) -> rows_out b.bpr_ops)
                p.prf_blocks)
            profs
          |> List.fold_left max 0
        in
        let peak =
          List.fold_left
            (fun m p -> max m p.Struql.Exec.prf_peak_live)
            0 profs
        in
        let rows =
          List.fold_left (fun n p -> n + p.Struql.Exec.prf_rows) 0 profs
        in
        let dx =
          Struql.Dexec.create ~options ~queries:(List.map snd queries) data
        in
        Struql.Dexec.prime dx;
        let primed = Struql.Dexec.site_graph dx in
        let identical =
          Graph.node_count primed = Graph.node_count s_out
          && Graph.edge_count primed = Graph.edge_count s_out
        in
        Fmt.pr "%-14s %8d %18d %12d %7.1fx %10b@." name rows eager_max peak
          (float_of_int eager_max /. float_of_int (max 1 peak))
          identical;
        (name, rows, eager_max, peak, identical, profs))
      sites
  in
  Fmt.pr
    "shape check: identical output graphs; on sites without nested blocks \
     the streaming peak stays strictly below the eager evaluator's largest \
     materialized relation (nested blocks pin their parent relation, so \
     those sites stay comparable).@.";
  (* the JSON baseline: per-site totals plus per-stage watermarks *)
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "{\n  \"experiment\": \"E16_streaming_vs_eager_memory\",\n  \"sites\": [\n";
  List.iteri
    (fun i (name, rows, eager_max, peak, identical, profs) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"site\": \"%s\", \"rows\": %d, \
            \"eager_max_intermediate\": %d, \"streaming_peak_live\": %d, \
            \"identical_output\": %b,\n     \"stages\": ["
           (json_escape name) rows eager_max peak identical);
      let first = ref true in
      List.iter
        (fun (p : Struql.Exec.profile) ->
          List.iter
            (fun (b : Struql.Exec.block_profile) ->
              List.iter
                (fun (op : Struql.Exec.op_stats) ->
                  if not !first then Buffer.add_string buf ", ";
                  first := false;
                  Buffer.add_string buf
                    (Printf.sprintf
                       "{\"block\": \"%s\", \"op\": \"%s\", \"access\": \
                        \"%s\", \"rows_out\": %d, \"max_batch\": %d}"
                       (json_escape b.Struql.Exec.bpr_path)
                       (json_escape
                          (Fmt.str "%a" Struql.Plan.pp_step
                             op.Struql.Exec.os_step))
                       (json_escape
                          (Fmt.str "%a" Struql.Exec.pp_access
                             op.Struql.Exec.os_access))
                       op.Struql.Exec.os_rows_out op.Struql.Exec.os_max_batch))
                b.Struql.Exec.bpr_ops)
            p.Struql.Exec.prf_blocks)
        profs;
      Buffer.add_string buf "]}")
    entries;
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out "BENCH_exec.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Fmt.pr "per-stage watermarks written to BENCH_exec.json@."

(* ----------------------------------------------------------------- *)
(* E17 — parallel materialization and the render cache                *)
(* ----------------------------------------------------------------- *)

(* Wall-clock, not [Sys.time]: CPU time sums over domains, which would
   make a perfect parallel speedup look like no speedup at all. *)
let wall_it f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.)

let e17 () =
  section "E17"
    "parallel materialization on domains + dependency-tracked render cache";
  (* the same auto-detection [strudel build --jobs 0] uses *)
  let cores = Pool.auto_jobs () in
  Fmt.pr "recommended domain count on this machine: %d@." cores;
  let sites =
    [
      ("cnn-100", Sites.Cnn.definition, Sites.Cnn.data ~articles:100 ());
      ( "org-100",
        Sites.Org.definition,
        let _, w = Sites.Org.data ~people:100 ~orgs:6 () in
        Mediator.Warehouse.graph w );
    ]
  in
  let job_levels = [ 1; 2; 4; 8 ] in
  (* Steady-state measurement discipline: the shared pool spawns its
     worker domains on first use and each site's first build pays
     one-time costs (template compile, allocator growth)
     that are not render cost.  One untimed warm-up build at the
     highest jobs level pays all of it up front, and a major GC before
     every timed leg keeps earlier legs' garbage from being collected
     inside a later one — the old org-100 jobs=1 reading (2.3x its
     sequential twin, which runs the very same code) was exactly that
     pollution. *)
  let max_jobs = List.fold_left max 1 job_levels in
  let measured f =
    Gc.full_major ();
    wall_it f
  in
  (* one sample per level cannot order two builds on a host whose
     speed swings between runs: each level is timed [samples] times in
     a row and reported as the median with min and max beside it;
     every sample's result is kept for the identity checks *)
  let samples = 7 in
  let sampled f =
    let runs = List.init samples (fun _ -> measured f) in
    let ts = Array.of_list (List.sort Float.compare (List.map snd runs)) in
    (List.map fst runs, (ts.(samples / 2), ts.(0), ts.(samples - 1)))
  in
  let entries =
    List.map
      (fun (name, def, data) ->
        ignore (Strudel.Site.build ~jobs:max_jobs ~data def);
        let refs, seq = sampled (fun () -> Strudel.Site.build ~data def) in
        let reference = List.hd refs in
        let t_seq, seq_min, seq_max = seq in
        Fmt.pr
          "@.%-10s sequential reference: %d pages, %.1f ms (%.1f-%.1f)@." name
          (Template.Generator.page_count reference.Strudel.Site.site)
          t_seq seq_min seq_max;
        Fmt.pr "  %-8s %10s %13s %9s %6s %10s@." "jobs" "wall ms" "min-max"
          "speedup" "waves" "identical";
        let runs =
          List.map
            (fun jobs ->
              let bs, ((t, t_min, t_max) as wall) =
                sampled (fun () -> Strudel.Site.build ~jobs ~data def)
              in
              let prof = (List.hd bs).Strudel.Site.render_profile in
              let identical =
                List.for_all
                  (fun b ->
                    pages_identical reference.Strudel.Site.site
                      b.Strudel.Site.site)
                  (bs @ List.tl refs)
              in
              Fmt.pr "  %-8d %10.1f %6.1f-%-6.1f %8.2fx %6d %10b@." jobs t
                t_min t_max (t_seq /. t) prof.Strudel.Render_pool.rp_waves
                identical;
              (jobs, wall, prof, identical))
            job_levels
        in
        (* cache: cold build seeds the traces, an identical rebuild hits
           on every page, a one-object edit invalidates only the pages
           whose read set saw it *)
        let cache = Strudel.Render_cache.create () in
        let _, t_cold =
          measured (fun () -> Strudel.Site.build ~render_cache:cache ~data def)
        in
        Strudel.Render_cache.reset_stats cache;
        let warm, t_warm =
          measured (fun () -> Strudel.Site.build ~render_cache:cache ~data def)
        in
        let w_hits, w_misses, w_inval =
          Strudel.Render_cache.stats cache
        in
        let warm_pages =
          Template.Generator.page_count warm.Strudel.Site.site
        in
        let hit_rate =
          float_of_int w_hits /. float_of_int (max 1 (w_hits + w_misses))
        in
        Strudel.Render_cache.reset_stats cache;
        (* edit one observable attribute: the first titled object in any
           collection gets a new title, so exactly the pages whose read
           traces saw the old value must re-render *)
        let edited = Graph.copy data in
        (match
           List.find_map
             (fun o ->
               List.find_map
                 (fun a ->
                   match Graph.attr_value edited o a with
                   | Some v -> Some (o, a, v)
                   | None -> None)
                 [ "title"; "headline"; "name" ])
             (List.concat_map (Graph.collection edited)
                (Graph.collections edited))
         with
         | Some (o, a, old) ->
           Graph.remove_edge edited o a (Graph.V old);
           Graph.add_edge edited o a (Graph.V (Value.String "E17 edited"))
         | None -> ());
        let inc, t_inc =
          measured (fun () ->
              Strudel.Site.build ~render_cache:cache ~data:edited def)
        in
        let i_hits, i_misses, i_inval = Strudel.Render_cache.stats cache in
        let warm_identical =
          pages_identical reference.Strudel.Site.site warm.Strudel.Site.site
        in
        Fmt.pr
          "  cache: cold %.1f ms, warm %.1f ms (%d/%d hits, rate %.2f, \
           identical %b), 1-object edit %.1f ms (%d hits, %d invalidated)@."
          t_cold t_warm w_hits warm_pages hit_rate warm_identical t_inc i_hits
          i_inval;
        ignore inc;
        ( name,
          seq,
          runs,
          (t_cold, t_warm, w_hits, w_misses, w_inval, hit_rate, warm_identical),
          (t_inc, i_hits, i_misses, i_inval) ))
      sites
  in
  (* --- the synth scale leg: 100k+ pages, streamed (never held in
     memory), identity checked by a chain digest over the canonical
     emission order --- *)
  let synth_items =
    match Sys.getenv_opt "STRUDEL_SYNTH_PAGES" with
    | Some s -> ( try max 1_000 (int_of_string s) with _ -> 100_000)
    | None -> 100_000
  in
  let synth_data, t_data =
    wall_it (fun () -> Sites.Scale.data ~items:synth_items ())
  in
  (* the site query three times, each after a major GC, holding one
     site graph at a time: its median, min and max *)
  let site_query () =
    Gc.full_major ();
    let (sg, _, _, _), t =
      wall_it (fun () ->
          Strudel.Site.build_site_graph Sites.Scale.definition synth_data)
    in
    (sg, t)
  in
  let t_first = List.init 2 (fun _ -> snd (site_query ())) in
  let synth_sg, t_last = site_query () in
  let ts = Array.of_list (List.sort Float.compare (t_last :: t_first)) in
  let t_sg = ts.(1) and t_sg_min = ts.(0) and t_sg_max = ts.(2) in
  let synth_roots = Strudel.Site.roots_of synth_sg "Root" in
  let digest_sink () =
    let d = ref "" and pages = ref 0 and bytes = ref 0 in
    let sink =
      {
        Strudel.Render_pool.sk_emit =
          (fun (p : Template.Generator.page) ->
            d :=
              Digest.string
                (!d ^ p.Template.Generator.url ^ "\x00"
               ^ p.Template.Generator.html);
            incr pages;
            bytes := !bytes + String.length p.Template.Generator.html);
        sk_reset =
          (fun () ->
            d := "";
            pages := 0;
            bytes := 0);
      }
    in
    (sink, d, pages, bytes)
  in
  let synth_run jobs =
    let sink, d, pages, bytes = digest_sink () in
    let _, prof =
      Strudel.Render_pool.materialize ~jobs ~sink
        ~templates:Sites.Scale.templates synth_sg ~roots:synth_roots
    in
    (prof, !d, !pages, !bytes)
  in
  let ref_runs, synth_seq = sampled (fun () -> synth_run 1) in
  let t_ref, t_ref_min, t_ref_max = synth_seq in
  let _, ref_digest, ref_pages, ref_bytes = List.hd ref_runs in
  let same (_, digest, pages, _) = digest = ref_digest && pages = ref_pages in
  Fmt.pr
    "@.synth-%dk   data %.0f ms, site graph %.0f ms (median of 3, %.0f-%.0f); \
     %d pages, %.1f MB, sequential materialize %.1f ms (median of %d, \
     %.1f-%.1f, streamed)@."
    (synth_items / 1000) t_data t_sg t_sg_min t_sg_max ref_pages
    (float_of_int ref_bytes /. 1e6)
    t_ref samples t_ref_min t_ref_max;
  Fmt.pr "  %-8s %10s %13s %9s %6s %10s@." "jobs" "wall ms" "min-max"
    "speedup" "waves" "identical";
  let synth_runs =
    List.map
      (fun jobs ->
        let rs, ((t, t_min, t_max) as wall) =
          sampled (fun () -> synth_run jobs)
        in
        let prof, _, _, _ = List.hd rs in
        let identical = List.for_all same (rs @ List.tl ref_runs) in
        Fmt.pr "  %-8d %10.1f %6.1f-%-6.1f %8.2fx %6d %10b@." jobs t t_min
          t_max (t_ref /. t) prof.Strudel.Render_pool.rp_waves identical;
        (jobs, wall, prof, identical))
      job_levels
  in
  Fmt.pr
    "@.note: speedup tracks the machine's core count (this container \
     reports %d); byte-identity holds at every jobs level by \
     construction and is what the differential suite enforces.@."
    cores;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "{\n  \"experiment\": \"E17_parallel_materialization\",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"recommended_domain_count\": %d, \"samples\": %d,\n  \"sites\": [\n"
       cores samples);
  List.iteri
    (fun i
         ( name,
           (t_seq, seq_min, seq_max),
           runs,
           (t_cold, t_warm, w_hits, w_misses, w_inval, hit_rate, warm_id),
           (t_inc, i_hits, i_misses, i_inval) ) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"site\": \"%s\", \"sequential_ms\": %.3f, \
            \"sequential_min_ms\": %.3f, \"sequential_max_ms\": %.3f,\n     \
            \"jobs\": ["
           (json_escape name) t_seq seq_min seq_max);
      List.iteri
        (fun j
             ( jobs,
               (t, t_min, t_max),
               (prof : Strudel.Render_pool.profile),
               identical ) ->
          if j > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf
            (Printf.sprintf
               "{\"jobs\": %d, \"wall_ms\": %.3f, \"wall_min_ms\": %.3f, \
                \"wall_max_ms\": %.3f, \"speedup\": %.3f, \"waves\": %d, \
                \"pages\": %d, \"identical\": %b}"
               jobs t t_min t_max (t_seq /. t)
               prof.Strudel.Render_pool.rp_waves
               prof.Strudel.Render_pool.rp_pages identical))
        runs;
      Buffer.add_string buf
        (Printf.sprintf
           "],\n     \"cache\": {\"cold_ms\": %.3f, \"warm_ms\": %.3f, \
            \"warm_hits\": %d, \"warm_misses\": %d, \"warm_invalidations\": \
            %d, \"hit_rate\": %.3f, \"warm_identical\": %b, \
            \"edit_ms\": %.3f, \"edit_hits\": %d, \"edit_misses\": %d, \
            \"edit_invalidations\": %d}}"
           t_cold t_warm w_hits w_misses w_inval hit_rate warm_id t_inc i_hits
           i_misses i_inval))
    entries;
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"synth\": {\"items\": %d, \"pages\": %d, \"bytes\": %d,\n   \
        \"data_ms\": %.3f, \"site_graph_ms\": %.3f, \"site_graph_min_ms\": \
        %.3f, \"site_graph_max_ms\": %.3f, \"sequential_ms\": %.3f, \
        \"sequential_min_ms\": %.3f, \"sequential_max_ms\": %.3f,\n   \
        \"jobs\": ["
       synth_items ref_pages ref_bytes t_data t_sg t_sg_min t_sg_max t_ref
       t_ref_min t_ref_max);
  List.iteri
    (fun j
         ((jobs, (t, t_min, t_max), (prof : Strudel.Render_pool.profile),
           identical)) ->
      if j > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf
        (Printf.sprintf
           "{\"jobs\": %d, \"wall_ms\": %.3f, \"wall_min_ms\": %.3f, \
            \"wall_max_ms\": %.3f, \"speedup\": %.3f, \"waves\": %d, \
            \"identical\": %b}"
           jobs t t_min t_max (t_ref /. t) prof.Strudel.Render_pool.rp_waves
           identical))
    synth_runs;
  Buffer.add_string buf "]}\n}\n";
  let oc = open_out "BENCH_parallel.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Fmt.pr "parallel/cache profile written to BENCH_parallel.json@."

(* ----------------------------------------------------------------- *)
(* E18 — fault tolerance: degraded-build overhead, retry latency      *)
(* ----------------------------------------------------------------- *)

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.
  | n -> sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

let e18 () =
  section "E18"
    "fault tolerance: degraded-build overhead and retry-latency \
     distribution";
  (* -- degraded builds: what does surviving a faulty render cost? --
     The injector fires on a fixed share of pages (decisions are a pure
     hash of (seed, page), so every jobs level degrades identically);
     overhead is measured against the same build with the injector
     present but disarmed, isolating the cost of quarantine +
     placeholder emission from the cost of carrying the fault ctx. *)
  let sites =
    [
      ("cnn-100", Sites.Cnn.definition, Sites.Cnn.data ~articles:100 ());
      ( "org-100",
        Sites.Org.definition,
        let _, w = Sites.Org.data ~people:100 ~orgs:6 () in
        Mediator.Warehouse.graph w );
    ]
  in
  let job_levels = [ 1; 4 ] in
  let p_render = 0.3 in
  let site_entries =
    List.map
      (fun (name, def, data) ->
        let clean, t_clean = wall_it (fun () -> Strudel.Site.build ~data def) in
        let pages =
          Template.Generator.page_count clean.Strudel.Site.site
        in
        Fmt.pr "@.%-10s clean reference: %d pages, %.1f ms@." name pages
          t_clean;
        Fmt.pr "  %-8s %12s %12s %10s %9s %10s@." "jobs" "degraded ms"
          "recovery ms" "broken" "overhead" "identical";
        let runs =
          List.map
            (fun jobs ->
              let inject =
                Fault.Inject.create ~seed:42 ~p_render ()
              in
              let b, t_degraded =
                wall_it (fun () ->
                    Strudel.Site.build ~jobs ~on_error:Fault.Degrade
                      ~fault:(Fault.ctx ~inject ()) ~data def)
              in
              let broken =
                List.length
                  (List.filter Template.Generator.is_placeholder
                     b.Strudel.Site.site.Template.Generator.pages)
              in
              (* the faults clear: same pipeline, injector disarmed *)
              Fault.Inject.disarm inject;
              let r, t_recovery =
                wall_it (fun () ->
                    Strudel.Site.build ~jobs ~on_error:Fault.Degrade
                      ~fault:(Fault.ctx ~inject ()) ~data def)
              in
              let identical =
                pages_identical clean.Strudel.Site.site r.Strudel.Site.site
              in
              let overhead = t_degraded /. t_recovery in
              Fmt.pr "  %-8d %12.1f %12.1f %10d %8.2fx %10b@." jobs
                t_degraded t_recovery broken overhead identical;
              (jobs, t_degraded, t_recovery, broken, overhead, identical))
            job_levels
        in
        (name, t_clean, pages, runs))
      sites
  in
  (* -- retry latency on virtual time: the backoff schedule is policy,
     not luck, so the distribution is computed exactly — each trial
     draws per-attempt failures from a seeded PRNG, runs the real
     Retry.run loop on a virtual clock, and records the total time the
     loop would have slept. -- *)
  Fmt.pr "@.retry latency (virtual time, %d trials per point):@." 1000;
  Fmt.pr "  %-12s %8s %12s %10s %10s %10s@." "p(fail)" "success"
    "mean ms" "p50 ms" "p95 ms" "max ms";
  let trials = 1000 in
  let retry_entries =
    List.map
      (fun p_fail ->
        let rng = Random.State.make [| 0xE18; int_of_float (p_fail *. 100.) |] in
        let latencies = Array.make trials 0. in
        let successes = ref 0 in
        for i = 0 to trials - 1 do
          let clock, sleeps = Fault.Clock.virtual_ () in
          let r =
            Fault.Retry.run ~clock ~retry:Fault.Policy.default_retry
              (fun ~attempt:_ ->
                if Random.State.float rng 1.0 < p_fail then
                  failwith "transient"
                else ())
          in
          if r = Ok () then incr successes;
          latencies.(i) <- List.fold_left ( +. ) 0. (sleeps ())
        done;
        Array.sort compare latencies;
        let mean =
          Array.fold_left ( +. ) 0. latencies /. float_of_int trials
        in
        let p50 = percentile latencies 0.50 in
        let p95 = percentile latencies 0.95 in
        let p_max = latencies.(trials - 1) in
        let success_rate = float_of_int !successes /. float_of_int trials in
        Fmt.pr "  %-12.1f %7.1f%% %12.2f %10.1f %10.1f %10.1f@." p_fail
          (100. *. success_rate) mean p50 p95 p_max;
        (p_fail, success_rate, mean, p50, p95, p_max))
      [ 0.1; 0.3; 0.5; 0.8 ]
  in
  Fmt.pr
    "@.note: degraded output costs about what the equivalent clean \
     build does — the placeholder path renders less, not more; \
     recovery byte-identity is the property the fault suite \
     enforces.@.";
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"experiment\": \"E18_fault_tolerance\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"p_render\": %.2f,\n  \"sites\": [\n" p_render);
  List.iteri
    (fun i (name, t_clean, pages, runs) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"site\": \"%s\", \"pages\": %d, \"clean_ms\": %.3f, \
            \"jobs\": ["
           (json_escape name) pages t_clean);
      List.iteri
        (fun j (jobs, t_degraded, t_recovery, broken, overhead, identical) ->
          if j > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf
            (Printf.sprintf
               "{\"jobs\": %d, \"degraded_ms\": %.3f, \"recovery_ms\": \
                %.3f, \"broken_pages\": %d, \"overhead\": %.3f, \
                \"recovery_identical\": %b}"
               jobs t_degraded t_recovery broken overhead identical))
        runs;
      Buffer.add_string buf "]}")
    site_entries;
  Buffer.add_string buf "\n  ],\n  \"retry_latency\": [\n";
  List.iteri
    (fun i (p_fail, success_rate, mean, p50, p95, p_max) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"p_fail\": %.2f, \"trials\": %d, \"success_rate\": %.3f, \
            \"mean_ms\": %.3f, \"p50_ms\": %.3f, \"p95_ms\": %.3f, \
            \"max_ms\": %.3f}"
           p_fail trials success_rate mean p50 p95 p_max))
    retry_entries;
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out "BENCH_fault.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Fmt.pr "fault-tolerance profile written to BENCH_fault.json@."

(* ----------------------------------------------------------------- *)
(* E19 — static analysis cost: lint vs a full build                   *)
(* ----------------------------------------------------------------- *)

(* The whole point of linting is a verdict without the build; the
   budget for the four analysis families is a small fraction of the
   build they replace.  Lint runs several times (it is fast and
   jittery), the build once. *)
let e19 () =
  section "E19" "static analysis: lint wall time vs full build";
  let sites =
    [
      ( "cnn-100",
        Sites.Lint_specs.cnn ~articles:100 (),
        fun () ->
          Strudel.Site.build
            ~data:(Sites.Cnn.data ~articles:100 ())
            Sites.Cnn.definition );
      ( "org-100",
        Sites.Lint_specs.org ~people:100 ~orgs:6 ~projects:30 ~pubs:80 (),
        fun () ->
          let _, w = Sites.Org.data ~people:100 ~orgs:6 () in
          Strudel.Site.build ~data:(Mediator.Warehouse.graph w)
            Sites.Org.definition );
    ]
  in
  Fmt.pr "  %-10s %10s %10s %8s %6s@." "site" "lint ms" "build ms" "ratio"
    "diags";
  let entries =
    List.map
      (fun (name, spec, build) ->
        let runs = 5 in
        let lint_ms = ref infinity in
        let diags = ref [] in
        for _ = 1 to runs do
          let ds, t = wall_it (fun () -> Analysis.Lint.run spec) in
          diags := ds;
          if t < !lint_ms then lint_ms := t
        done;
        let _, build_ms = wall_it build in
        let ratio = !lint_ms /. build_ms in
        Fmt.pr "  %-10s %10.2f %10.1f %7.1f%% %6d@." name !lint_ms build_ms
          (100. *. ratio)
          (List.length !diags);
        (name, !lint_ms, build_ms, ratio, List.length !diags))
      sites
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n  \"experiment\": \"E19_lint\",\n  \"sites\": [";
  List.iteri
    (fun i (name, lint_ms, build_ms, ratio, diags) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    {\"site\": \"%s\", \"lint_ms\": %.3f, \"build_ms\": %.3f, \
            \"ratio\": %.4f, \"diagnostics\": %d}"
           name lint_ms build_ms ratio diags))
    entries;
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out "BENCH_lint.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Fmt.pr "lint cost profile written to BENCH_lint.json@."

(* ----------------------------------------------------------------- *)
(* E20 — compiled graph kernel: memoized path engine on the live graph *)
(* ----------------------------------------------------------------- *)

(* The interpretive product BFS the kernel's results must equal, order
   included (the test suite's oracle runs the same search): (state,
   object) pairs in FIFO order over each node's out-edges, an object
   recorded the first time it is dequeued in an accepting state. *)
let bfs_eval_from nfa g src =
  let key = function Graph.N o -> `N (Oid.id o) | Graph.V v -> `V v in
  let visited = Hashtbl.create 64 and seen = Hashtbl.create 16 in
  let results_rev = ref [] and queue = Queue.create () in
  let trans = Array.init (Path.nfa_states nfa) (Path.nfa_transitions nfa) in
  let push s t =
    if not (Hashtbl.mem visited (s, key t)) then begin
      Hashtbl.add visited (s, key t) ();
      Queue.add (s, t) queue
    end
  in
  List.iter (fun s -> push s (Graph.N src)) (Path.nfa_start_states nfa);
  while not (Queue.is_empty queue) do
    let s, t = Queue.pop queue in
    if Path.nfa_is_accepting nfa s && not (Hashtbl.mem seen (key t)) then begin
      Hashtbl.add seen (key t) ();
      results_rev := t :: !results_rev
    end;
    match t with
    | Graph.V _ -> ()
    | Graph.N o ->
      List.iter
        (fun (l, tgt) ->
          List.iter
            (fun (p, succ) ->
              if Path.edge_pred_matches p l then
                List.iter (fun s' -> push s' tgt) succ)
            trans.(s))
        (Graph.out_edges g o)
  done;
  List.rev !results_rev

let e20 () =
  section "E20" "graph kernel: memoized regular-path engine on the live graph";
  (* Closure-heavy workload shaped like eval_pairs: the same source set
     probed repeatedly (once per conjunct / per round).  The reference
     BFS re-runs its search every time; the kernel runs one compiled
     BFS per distinct source over the live slot adjacency, then serves
     memo hits. *)
  let rounds = 5 in
  (* one compiled automaton per workload, as query plans hold one nfa
     per conjunct — this is what makes the per-source memo effective *)
  let run_closure eval g nsources =
    let sources =
      List.filteri (fun i _ -> i < nsources) (Graph.nodes g)
    in
    let results = ref [] in
    for _ = 1 to rounds do
      results := List.map (eval g) sources
    done;
    !results
  in
  let closure_workloads =
    [
      ( "chain-2k",
        (fun () -> fst (chain_graph 2000)),
        Path.any_path,
        200 );
      ( "grid-40",
        (fun () -> fst (grid_graph 40)),
        Path.Seq
          ( Path.Star (Path.Edge (Path.Label "right")),
            Path.Star (Path.Edge (Path.Label "down")) ),
        400 );
      ( "rand-2k",
        (fun () -> fst (random_graph 2000 7)),
        Path.any_path,
        200 );
    ]
  in
  Fmt.pr "  closure workload: %d rounds over the source set@." rounds;
  Fmt.pr "  %-10s %8s %12s %12s %12s %8s@." "graph" "srcs" "BFS ms"
    "kernel ms" "warm ms" "speedup";
  let closure_rows =
    List.map
      (fun (name, build, r, nsources) ->
        let nfa = Path.compile r in
        let g = build () in
        let reference, legacy_ms =
          wall_it (fun () -> run_closure (bfs_eval_from nfa) g nsources)
        in
        let kernel_eval g o = Path.eval_from ~nfa g r o in
        (* cold leg: prepares the kernel state and misses every memo *)
        let kernel, kernel_ms =
          wall_it (fun () -> run_closure kernel_eval g nsources)
        in
        (* warm leg: memos already populated *)
        let _, warm_ms =
          wall_it (fun () -> run_closure kernel_eval g nsources)
        in
        if
          not
            (List.equal (List.equal Graph.target_equal) reference kernel)
        then failwith (Printf.sprintf "E20 %s: result mismatch" name);
        let k = Graph.kernel_counters g in
        let speedup = legacy_ms /. kernel_ms in
        Fmt.pr "  %-10s %8d %12.1f %12.1f %12.1f %7.1fx@." name nsources
          legacy_ms kernel_ms warm_ms speedup;
        Fmt.pr "             kernel counters: hits=%d misses=%d@."
          k.Graph.hits k.Graph.misses;
        (name, nsources, legacy_ms, kernel_ms, warm_ms, speedup))
      closure_workloads
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"experiment\": \"E20_path_kernel\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"rounds\": %d,\n  \"closure\": [" rounds);
  List.iteri
    (fun i (name, srcs, legacy_ms, kernel_ms, warm_ms, speedup) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    {\"graph\": \"%s\", \"sources\": %d, \"legacy_ms\": %.3f, \
            \"kernel_ms\": %.3f, \"warm_ms\": %.3f, \"speedup\": %.2f}"
           name srcs legacy_ms kernel_ms warm_ms speedup))
    closure_rows;
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out "BENCH_path.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Fmt.pr "path-kernel profile written to BENCH_path.json@."

(* ----------------------------------------------------------------- *)
(* E21 — sharded repository: parallel refresh, segment decode          *)
(* ----------------------------------------------------------------- *)

let e21 () =
  section "E21"
    "sharded repository: parallel refresh, segment decode";
  (* --- A: parallel refresh across domains ---
     A synthetic federation of independent sources whose loaders are
     CPU-bound (the busy loop stands in for wrapper parsing cost; pure
     integer ops, domain-safe).  Every round bumps every source so a
     refresh must re-load all of them. *)
  let n_sources = 8 in
  let items = 1500 in
  let spin = 20_000_000 in
  let synth name round () =
    let h = ref (Hashtbl.hash name + round) in
    for _ = 1 to spin do
      h := ((!h * 1103515245) + 12345) land 0x3FFFFFFF
    done;
    let g = Graph.create ~name () in
    for i = 1 to items do
      let o = Graph.new_node g (Printf.sprintf "%s-%d" name i) in
      Graph.add_to_collection g name o;
      Graph.add_edge g o "v"
        (Graph.V (Value.Int ((i + round + (!h land 7)) mod 97)))
    done;
    g
  in
  let names = List.init n_sources (fun i -> Printf.sprintf "Src%d" i) in
  let sources =
    List.map (fun n -> Mediator.Source.make ~name:n (synth n 0)) names
  in
  let mappings =
    List.map
      (fun n -> Mediator.Gav.copy_collection ~source:n ~collection:n ())
      names
  in
  let w = Mediator.Warehouse.create ~sources ~mappings () in
  let round = ref 0 in
  let refresh_ms jobs =
    incr round;
    let r = !round in
    List.iter
      (fun n ->
        match Mediator.Warehouse.find_source w n with
        | Some s -> Mediator.Source.update s (synth n r)
        | None -> assert false)
      names;
    let changed, t = wall_it (fun () -> Mediator.Warehouse.refresh ~jobs w) in
    if not changed then failwith "E21: refresh did not rebuild";
    t
  in
  ignore (refresh_ms 1) (* warm-up: fault-free steady state *);
  (* one refresh per level spread jobs=2 over 260-414 ms across runs
     of one build: each level is the median of [samples] refreshes in
     a row, with min and max beside it *)
  let samples = 5 in
  let sampled jobs =
    let ts =
      Array.of_list
        (List.sort Float.compare (List.init samples (fun _ -> refresh_ms jobs)))
    in
    (ts.(samples / 2), ts.(0), ts.(samples - 1))
  in
  let base = ref nan in
  Fmt.pr "  parallel refresh: %d sources, %d items each (cores: %d)@."
    n_sources items
    (Domain.recommended_domain_count ());
  Fmt.pr "  %-6s %12s %17s %8s   (median of %d)@." "jobs" "ms" "min-max"
    "speedup" samples;
  let refresh_rows =
    List.map
      (fun jobs ->
        let ((t, t_min, t_max) as wall) = sampled jobs in
        if jobs = 1 then base := t;
        let sp = !base /. t in
        Fmt.pr "  %-6d %12.1f %8.1f-%-8.1f %7.2fx@." jobs t t_min t_max sp;
        (jobs, wall, sp))
      [ 1; 2; 4; 8 ]
  in
  let speedup4 =
    match List.find_opt (fun (j, _, _) -> j = 4) refresh_rows with
    | Some (_, _, sp) -> sp
    | None -> nan
  in
  if speedup4 >= 2.0 then
    Fmt.pr "  refresh at 4 domains: %.2fx >= 2x target@." speedup4
  else
    Fmt.pr "  WARNING: refresh at 4 domains only %.2fx (< 2x target)@."
      speedup4;
  (* --- B: cold segment open — decode (checksum included), then the
     graph --- *)
  let g = Mediator.Warehouse.graph w in
  let dir =
    let f = Filename.temp_file "e21shard" "" in
    Sys.remove f;
    Unix.mkdir f 0o755;
    f
  in
  let cfg = { Repository.Shard.dir; cfg_spec = Repository.Shard.By_collection } in
  ignore (Repository.Shard.publish cfg ~epoch:1 g);
  let seg_files =
    List.filter (fun f -> Filename.check_suffix f ".seg") (Array.to_list (Sys.readdir dir))
  in
  let seg_path =
    (* largest segment: the most interesting open cost *)
    List.fold_left
      (fun best f ->
        let p = Filename.concat dir f in
        match best with
        | Some (_, sz) when (Unix.stat p).Unix.st_size <= sz -> best
        | _ -> Some (p, (Unix.stat p).Unix.st_size))
      None seg_files
    |> Option.get |> fst
  in
  let seg_bytes = (Unix.stat seg_path).Unix.st_size in
  let best_of f =
    let t = ref infinity in
    for _ = 1 to 5 do
      let _, ms = wall_it f in
      if ms < !t then t := ms
    done;
    !t
  in
  let decode_ms =
    best_of (fun () -> ignore (Repository.Segment.read ~path:seg_path ()))
  in
  let to_graph_ms =
    let seg = Repository.Segment.read ~path:seg_path () in
    best_of (fun () -> ignore (Repository.Segment.to_graph [ seg ]))
  in
  Fmt.pr "  segment %s: %d bytes@." (Filename.basename seg_path) seg_bytes;
  Fmt.pr "  decode (checksum included) %.3f ms | to_graph %.3f ms@." decode_ms
    to_graph_ms;
  (* best-effort cleanup of the temp repository *)
  Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
    (Sys.readdir dir);
  (try Unix.rmdir dir with _ -> ());
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"experiment\": \"E21_sharded_repository\",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"sources\": %d,\n  \"items_per_source\": %d,\n  \"cores\": %d,\n\
       \  \"samples\": %d,\n"
       n_sources items
       (Domain.recommended_domain_count ())
       samples);
  Buffer.add_string buf "  \"refresh\": [";
  List.iteri
    (fun i (jobs, (t, t_min, t_max), sp) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    {\"jobs\": %d, \"ms\": %.3f, \"min_ms\": %.3f, \
            \"max_ms\": %.3f, \"speedup\": %.2f}"
           jobs t t_min t_max sp))
    refresh_rows;
  Buffer.add_string buf
    (Printf.sprintf
       "\n  ],\n  \"segment\": {\"bytes\": %d, \"decode_ms\": %.3f, \
        \"to_graph_ms\": %.3f}\n}\n"
       seg_bytes decode_ms to_graph_ms);
  let oc = open_out "BENCH_shard.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Fmt.pr "shard profile written to BENCH_shard.json@."

(* ----------------------------------------------------------------- *)
(* E22 — strudeld: serving published epochs, refresh and overload    *)
(* ----------------------------------------------------------------- *)

(* A new export of the org site's bibliography: [base] with its first
   [k] titles prefixed "Revision [rev] of ".  Returns the text and the
   number of titles rewritten. *)
let retitle_bib base ~rev k =
  (* leading newline + indent so "booktitle = {" doesn't match *)
  let pat = "\n  title = {" in
  let plen = String.length pat in
  let len = String.length base in
  let buf = Buffer.create (len + 64) in
  let n = ref 0 in
  let i = ref 0 in
  while !i < len do
    if !n < k && !i + plen <= len && String.sub base !i plen = pat then begin
      Buffer.add_string buf (Printf.sprintf "\n  title = {Revision %d of " rev);
      incr n;
      i := !i + plen
    end
    else begin
      Buffer.add_char buf base.[!i];
      incr i
    end
  done;
  (Buffer.contents buf, !n)

let load_bib text () = fst (Wrappers.Bibtex.load ~graph_name:"BIB" text)

(* A median with min and max beside it. *)
let spread ts =
  let a = Array.of_list (List.sort Float.compare ts) in
  let n = Array.length a in
  (a.(n / 2), a.(0), a.(n - 1))

(* Three in-process legs and one over TCP.  An engine serves what a
   cold build publishes, rendered when its epoch is installed, so
   [startup_ms] (Engine.create over cnn, median of 7) is where the
   rendering goes; a request only looks its page up.  The [served]
   sweep GETs every page, the [revalidated] one sends each page's
   ETag back (If-None-Match -> 304).  The [refresh] leg edits org-100's
   bibliography (10 titles per export) and times Engine.refresh, which
   runs one watch cycle and swaps in its pages; after each refresh a
   sweep is checked against a cold build of the warehouse's graph.
   Every checked response must be a 200 with the cold build's page or
   an empty 304, and every engine must hold exactly the cold build's
   pages; anything else counts as mismatched and fails the run.  The
   TCP leg is the honest load test: a real daemon with a small
   admission bound, hammered by 2x max_inflight concurrent closed-loop
   clients — the interesting numbers are the shed rate and the p99 of
   the *admitted* requests, which the bounded gate keeps flat.  One run
   of it cannot order two builds (its p99 moves by an order of
   magnitude from run to run), so it runs five times and reports each
   figure's median, min and max. *)

let e22 () =
  section "E22" "strudeld: startup, served/304 sweeps, refresh and overload";
  let articles = 200 in
  let built = Sites.Cnn.build ~articles () in
  let data = Sites.Cnn.data ~articles () in
  let mismatched = ref 0 in
  let req path headers =
    {
      Serve.Http.meth = Serve.Http.GET;
      target = path;
      path;
      version = "HTTP/1.1";
      headers;
      body = "";
    }
  in
  (* every page of [pages] through [engine]; mismatches are counted *)
  let sweep engine (pages : Template.Generator.page list) headers_of =
    let n = List.length pages in
    if Serve.Engine.page_count engine <> n then incr mismatched;
    (* requests are built before the clock starts: a sweep times the
       engine alone *)
    let reqs =
      List.map
        (fun (p : Template.Generator.page) ->
          let url = "/" ^ p.Template.Generator.url in
          req url (headers_of url))
        pages
    in
    let lat = Array.make n 0. in
    let t0 = Unix.gettimeofday () in
    let resps =
      List.mapi
        (fun i r ->
          let r0 = Unix.gettimeofday () in
          let resp = Serve.Engine.handle engine r in
          lat.(i) <- ms (Unix.gettimeofday () -. r0);
          resp)
        reqs
    in
    let wall = Unix.gettimeofday () -. t0 in
    List.iter2
      (fun (p : Template.Generator.page) resp ->
        match resp with
        | { Serve.Http.status = 200; resp_body; _ }
          when resp_body = p.Template.Generator.html -> ()
        | { Serve.Http.status = 304; resp_body = ""; _ } -> ()
        | _ -> incr mismatched)
      pages resps;
    Array.sort compare lat;
    (n, float_of_int n /. wall, percentile lat 0.50, percentile lat 0.99)
  in
  let pages = built.Strudel.Site.site.Template.Generator.pages in
  let n_pages = List.length pages in
  let create () =
    Serve.Engine.create ~source:(Serve.Engine.Static data) Sites.Cnn.definition
  in
  let runs = List.init 7 (fun _ -> wall_it create) in
  let startup = spread (List.map snd runs) in
  let engine = fst (List.hd (List.rev runs)) in
  let st_med, st_min, st_max = startup in
  Fmt.pr "leg A: in-process Engine over %d cnn pages@." n_pages;
  Fmt.pr "  startup      %10.3f ms (median of 7, %.3f-%.3f)@." st_med st_min
    st_max;
  let leg name (n, rps, p50, p99) =
    Fmt.pr "  %-12s %6d req %10.0f req/s %10.3f ms p50 %10.3f ms p99@." name n
      rps p50 p99;
    (name, n, rps, p50, p99)
  in
  let served_leg = leg "served" (sweep engine pages (fun _ -> [])) in
  let etags =
    List.map
      (fun (p : Template.Generator.page) ->
        let url = "/" ^ p.Template.Generator.url in
        let resp = Serve.Engine.handle engine (req url []) in
        ( url,
          List.assoc_opt "ETag" resp.Serve.Http.resp_headers
          |> Option.value ~default:"\"\"" ))
      pages
  in
  let reval =
    leg "revalidated"
      (sweep engine pages (fun url ->
           [ ("if-none-match", List.assoc url etags) ]))
  in
  (* --- refresh: org-100, a 10-title bibliography export per round --- *)
  let sources, w = Sites.Org.data ~people:100 ~orgs:6 () in
  (* re-seat the bibliography on a text we control, so each export
     below rewrites exactly [titles] titles of it *)
  let base_bib = Wrappers.Synth.bibtex ~seed:77 ~entries:80 () in
  Mediator.Source.update sources.Sites.Org.bib (load_bib base_bib);
  ignore (Mediator.Warehouse.refresh_delta w);
  let org =
    Serve.Engine.create ~source:(Serve.Engine.Federated w) Sites.Org.definition
  in
  let titles = 10 and rounds = 11 in
  let before = !mismatched in
  let refresh_ms =
    List.init rounds (fun r ->
        let text, _ = retitle_bib base_bib ~rev:(r + 1) titles in
        Mediator.Source.update sources.Sites.Org.bib (load_bib text);
        let changed, t = wall_it (fun () -> Serve.Engine.refresh org) in
        if not changed then incr mismatched;
        let cold =
          Strudel.Site.build ~data:(Mediator.Warehouse.graph w)
            Sites.Org.definition
        in
        ignore
          (sweep org cold.Strudel.Site.site.Template.Generator.pages (fun _ ->
               []));
        t)
  in
  let org_pages = Serve.Engine.page_count org in
  let rf_med, rf_min, rf_max = spread refresh_ms in
  Fmt.pr "@.leg R: org-100, %d pages, %d-title bibliography export@."
    org_pages titles;
  Fmt.pr "  refresh      %10.3f ms (median of %d, %.3f-%.3f), %d mismatched@."
    rf_med rounds rf_min rf_max (!mismatched - before);
  Fmt.pr "  responses or page counts unlike the cold build's: %d@."
    !mismatched;
  (* --- leg B: overload through the real daemon, [overload_runs]
     times: one run's admitted p99 swings by an order of magnitude *)
  let workers = 4 and max_inflight = 8 and overload_runs = 5 in
  let clients = 2 * max_inflight in
  let per_client = 150 in
  let total = clients * per_client in
  Fmt.pr
    "@.leg B: TCP daemon, %d workers, max-inflight %d, %d closed-loop \
     clients (2x overload), %d requests each, %d runs@."
    workers max_inflight clients per_client overload_runs;
  let url_arr =
    Array.of_list
      (List.map
         (fun (p : Template.Generator.page) -> "/" ^ p.Template.Generator.url)
         pages)
  in
  let overload () =
    let config =
      { Serve.Daemon.default_config with workers; max_inflight }
    in
    let daemon =
      Serve.Daemon.create ~config
        ~handler:(fun ~worker:_ r -> Serve.Engine.handle engine r)
        ()
    in
    let listener, port =
      Serve.Daemon.tcp_listener ~tick_ms:20. ~host:"127.0.0.1" ~port:0 ()
    in
    let srv = Domain.spawn (fun () -> Serve.Daemon.serve daemon listener) in
    let addr = Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port) in
    let one_request i =
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd addr;
          let url = url_arr.(i mod n_pages) in
          let wire =
            Printf.sprintf
              "GET %s HTTP/1.1\r\nhost: bench\r\nConnection: close\r\n\r\n"
              url
          in
          ignore (Unix.write_substring fd wire 0 (String.length wire));
          let b = Bytes.create 8192 in
          let first = ref "" in
          let rec slurp () =
            match Unix.read fd b 0 8192 with
            | 0 -> ()
            | n ->
              if !first = "" then first := Bytes.sub_string b 0 (min n 16);
              slurp ()
            | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)
              ->
              ()
          in
          slurp ();
          if String.length !first >= 12 then Some (String.sub !first 9 3)
          else None)
    in
    let t0 = Unix.gettimeofday () in
    let worker_results =
      List.init clients (fun c ->
          Domain.spawn (fun () ->
              let ok_lat = ref [] in
              let shed = ref 0 and other = ref 0 in
              for i = 0 to per_client - 1 do
                let r0 = Unix.gettimeofday () in
                match one_request ((c * per_client) + i) with
                | Some "200" ->
                  ok_lat := ms (Unix.gettimeofday () -. r0) :: !ok_lat
                | Some "503" -> incr shed
                | Some _ | None -> incr other
                | exception Unix.Unix_error (_, _, _) -> incr other
              done;
              (!ok_lat, !shed, !other)))
      |> List.map Domain.join
    in
    let wall = Unix.gettimeofday () -. t0 in
    Serve.Daemon.stop daemon;
    Domain.join srv;
    let ok_lat =
      List.concat_map (fun (l, _, _) -> l) worker_results |> Array.of_list
    in
    Array.sort compare ok_lat;
    let served = Array.length ok_lat in
    let shed = List.fold_left (fun n (_, s, _) -> n + s) 0 worker_results in
    let other = List.fold_left (fun n (_, _, o) -> n + o) 0 worker_results in
    let rps = float_of_int total /. wall in
    let p50 = percentile ok_lat 0.50 and p99 = percentile ok_lat 0.99 in
    let ds = Serve.Daemon.stats daemon in
    Fmt.pr
      "  %d requests in %.2f s (%.0f req/s): %d served, %d shed (%.1f%%), \
       %d errors; admitted %.3f ms p50, %.3f ms p99; daemon: served %d, \
       shed %d, aborts %d, exit %d@."
      total wall rps served shed
      (100. *. float_of_int shed /. float_of_int total)
      other p50 p99 ds.Serve.Daemon.d_served ds.Serve.Daemon.d_shed
      ds.Serve.Daemon.d_client_aborts
      (Serve.Daemon.exit_code daemon);
    (rps, served, shed, other, p50, p99)
  in
  let runs = List.init overload_runs (fun _ -> overload ()) in
  let sum f = List.fold_left (fun n r -> n + f r) 0 runs in
  let served = sum (fun (_, s, _, _, _, _) -> s)
  and shed = sum (fun (_, _, s, _, _, _) -> s)
  and other = sum (fun (_, _, _, o, _, _) -> o) in
  let rps = spread (List.map (fun (r, _, _, _, _, _) -> r) runs)
  and shed_rate =
    spread
      (List.map
         (fun (_, _, s, _, _, _) -> float_of_int s /. float_of_int total)
         runs)
  and p50 = spread (List.map (fun (_, _, _, _, p, _) -> p) runs)
  and p99 = spread (List.map (fun (_, _, _, _, _, p) -> p) runs) in
  let med (m, _, _) = m in
  Fmt.pr
    "  median of %d runs: %.0f req/s, shed %.1f%%, admitted %.3f ms p50, \
     %.3f ms p99@."
    overload_runs (med rps) (100. *. med shed_rate) (med p50) (med p99);
  let buf = Buffer.create 1024 in
  let json_leg (name, n, rps, p50, p99) =
    Printf.sprintf
      "  \"%s\": {\"requests\": %d, \"rps\": %.1f, \"p50_ms\": %.4f, \
       \"p99_ms\": %.4f}"
      name n rps p50 p99
  in
  Buffer.add_string buf "{\n  \"experiment\": \"E22_serve\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"site\": \"cnn\",\n  \"pages\": %d,\n" n_pages);
  Buffer.add_string buf
    (Printf.sprintf "  \"mismatched\": %d,\n" !mismatched);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"startup_ms\": {\"median\": %.3f, \"min\": %.3f, \"max\": %.3f, \
        \"runs\": 7},\n"
       st_med st_min st_max);
  Buffer.add_string buf (json_leg served_leg ^ ",\n");
  Buffer.add_string buf (json_leg reval ^ ",\n");
  Buffer.add_string buf
    (Printf.sprintf
       "  \"refresh\": {\"site\": \"org-100\", \"pages\": %d, \"titles\": %d, \
        \"refresh_ms\": {\"median\": %.3f, \"min\": %.3f, \"max\": %.3f, \
        \"runs\": %d}},\n"
       org_pages titles rf_med rf_min rf_max rounds);
  let stat (m, lo, hi) =
    Printf.sprintf
      "{\"median\": %.4f, \"min\": %.4f, \"max\": %.4f, \"runs\": %d}" m lo
      hi overload_runs
  in
  Buffer.add_string buf
    (Printf.sprintf
       "  \"overload\": {\"clients\": %d, \"workers\": %d, \
        \"max_inflight\": %d, \"requests_per_run\": %d, \"runs\": %d, \
        \"rps\": %s, \"served\": %d, \"shed\": %d, \"errors\": %d, \
        \"shed_rate\": %s, \"admitted_p50_ms\": %s, \
        \"admitted_p99_ms\": %s}\n}\n"
       clients workers max_inflight total overload_runs (stat rps) served shed
       other (stat shed_rate) (stat p50) (stat p99));
  let oc = open_out "BENCH_serve.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Fmt.pr "serve profile written to BENCH_serve.json@.";
  if !mismatched > 0 then begin
    Fmt.epr "E22: %d responses or page counts differ from the cold build@."
      !mismatched;
    exit 1
  end

(* ----------------------------------------------------------------- *)
(* Bechamel microbenchmarks — one Test.make per measured experiment   *)
(* ----------------------------------------------------------------- *)

let bechamel_suite () =
  section "MICRO" "Bechamel microbenchmarks";
  let open Bechamel in
  let open Toolkit in
  (* prebuilt inputs so the staged closures measure only the operation *)
  let paper_data = Sites.Paper_example.data () in
  let paper_query = Struql.Parser.parse Sites.Paper_example.site_query in
  let opt_g, opt_conds = optimizer_workload ~pubs:60 () in
  let idx_g =
    fst (Wrappers.Bibtex.load (Wrappers.Synth.bibtex ~entries:200 ()))
  in
  let noidx_g =
    let g = Graph.create ~indexed:false ~name:"n" () in
    ignore (Wrappers.Bibtex.load_into g (Wrappers.Synth.bibtex ~entries:200 ()));
    g
  in
  let year_query =
    Struql.Parser.parse
      {|WHERE Publications(x), x -> "year" -> 1997 COLLECT Hits(x) OUTPUT o|}
  in
  let chain_g, chain_src = chain_graph 2000 in
  let star_nfa = Path.compile Path.any_path in
  let built = Sites.Paper_example.build () in
  let homepage_data = Sites.Homepage.data ~entries:50 () in
  let cnn_small = Sites.Cnn.data ~articles:60 () in
  let cnn_cache = Strudel.Render_cache.create () in
  let cnn_built =
    Strudel.Site.build ~render_cache:cnn_cache ~data:cnn_small
      Sites.Cnn.definition
  in
  let tests =
    [
      Test.make ~name:"E2_parse_fig3_query"
        (Staged.stage (fun () ->
             ignore (Struql.Parser.parse Sites.Paper_example.site_query)));
      Test.make ~name:"E3_eval_fig3_query"
        (Staged.stage (fun () ->
             ignore (Struql.Exec.run paper_data paper_query)));
      Test.make ~name:"E4_derive_site_schema"
        (Staged.stage (fun () ->
             ignore (Schema.Site_schema.of_query paper_query)));
      Test.make ~name:"E5_render_site_pages"
        (Staged.stage (fun () ->
             let roots =
               Schema.Verify.family_members built.Strudel.Site.site_graph
                 "RootPage"
             in
             ignore
               (Strudel.Render_pool.materialize
                  ~templates:Sites.Paper_example.templates
                  built.Strudel.Site.site_graph ~roots)));
      Test.make ~name:"E6_full_build_small_site"
        (Staged.stage (fun () ->
             ignore
               (Strudel.Site.build ~data:paper_data
                  Sites.Paper_example.definition)));
      Test.make ~name:"E9_naive_plan_eval"
        (Staged.stage (fun () ->
             ignore (run_strategy opt_g opt_conds Struql.Plan.Naive)));
      Test.make ~name:"E9_heuristic_plan_eval"
        (Staged.stage (fun () ->
             ignore (run_strategy opt_g opt_conds Struql.Plan.Heuristic)));
      Test.make ~name:"E9_costbased_plan_eval"
        (Staged.stage (fun () ->
             ignore (run_strategy opt_g opt_conds Struql.Plan.Cost_based)));
      Test.make ~name:"E10_query_with_indexes"
        (Staged.stage (fun () -> ignore (Struql.Exec.run idx_g year_query)));
      Test.make ~name:"E10_query_full_scan"
        (Staged.stage (fun () -> ignore (Struql.Exec.run noidx_g year_query)));
      Test.make ~name:"E11_clicktime_first_page"
        (Staged.stage (fun () ->
             let ct =
               Strudel.Materialize.Click_time.start ~data:homepage_data
                 Sites.Homepage.definition
             in
             let root = List.hd (Strudel.Materialize.Click_time.roots ct) in
             ignore (Strudel.Materialize.Click_time.browse ct root)));
      Test.make ~name:"E12_closure_chain2k"
        (Staged.stage (fun () ->
             ignore
               (Path.eval_from ~nfa:star_nfa chain_g Path.any_path chain_src)));
      Test.make ~name:"E13_render_one_page"
        (Staged.stage (fun () ->
             let o =
               List.hd
                 (Schema.Verify.family_members
                    cnn_built.Strudel.Site.site_graph "ArticlePage")
             in
             ignore
               (Template.Generator.render_page ~templates:Sites.Cnn.templates
                  cnn_built.Strudel.Site.site_graph o)));
      Test.make ~name:"E14_incremental_rebuild_no_change"
        (Staged.stage (fun () ->
             ignore
               (Strudel.Incremental.rebuild ~cache:cnn_cache
                  ~previous:cnn_built ~data:cnn_small ())));
      Test.make ~name:"E15_xml_export_import"
        (Staged.stage (fun () ->
             ignore (Xml.import (Xml.export paper_data))));
      Test.make ~name:"E15_binary_encode_decode"
        (Staged.stage (fun () ->
             ignore
               (Repository.Segment.to_graph
                  [ Repository.Segment.of_string
                      (Repository.Segment.encode cnn_small) ])));
      Test.make ~name:"E15_ddl_print_parse"
        (Staged.stage (fun () ->
             ignore (Ddl.parse (Ddl.print cnn_small))));
      Test.make ~name:"E15_dataguide_build"
        (Staged.stage (fun () ->
             ignore
               (Schema.Dataguide.of_graph
                  ~roots:(Graph.collection cnn_small "Articles")
                  cnn_small)));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw =
    Benchmark.all cfg instances (Test.make_grouped ~name:"strudel" tests)
  in
  let results = List.map (fun i -> Analyze.all ols i raw) instances in
  let merged = Analyze.merge ols instances results in
  let rows = ref [] in
  Hashtbl.iter
    (fun _label tbl ->
      Hashtbl.iter
        (fun name ols_r ->
          match Analyze.OLS.estimates ols_r with
          | Some [ e ] -> rows := (name, e) :: !rows
          | _ -> ())
        tbl)
    merged;
  List.iter
    (fun (name, e) ->
      if e > 1e6 then Fmt.pr "  %-45s %12.3f ms/run@." name (e /. 1e6)
      else Fmt.pr "  %-45s %12.0f ns/run@." name e)
    (List.sort compare !rows)

(* ----------------------------------------------------------------- *)
(* E23 — Dsan: race-sanitizer cost on parallel materialization        *)
(* ----------------------------------------------------------------- *)

(* Two numbers.  (a) The *disabled* cost: every hot loop in the pool,
   the render scheduler and the shard evaluator now carries sanitizer
   calls whose disabled fast path is one atomic flag load — the wall
   times below are the instrumented-but-off baseline the ≤2% E17
   budget is judged against.  (b) The *enabled* cost: the same
   materialization with the vector-clock detector armed, at several
   perturber seeds ("schedules"), reported as a slowdown factor — this
   is a correctness tool, so the factor is informational, but the race
   count it reports on the stock runtime must be zero. *)

let e23 () =
  section "E23" "Dsan: race sanitizer, disabled overhead and sanitized runs";
  let items =
    match Sys.getenv_opt "STRUDEL_DSAN_PAGES" with
    | Some s -> ( try max 1_000 (int_of_string s) with _ -> 10_000)
    | None -> 10_000
  in
  let data = Sites.Scale.data ~items () in
  let sg, _, _, _ =
    Strudel.Site.build_site_graph Sites.Scale.definition data
  in
  let roots = Strudel.Site.roots_of sg "Root" in
  let run jobs =
    let pages = ref 0 in
    let sink =
      {
        Strudel.Render_pool.sk_emit = (fun _ -> incr pages);
        sk_reset = (fun () -> pages := 0);
      }
    in
    let _, t =
      wall_it (fun () ->
          Strudel.Render_pool.materialize ~jobs ~sink
            ~templates:Sites.Scale.templates sg ~roots)
    in
    (t, !pages)
  in
  let job_levels = [ 1; 4; 8 ] in
  ignore (run 8) (* warm the shared pool: spawn domains outside timing *);
  let disabled = List.map (fun j -> (j, run j)) job_levels in
  let ref_pages = snd (snd (List.hd disabled)) in
  let schedules = 2 in
  let enabled =
    List.map
      (fun j ->
        let per_sched =
          List.init schedules (fun k ->
              Dsan.reset ();
              Dsan.enable ~seed:(1 + k) ();
              let t, p = run j in
              Dsan.disable ();
              let st = Dsan.stats () in
              (t, p, st))
        in
        let mean =
          List.fold_left (fun a (t, _, _) -> a +. t) 0. per_sched
          /. float_of_int schedules
        in
        let ops =
          List.fold_left (fun a (_, _, st) -> a + st.Dsan.st_ops) 0 per_sched
        in
        let races =
          List.fold_left
            (fun a (_, _, st) -> max a st.Dsan.st_races)
            0 per_sched
        in
        let pages_ok =
          List.for_all (fun (_, p, _) -> p = ref_pages) per_sched
        in
        (j, mean, ops, races, pages_ok))
      job_levels
  in
  Fmt.pr "synth-%dk: %d pages@." (items / 1000) ref_pages;
  Fmt.pr "  %-6s %14s %14s %9s %12s %6s@." "jobs" "disabled ms" "enabled ms"
    "slowdown" "dsan ops" "races";
  List.iter2
    (fun (j, (td, _)) (j', te, ops, races, _) ->
      assert (j = j');
      Fmt.pr "  %-6d %14.1f %14.1f %8.2fx %12d %6d@." j td te (te /. td) ops
        races)
    disabled enabled;
  let total_races =
    List.fold_left (fun a (_, _, _, r, _) -> a + r) 0 enabled
  in
  if total_races > 0 then
    Fmt.pr "  RACES DETECTED on the stock runtime — fix before trusting \
            parallel output@."
  else
    Fmt.pr "  no races across %d schedule(s) per jobs level@." schedules;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"experiment\": \"E23_race_sanitizer\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"items\": %d, \"pages\": %d, \"schedules\": %d,\n"
       items ref_pages schedules);
  Buffer.add_string buf "  \"disabled\": [";
  List.iteri
    (fun i (j, (t, _)) ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf
        (Printf.sprintf "{\"jobs\": %d, \"wall_ms\": %.3f}" j t))
    disabled;
  Buffer.add_string buf "],\n  \"enabled\": [";
  List.iteri
    (fun i (j, te, ops, races, pages_ok) ->
      if i > 0 then Buffer.add_string buf ", ";
      let td = fst (List.assoc j disabled) in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"jobs\": %d, \"wall_ms\": %.3f, \"slowdown\": %.3f, \"ops\": \
            %d, \"races\": %d, \"pages_identical\": %b}"
           j te (te /. td) ops races pages_ok))
    enabled;
  Buffer.add_string buf
    (Printf.sprintf "],\n  \"races_total\": %d\n}\n" total_races);
  let oc = open_out "BENCH_dsan.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Fmt.pr "sanitizer profile written to BENCH_dsan.json@."

(* ----------------------------------------------------------------- *)
(* E24 — Delta-StruQL: differential maintenance vs full rebuild       *)
(* ----------------------------------------------------------------- *)

type e24_row = {
  dr_requested : int;  (** mutation size asked for *)
  dr_mutated : int;  (** items actually mutated (capped by corpus) *)
  dr_cycles : int;  (** mutate→publish cycles the times are medians of *)
  dr_watch_ms : float;  (** end-to-end [Watch.cycle]: ingest → publish *)
  dr_watch_q1_ms : float;
  dr_watch_q3_ms : float;  (** quartiles of [dr_watch_ms] over the cycles *)
  dr_delta_ms : float;  (** the cycle's own maintain+publish clock *)
  dr_full_ms : float;  (** cold [Site.build] over the same mutated data *)
  dr_drivers : int;
  dr_rows : int;
  dr_touched : int;
  dr_rerendered : int;
  dr_reused : int;
  dr_identical : bool;
}

let e24_header label =
  Fmt.pr "@.%s@." label;
  Fmt.pr "  %8s %8s %12s %12s %9s %11s %9s %10s@." "edited" "mutated"
    "watch ms" "full ms" "speedup" "rerendered" "reused" "identical"

(* One cell: [cycles] mutate→publish measurements, each applying the
   edit, running one watch cycle, then timing the comparator — a cold
   [Site.build] over the same mutated data — and checking the two
   publishes byte-identical.  Times are medians over the cycles; the
   counters are the last cycle's. *)
let e24_row ?(cycles = 1) ~session ~mutate ~cold k =
  let one () =
    let mutated = mutate k in
    Gc.full_major ();
    let report, t_watch = wall_it (fun () -> Serve.Watch.cycle session) in
    Gc.full_major ();
    let cold_built, t_full = wall_it cold in
    let identical =
      pages_identical (Serve.Watch.built session).Strudel.Site.site
        cold_built.Strudel.Site.site
    in
    (mutated, report, t_watch, t_full, identical)
  in
  let runs = List.init cycles (fun _ -> one ()) in
  let sorted f =
    let a = Array.of_list (List.map f runs) in
    Array.sort Float.compare a;
    a
  in
  let watch = sorted (fun (_, _, t, _, _) -> t) in
  let t_watch = percentile watch 0.5
  and t_full = percentile (sorted (fun (_, _, _, t, _) -> t)) 0.5
  and t_delta =
    percentile (sorted (fun (_, r, _, _, _) -> r.Serve.Watch.cy_wall_ms)) 0.5
  in
  let identical = List.for_all (fun (_, _, _, _, id) -> id) runs in
  let mutated, report, _, _, _ = List.nth runs (cycles - 1) in
  Fmt.pr "  %8d %8d %12.1f %12.1f %8.1fx %11d %9d %10b%s@." k mutated t_watch
    t_full (t_full /. t_watch) report.Serve.Watch.cy_rerendered
    report.Serve.Watch.cy_reused identical
    (if cycles > 1 then
       Printf.sprintf "   (median of %d, IQR %.1f-%.1f)" cycles
         (percentile watch 0.25) (percentile watch 0.75)
     else "");
  {
    dr_requested = k;
    dr_mutated = mutated;
    dr_cycles = cycles;
    dr_watch_ms = t_watch;
    dr_watch_q1_ms = percentile watch 0.25;
    dr_watch_q3_ms = percentile watch 0.75;
    dr_delta_ms = t_delta;
    dr_full_ms = t_full;
    dr_drivers = report.Serve.Watch.cy_drivers;
    dr_rows = report.Serve.Watch.cy_rows;
    dr_touched = report.Serve.Watch.cy_touched;
    dr_rerendered = report.Serve.Watch.cy_rerendered;
    dr_reused = report.Serve.Watch.cy_reused;
    dr_identical = identical;
  }

let e24_sizes = [ 1; 10; 100; 1000 ]

(* The set-up split, medians of 5 rounds in this process.  Each round
   times, after a full collection each, the engine's prime alone, the
   whole watch set-up (prime, first publish, verification), the site
   query a cold build runs, and the cold build, so a drift of the
   host's speed between rounds moves all four alike. *)
type e24_setup = {
  su_prime_ms : float;
  su_setup_ms : float;
  su_query_ms : float;
  su_cold_ms : float;
}

let e24_setup ~source ~data (def : Strudel.Site.definition) =
  let queries = List.map snd (Strudel.Site.parse_queries def) in
  let options =
    { Struql.Eval.default_options with
      strategy = def.Strudel.Site.strategy;
      registry = def.Strudel.Site.registry }
  in
  let timed f =
    Gc.full_major ();
    snd (wall_it f)
  in
  let rounds =
    Array.init 5 (fun _ ->
        let dx = Struql.Dexec.create ~options ~queries data in
        let prime = timed (fun () -> Struql.Dexec.prime dx) in
        let setup = timed (fun () -> Serve.Watch.create ~source def) in
        let query =
          timed (fun () -> Strudel.Site.build_site_graph def data)
        in
        let cold = timed (fun () -> Strudel.Site.build ~data def) in
        [| prime; setup; query; cold |])
  in
  let med k =
    let a = Array.map (fun r -> r.(k)) rounds in
    Array.sort Float.compare a;
    a.(Array.length a / 2)
  in
  { su_prime_ms = med 0; su_setup_ms = med 1; su_query_ms = med 2;
    su_cold_ms = med 3 }

let e24_setup_line label su =
  Fmt.pr
    "  %s set-up (median of 5): prime %.1f ms / site query %.1f ms = %.2fx; \
     watch set-up %.1f ms / cold build %.1f ms = %.2fx@."
    label su.su_prime_ms su.su_query_ms
    (su.su_prime_ms /. su.su_query_ms)
    su.su_setup_ms su.su_cold_ms
    (su.su_setup_ms /. su.su_cold_ms)

let e24_setup_json su =
  Printf.sprintf
    "\"prime_ms\": %.1f, \"setup_ms\": %.1f, \"site_query_ms\": %.1f, \
     \"cold_build_ms\": %.1f, \"prime_over_query\": %.2f, \
     \"setup_over_cold\": %.2f"
    su.su_prime_ms su.su_setup_ms su.su_query_ms su.su_cold_ms
    (su.su_prime_ms /. su.su_query_ms)
    (su.su_setup_ms /. su.su_cold_ms)

let e24_json_rows rows =
  String.concat ", "
    (List.map
       (fun r ->
         Printf.sprintf
           "{\"requested\": %d, \"mutated\": %d, \"cycles\": %d, \
            \"watch_ms\": %.3f, \"watch_q1_ms\": %.3f, \"watch_q3_ms\": \
            %.3f, \"delta_ms\": %.3f, \"full_ms\": %.3f, \"speedup\": %.2f, \
            \"drivers\": %d, \"rows\": %d, \"touched\": %d, \
            \"rerendered\": %d, \"reused\": %d, \"identical\": %b}"
           r.dr_requested r.dr_mutated r.dr_cycles r.dr_watch_ms
           r.dr_watch_q1_ms r.dr_watch_q3_ms r.dr_delta_ms r.dr_full_ms
           (r.dr_full_ms /. r.dr_watch_ms)
           r.dr_drivers r.dr_rows r.dr_touched r.dr_rerendered r.dr_reused
           r.dr_identical)
       rows)

(* E24's mediated half, org-100 with edits arriving as source updates.
   It runs in a process of its own ([main.exe --e24-org FILE]), so its
   medians are not taken in the heap the synth-100k half just grew; it
   writes two lines to FILE: whether every publish was identical, and
   its JSON object. *)
let e24_org out =
  let sources, w = Sites.Org.data ~people:100 ~orgs:6 () in
  let pubs = 80 (* [Sites.Org.data]'s default bibliography size *) in
  (* Re-seat the bibliography on a text we control, so graded edits
     below change exactly [k] titles relative to this base. *)
  let base_bib = Wrappers.Synth.bibtex ~seed:77 ~entries:pubs () in
  Mediator.Source.update sources.Sites.Org.bib (load_bib base_bib);
  ignore (Mediator.Warehouse.refresh_delta w);
  let osource = Serve.Watch.Mediated w in
  let osetup =
    e24_setup ~source:osource ~data:(Mediator.Warehouse.graph w)
      Sites.Org.definition
  in
  let osession = Serve.Watch.create ~source:osource Sites.Org.definition in
  let org_pages =
    List.length
      (Serve.Watch.built osession).Strudel.Site.site.Template.Generator.pages
  in
  let orev = ref 0 in
  let omutate k =
    incr orev;
    let text, n = retitle_bib base_bib ~rev:!orev k in
    Mediator.Source.update sources.Sites.Org.bib (load_bib text);
    n
  in
  let ocold () =
    Strudel.Site.build ~data:(Mediator.Warehouse.graph w) Sites.Org.definition
  in
  e24_header (Printf.sprintf "org-100    %d pages" org_pages);
  e24_setup_line "org-100" osetup;
  let org_rows =
    List.map
      (e24_row ~cycles:7 ~session:osession ~mutate:omutate ~cold:ocold)
      e24_sizes
  in
  let oc = open_out out in
  Printf.fprintf oc "%b\n" (List.for_all (fun r -> r.dr_identical) org_rows);
  Printf.fprintf oc "{\"pubs\": %d, \"pages\": %d, %s, \"runs\": [%s]}\n"
    pubs org_pages (e24_setup_json osetup) (e24_json_rows org_rows);
  close_out oc

let e24 () =
  section "E24"
    "Delta-StruQL: differential maintenance vs full re-query + rebuild";
  (* --- direct mode: synth-100k, edits through the watch recorder --- *)
  let synth_items =
    match Sys.getenv_opt "STRUDEL_SYNTH_PAGES" with
    | Some s -> ( try max 1_000 (int_of_string s) with _ -> 100_000)
    | None -> 100_000
  in
  let data = Sites.Scale.data ~items:synth_items () in
  let source = Serve.Watch.Direct data in
  let setup = e24_setup ~source ~data Sites.Scale.definition in
  let session = Serve.Watch.create ~source Sites.Scale.definition in
  let synth_pages =
    List.length
      (Serve.Watch.built session).Strudel.Site.site.Template.Generator.pages
  in
  let items = Array.of_list (Graph.collection data "Items") in
  let cursor = ref 0 in
  let rev = ref 0 in
  let mutate k =
    let r = Option.get (Serve.Watch.recorder session) in
    incr rev;
    for _ = 1 to k do
      let o = items.(!cursor mod Array.length items) in
      incr cursor;
      Delta.Rec.set_value r o "title"
        (Value.String (Printf.sprintf "%s rev %d" (Oid.name o) !rev))
    done;
    min k (Array.length items)
  in
  let cold () = Strudel.Site.build ~data Sites.Scale.definition in
  let synth_label = Printf.sprintf "synth-%dk" (synth_items / 1000) in
  e24_header (Printf.sprintf "%s   %d pages" synth_label synth_pages);
  e24_setup_line synth_label setup;
  let synth_rows = List.map (e24_row ~session ~mutate ~cold) e24_sizes in
  (* --- mediated mode: org-100, in its own process --- *)
  let out = Filename.temp_file "strudel-e24-org" ".txt" in
  Format.pp_print_flush Format.std_formatter ();
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--e24-org"; out |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  (match Unix.waitpid [] pid with
   | _, Unix.WEXITED 0 -> ()
   | _ -> failwith "E24: the org-100 process failed");
  let ic = open_in out in
  let org_identical = bool_of_string (input_line ic) in
  let org_json = input_line ic in
  close_in ic;
  Sys.remove out;
  (* --- acceptance + profile --- *)
  let one = List.hd synth_rows in
  let speedup_1 = one.dr_full_ms /. one.dr_watch_ms in
  let all_identical =
    List.for_all (fun r -> r.dr_identical) synth_rows && org_identical
  in
  Fmt.pr
    "@.acceptance: 1-item mutation on synth-%dk publishes %.1fx faster than \
     a full rebuild (>=10x: %b), byte-identical everywhere: %b@."
    (synth_items / 1000) speedup_1 (speedup_1 >= 10.) all_identical;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"experiment\": \"E24_delta_maintenance\",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"synth\": {\"items\": %d, \"pages\": %d, %s, \"runs\": [%s]},\n"
       synth_items synth_pages (e24_setup_json setup)
       (e24_json_rows synth_rows));
  Buffer.add_string buf (Printf.sprintf "  \"org\": %s,\n" org_json);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"acceptance\": {\"synth_1item_speedup\": %.2f, \"ge_10x\": %b, \
        \"all_identical\": %b}\n}\n"
       speedup_1 (speedup_1 >= 10.) all_identical);
  let oc = open_out "BENCH_delta.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Fmt.pr "delta maintenance profile written to BENCH_delta.json@."

(* --- E25: watch cycles on sites whose pages share slug URLs --- *)

(* Item names that differ only in characters a slug drops, as
   non-Latin titles do: each [k] below 512 slugs to "x". *)
let e25_greek k =
  "x"
  ^ String.concat ""
      (List.init 9 (fun b -> if (k lsr b) land 1 = 1 then "β" else "α"))

(* synth-1's site over its data plus [names], items of group g000: 40
   one-item retitles, one watch cycle each.  Returns the median cycle
   and its IQR, the pages re-rendered over the cycles, the templates
   parsed meanwhile, and whether the last publish equals a cold
   build's. *)
let e25_site label names =
  let g = Wrappers.Synth.scale_graph ~seed:1 ~groups:20 ~items:1000 () in
  List.iter
    (fun name ->
      let o = Graph.new_node g name in
      Graph.add_to_collection g "Items" o;
      Graph.add_edge g o "title" (Graph.V (Value.String name));
      Graph.add_edge g o "grp" (Graph.V (Value.String "g000")))
    names;
  let w = Serve.Watch.create ~source:(Serve.Watch.Direct g) Sites.Scale.definition in
  let r = Option.get (Serve.Watch.recorder w) in
  let parsed = Template.Generator.templates_parsed () in
  let times = Array.make 40 0. and rerendered = ref 0 in
  for k = 0 to 39 do
    let o = Option.get (Graph.find_node g (Printf.sprintf "item%d" (25 * k))) in
    Delta.Rec.set_value r o "title"
      (Value.String (Printf.sprintf "Retitled %d" k));
    let report, ms = wall_it (fun () -> Serve.Watch.cycle w) in
    times.(k) <- ms;
    rerendered := !rerendered + report.Serve.Watch.cy_rerendered
  done;
  let parsed = Template.Generator.templates_parsed () - parsed in
  let built = Serve.Watch.built w in
  let identical =
    pages_identical built.Strudel.Site.site
      (Strudel.Site.build ~data:g Sites.Scale.definition).Strudel.Site.site
  in
  Array.sort Float.compare times;
  let med = percentile times 0.5 in
  Fmt.pr "  %-26s %5d pages  cycle %7.3f ms (IQR %.3f-%.3f)  rerendered %5d  \
          parses %3d  identical %b@."
    label
    (List.length built.Strudel.Site.site.Template.Generator.pages)
    med (percentile times 0.25) (percentile times 0.75) !rerendered parsed
    identical;
  (med, identical)

let e25 () =
  section "E25" "watch cycles on sites whose pages share slug URLs";
  let free, i1 = e25_site "synth-1" [] in
  let pair, i2 = e25_site "synth-1 + x.y, x_y" [ "x.y"; "x_y" ] in
  let spread, i3 =
    e25_site "synth-1 + 300 slugs" (List.init 300 (Printf.sprintf "x%d"))
  in
  let group, i4 = e25_site "synth-1 + 300 on one slug" (List.init 300 e25_greek) in
  Fmt.pr "@.a clash's cycle over the clash-free one's: pair %.2fx, 300 on one slug %.2fx@."
    (pair /. free) (group /. spread);
  if not (i1 && i2 && i3 && i4) then begin
    Fmt.epr "E25: a watch publish differs from the cold build@.";
    exit 1
  end

(* --- experiment selection ---

   With no arguments every experiment runs, in order.  With arguments,
   only the named experiments run; an unknown name is an error (exit 1)
   rather than a silent no-op, so a typo in CI cannot masquerade as a
   passing run. *)

let experiments =
  [
    ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6);
    ("E7", e7); ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11);
    ("E12", e12); ("E13", e13); ("E14", e14); ("E15", e15); ("E16", e16);
    ("E17", e17); ("E18", e18); ("E19", e19); ("E20", e20); ("E21", e21);
    ("E22", e22);
    ("E23", e23);
    ("E24", e24);
    ("E25", e25);
    ("micro", bechamel_suite);
  ]

let () =
  let t0 = Sys.time () in
  let requested =
    match Array.to_list Sys.argv with
    | [ _; "--e24-org"; out ] ->
      e24_org out;
      exit 0
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  let find name =
    List.find_opt
      (fun (n, _) -> String.lowercase_ascii n = String.lowercase_ascii name)
      experiments
  in
  (* validate every name before running anything *)
  let unknown = List.filter (fun n -> find n = None) requested in
  if unknown <> [] then begin
    Fmt.epr "unknown experiment%s: %s@.known: %s@."
      (if List.length unknown > 1 then "s" else "")
      (String.concat ", " unknown)
      (String.concat ", " (List.map fst experiments));
    exit 1
  end;
  List.iter (fun n -> (snd (Option.get (find n))) ()) requested;
  Fmt.pr "@.total bench time: %.1f s@." (Sys.time () -. t0)
