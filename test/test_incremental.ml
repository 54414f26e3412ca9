open Sgraph
open Strudel

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let page_map = Test_end_to_end_props.page_map

(* the previous build, made through a fresh render cache that the
   rebuild under test then reuses *)
let primed def data =
  let cache = Render_cache.create () in
  (cache, Site.build ~render_cache:cache ~data def)

(* a template that reads three hops away from its page:
   PPage -> X -> APage -> Y -> BPage -> Z *)
let three_hop_query =
  {|WHERE Ps(p), p -> "x" -> a, a -> "y" -> b, b -> "z" -> z
    CREATE PPage(p), APage(a), BPage(b)
    LINK PPage(p) -> "X" -> APage(a), APage(a) -> "Y" -> BPage(b),
         BPage(b) -> "Z" -> z
    COLLECT PPages(PPage(p))
    OUTPUT S|}

let three_hop_def =
  Site.define ~name:"three-hop" ~root_family:"PPage"
    ~templates:
      {
        Template.Generator.empty_templates with
        Template.Generator.by_collection =
          [ ("PPages", "<p><SFMT @X.Y.Z></p>") ];
      }
    [ ("site", three_hop_query) ]

let three_hop_data z =
  let g = Graph.create ~name:"hops" () in
  let p = Graph.new_node g "p" in
  let a = Graph.new_node g "a" in
  let b = Graph.new_node g "b" in
  Graph.add_to_collection g "Ps" p;
  Graph.add_edge g p "x" (Graph.N a);
  Graph.add_edge g a "y" (Graph.N b);
  Graph.add_edge g b "z" (Graph.V (Value.String z));
  g

let suite =
  [
    t "rebuild with identical data reuses every page" (fun () ->
        let cache, previous =
          primed Sites.Cnn.definition (Sites.Cnn.data ~articles:40 ())
        in
        let report =
          Incremental.rebuild ~cache ~previous
            ~data:(Sites.Cnn.data ~articles:40 ()) ()
        in
        check_int "0 rerendered" 0 report.Incremental.pages_rerendered;
        check_int "all reused" report.Incremental.pages_total
          report.Incremental.pages_reused);
    t "incremental result equals full rebuild" (fun () ->
        let cache, previous =
          primed Sites.Cnn.definition (Sites.Cnn.data ~articles:40 ())
        in
        let data2 = Sites.Cnn.data ~articles:40 () in
        (match Graph.find_node data2 "art3" with
         | Some a ->
           Graph.add_edge data2 a "headline"
             (Graph.V (Value.String "CHANGED headline"))
         | None -> Alcotest.fail "missing art3");
        let inc = Incremental.rebuild ~cache ~previous ~data:data2 () in
        let full = Site.build ~data:data2 Sites.Cnn.definition in
        check_bool "page html identical" true
          (page_map inc.Incremental.built.Site.site = page_map full.Site.site));
    t "change touches few pages" (fun () ->
        let cache, previous =
          primed Sites.Cnn.definition (Sites.Cnn.data ~articles:60 ())
        in
        let data2 = Sites.Cnn.data ~articles:60 () in
        (match Graph.find_node data2 "art5" with
         | Some a ->
           Graph.add_edge data2 a "body" (Graph.V (Value.String "new body"))
         | None -> ());
        let report = Incremental.rebuild ~cache ~previous ~data:data2 () in
        check_bool "few rerendered" true
          (report.Incremental.pages_rerendered * 4 < report.Incremental.pages_total);
        check_bool "some rerendered" true (report.Incremental.pages_rerendered > 0));
    t "added object creates new pages" (fun () ->
        let cache, previous =
          primed Sites.Cnn.definition (Sites.Cnn.data ~articles:20 ())
        in
        let data2 = Sites.Cnn.data ~articles:21 () in
        let report = Incremental.rebuild ~cache ~previous ~data:data2 () in
        check_bool "new pages rendered" true
          (report.Incremental.pages_rerendered > 0);
        check_bool "more pages than before" true
          (report.Incremental.pages_total
           > Template.Generator.page_count previous.Site.site - 1));
    t "removed attribute invalidates its page" (fun () ->
        let cache, previous =
          primed Sites.Paper_example.definition (Sites.Paper_example.data ())
        in
        let data2 = Sites.Paper_example.data () in
        let p1 = Option.get (Graph.find_node data2 "pub1") in
        Graph.remove_edge data2 p1 "journal"
          (Graph.V (Value.String "Transactions on Programming Languages and Systems"));
        let report = Incremental.rebuild ~cache ~previous ~data:data2 () in
        check_bool "rerendered something" true
          (report.Incremental.pages_rerendered > 0));
    t "a three-hop template read invalidates its page" (fun () ->
        let cache, previous = primed three_hop_def (three_hop_data "old") in
        let bodies (site : Template.Generator.site) =
          List.map
            (fun (p : Template.Generator.page) -> p.Template.Generator.body)
            site.Template.Generator.pages
        in
        Alcotest.(check (list string))
          "one page, old value" [ "<p>old</p>" ] (bodies previous.Site.site);
        let data = three_hop_data "new" in
        let report = Incremental.rebuild ~cache ~previous ~data () in
        let cold = Site.build ~data three_hop_def in
        Alcotest.(check (list (triple string string string)))
          "rebuild = cold build, in order"
          (Test_parallel.page_triples cold.Site.site)
          (Test_parallel.page_triples report.Incremental.built.Site.site);
        check_int "the page re-rendered" 1
          report.Incremental.pages_rerendered);
  ]
