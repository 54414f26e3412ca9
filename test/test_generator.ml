open Sgraph
open Template

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec find i = i + n <= h && (String.sub hay i n = needle || find (i + 1)) in
  find 0

let mk_site_graph () =
  let g = Graph.create ~name:"sg" () in
  let root = Graph.new_node g "Root()" in
  let a = Graph.new_node g "Page(a)" in
  let b = Graph.new_node g "Page(b)" in
  Graph.add_to_collection g "Roots" root;
  Graph.add_to_collection g "Pages" a;
  Graph.add_to_collection g "Pages" b;
  Graph.add_edge g root "Child" (Graph.N a);
  Graph.add_edge g root "Child" (Graph.N b);
  Graph.add_edge g a "title" (Graph.V (Value.String "Page A"));
  Graph.add_edge g b "title" (Graph.V (Value.String "Page B"));
  (g, root, a, b)

let templates =
  {
    Generator.by_object = [];
    by_collection =
      [
        ("Roots", {|<h1>Root</h1><SFMTLIST @Child>|});
        ("Pages", {|<h2><SFMT @title></h2>|});
      ];
    named = [];
  }

(* a site build's page loop *)
let generate ?templates g ~roots =
  fst (Strudel.Render_pool.materialize ?templates g ~roots)

let generation =
  [
    t "pages discovered transitively from roots" (fun () ->
        let g, root, _, _ = mk_site_graph () in
        let site = generate ~templates g ~roots:[ root ] in
        check_int "3 pages" 3 (Generator.page_count site));
    t "collection template selected" (fun () ->
        let g, root, a, _ = mk_site_graph () in
        let site = generate ~templates g ~roots:[ root ] in
        let pa = Option.get (Generator.page_of_object site a) in
        check_bool "rendered with Pages tpl" true
          (contains pa.Generator.html "<h2>Page A</h2>"));
    t "object template beats collection template" (fun () ->
        let g, root, a, _ = mk_site_graph () in
        let templates =
          { templates with Generator.by_object = [ ("Page(a)", "SPECIAL") ] }
        in
        let site = generate ~templates g ~roots:[ root ] in
        let pa = Option.get (Generator.page_of_object site a) in
        check_bool "special" true (contains pa.Generator.html "SPECIAL"));
    t "HTML-template attribute beats collection template" (fun () ->
        let g, root, a, _ = mk_site_graph () in
        Graph.add_edge g a "HTML-template" (Graph.V (Value.String "alt"));
        let templates =
          { templates with Generator.named = [ ("alt", "NAMED <SFMT @title>") ] }
        in
        let site = generate ~templates g ~roots:[ root ] in
        let pa = Option.get (Generator.page_of_object site a) in
        check_bool "named used" true (contains pa.Generator.html "NAMED Page A"));
    t "unknown HTML-template name raises" (fun () ->
        let g, root, a, _ = mk_site_graph () in
        Graph.add_edge g a "HTML-template" (Graph.V (Value.String "missing"));
        check_bool "raises" true
          (try ignore (generate ~templates g ~roots:[ root ]); false
           with Generator.Generator_error _ -> true));
    t "object without template gets property sheet" (fun () ->
        let g, root, _, _ = mk_site_graph () in
        let site =
          generate ~templates:Generator.empty_templates g ~roots:[ root ]
        in
        let pr = Option.get (Generator.page_of_object site root) in
        check_bool "dl rendering" true (contains pr.Generator.html "<dl>"));
    t "links use anchors from title attr" (fun () ->
        let g, root, _, _ = mk_site_graph () in
        let site = generate ~templates g ~roots:[ root ] in
        let pr = Option.get (Generator.page_of_object site root) in
        check_bool "anchor" true (contains pr.Generator.html ">Page A</a>"));
    t "urls unique even with colliding slugs" (fun () ->
        let g = Graph.create () in
        let r = Graph.new_node g "R()" in
        let a = Graph.new_node g "P(x y)" in
        let b = Graph.new_node g "P(x.y)" in
        Graph.add_edge g r "c" (Graph.N a);
        Graph.add_edge g r "c" (Graph.N b);
        let site = generate g ~roots:[ r ] in
        let urls = List.map (fun p -> p.Generator.url) site.Generator.pages in
        check_int "3 urls distinct" 3
          (List.length (List.sort_uniq compare urls)));
    t "embedding cycle degrades to link" (fun () ->
        let g = Graph.create () in
        let a = Graph.new_node g "A()" and b = Graph.new_node g "B()" in
        Graph.add_to_collection g "Cyc" a;
        Graph.add_to_collection g "Cyc" b;
        Graph.add_edge g a "next" (Graph.N b);
        Graph.add_edge g b "next" (Graph.N a);
        let templates =
          {
            Generator.empty_templates with
            Generator.by_collection = [ ("Cyc", "[<SFMT @next EMBED>]") ];
          }
        in
        let site = generate ~templates g ~roots:[ a ] in
        let pa = Option.get (Generator.page_of_object site a) in
        (* a embeds b, b's embed of a becomes a link *)
        check_bool "cycle broken" true (contains pa.Generator.html "<a href="));
    t "page wrapping adds html scaffold once" (fun () ->
        let g, root, _, _ = mk_site_graph () in
        let site = generate ~templates g ~roots:[ root ] in
        let pr = Option.get (Generator.page_of_object site root) in
        check_bool "wrapped" true (contains pr.Generator.html "<html>");
        check_bool "title tag" true (contains pr.Generator.html "<title>"));
    t "template already containing html not rewrapped" (fun () ->
        let g = Graph.create () in
        let r = Graph.new_node g "R()" in
        Graph.add_to_collection g "Rs" r;
        let templates =
          {
            Generator.empty_templates with
            Generator.by_collection = [ ("Rs", "<html><body>X</body></html>") ];
          }
        in
        let site = generate ~templates g ~roots:[ r ] in
        let pr = Option.get (Generator.page_of_object site r) in
        check_int "one html tag" 1
          (let h = pr.Generator.html in
           let rec count i acc =
             if i + 6 > String.length h then acc
             else if String.sub h i 6 = "<html>" then count (i + 6) (acc + 1)
             else count (i + 1) acc
           in
           count 0 0));
    t "render_page matches generate output for same object" (fun () ->
        let g, root, a, _ = mk_site_graph () in
        let site = generate ~templates g ~roots:[ root ] in
        let from_site = Option.get (Generator.page_of_object site a) in
        let single = Generator.render_page ~templates g a in
        Alcotest.(check string) "same html" from_site.Generator.html
          single.Generator.html);
    t "write_site produces files" (fun () ->
        let g, root, _, _ = mk_site_graph () in
        let site = generate ~templates g ~roots:[ root ] in
        let dir = Filename.temp_file "strudelsite" "" in
        Sys.remove dir;
        Generator.write_site ~dir site;
        check_int "3 files" 3 (Array.length (Sys.readdir dir));
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir);
    t "total_bytes positive" (fun () ->
        let g, root, _, _ = mk_site_graph () in
        let site = generate ~templates g ~roots:[ root ] in
        check_bool "bytes" true (Generator.total_bytes site > 0));
  ]

let suite = generation
