open Sgraph
open Struql

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fig2 () = fst (Ddl.parse Sites.Paper_example.data_ddl)

let run ?(strategy = Plan.Heuristic) g src =
  Exec.run ~options:{ Eval.default_options with strategy } g
    (Parser.parse src)

let rows g src =
  Exec.bindings g (Parser.parse_conditions src) |> List.length

let stage1 =
  [
    t "collection membership generates" (fun () ->
        check_int "2 pubs" 2 (rows (fig2 ()) "Publications(x)"));
    t "membership as filter" (fun () ->
        check_int "joined" 2 (rows (fig2 ()) {|Publications(x), Publications(x)|}));
    t "edge with label const" (fun () ->
        check_int "2 years" 2 (rows (fig2 ()) {|x -> "year" -> y|}));
    t "edge with label variable binds" (fun () ->
        (* every attribute edge of pub1+pub2: 22 edges *)
        check_int "22" 22 (rows (fig2 ()) "x -> l -> v"));
    t "edge with bound target via value index" (fun () ->
        check_int "one pub in 1997" 1 (rows (fig2 ()) {|x -> "year" -> 1997|}));
    t "value coercion in edge match" (fun () ->
        check_int "string matches int" 1
          (rows (fig2 ()) {|x -> "year" -> "1997"|}));
    t "external predicate" (fun () ->
        check_int "2 ps files" 2
          (rows (fig2 ()) {|Publications(x), x -> "postscript" -> q, isPostScript(q)|});
        check_int "no image" 0
          (rows (fig2 ()) {|Publications(x), x -> "postscript" -> q, isImageFile(q)|}));
    t "comparison filters" (fun () ->
        check_int "1997 only" 1
          (rows (fig2 ()) {|x -> "year" -> y, y = 1997|});
        check_int "le" 2 (rows (fig2 ()) {|x -> "year" -> y, y <= 1998|});
        check_int "ne" 1 (rows (fig2 ()) {|x -> "year" -> y, y != 1997|}));
    t "eq as binder" (fun () ->
        check_int "bind then probe" 1
          (rows (fig2 ()) {|y = 1997, x -> "year" -> y|}));
    t "in condition" (fun () ->
        check_int "both kinds" 2
          (rows (fig2 ())
             {|Publications(x), x -> "pub-type" -> k, k in {"article", "inproceedings"}|});
        check_int "one kind" 1
          (rows (fig2 ()) {|Publications(x), x -> "pub-type" -> k, k in {"article"}|}));
    t "negation" (fun () ->
        check_int "pub without journal" 1
          (rows (fig2 ()) {|Publications(x), not(x -> "journal" -> j)|}));
    t "path condition from collection" (fun () ->
        check_int "values reachable" 2
          (rows (fig2 ())
             {|Publications(x), x -> "postscript" -> v|}));
    t "star path includes source" (fun () ->
        let g = fig2 () in
        (* x -> * -> x for each of the 2 pubs, plus value self-pairs are
           only for distinct (x,y) bindings: count pairs where y = x *)
        let envs =
          Exec.bindings g (Parser.parse_conditions {|Publications(x), x -> * -> y|})
        in
        let self =
          List.filter
            (fun env ->
              match Eval.Env.find "x" env, Eval.Env.find "y" env with
              | Eval.B_target a, Eval.B_target b -> Graph.target_equal a b
              | _ -> false)
            envs
        in
        check_int "2 self pairs" 2 (List.length self));
    t "duplicate conditions do not duplicate rows" (fun () ->
        check_int "2" 2
          (rows (fig2 ()) {|Publications(x), x -> "year" -> y, x -> "year" -> y|}));
    t "label variable joins across conditions" (fun () ->
        (* attributes shared between pub1 and pub2 with equal values *)
        let n =
          rows (fig2 ())
            {|Publications(x), Publications(x2), x -> l -> v, x2 -> l -> v, x != x2|}
        in
        (* author "Mary Fernandez" (both directions) + category
           "Programming Languages" (both) = 4 rows *)
        check_int "shared attrs" 4 n);
  ]

let construction =
  [
    t "create produces one node per distinct skolem term" (fun () ->
        let out = run (fig2 ()) {|WHERE Publications(x) CREATE F(x) COLLECT Fs(F(x)) OUTPUT o|} in
        check_int "2" 2 (Graph.collection_size out "Fs"));
    t "zero-ary skolem creates a single node across rows" (fun () ->
        let out = run (fig2 ()) {|WHERE Publications(x) CREATE R() LINK R() -> "p" -> x COLLECT Rs(R()) OUTPUT o|} in
        check_int "1 root" 1 (Graph.collection_size out "Rs");
        let r = List.hd (Graph.collection out "Rs") in
        check_int "2 links" 2 (List.length (Graph.attr out r "p")));
    t "link copies attribute edges" (fun () ->
        let out =
          run (fig2 ())
            {|WHERE Publications(x), x -> l -> v CREATE P(x) LINK P(x) -> l -> v COLLECT Ps(P(x)) OUTPUT o|}
        in
        check_int "all attrs copied" 22 (Graph.edge_count out));
    t "link to existing data node shares the object" (fun () ->
        let g = fig2 () in
        let out = run g {|WHERE Publications(x) CREATE F() LINK F() -> "pub" -> x COLLECT Fs(F()) OUTPUT o|} in
        let f = List.hd (Graph.collection out "Fs") in
        List.iter
          (fun tgt ->
            match tgt with
            | Graph.N o -> check_bool "shared node" true (Graph.mem_node g o)
            | Graph.V _ -> Alcotest.fail "expected node")
          (Graph.attr out f "pub"));
    t "immutability: runtime link from data node fails validation" (fun () ->
        let g = fig2 () in
        check_bool "raises" true
          (try
             ignore (run g {|WHERE Publications(x) CREATE F(x) LINK x -> "bad" -> F(x) OUTPUT o|});
             false
           with Check.Invalid _ -> true));
    t "nested blocks conjoin ancestor conditions" (fun () ->
        let out =
          run (fig2 ())
            {|WHERE Publications(x), x -> l -> v
              CREATE P(x)
              { WHERE l = "year" CREATE Y(v) LINK Y(v) -> "p" -> P(x) COLLECT Ys(Y(v)) }
              OUTPUT o|}
        in
        check_int "2 year pages" 2 (Graph.collection_size out "Ys"));
    t "sibling blocks see empty bindings" (fun () ->
        let out =
          run (fig2 ())
            {|{ CREATE A() COLLECT As(A()) }
              { WHERE Publications(x) CREATE B(x) COLLECT Bs(B(x)) }
              OUTPUT o|}
        in
        check_int "A once" 1 (Graph.collection_size out "As");
        check_int "B twice" 2 (Graph.collection_size out "Bs"));
    t "skolem fusion across blocks" (fun () ->
        let out =
          run (fig2 ())
            {|{ WHERE Publications(x) CREATE F(x) COLLECT Fs(F(x)) }
              { WHERE Publications(x), x -> "year" -> y CREATE F(x) LINK F(x) -> "y" -> y }
              OUTPUT o|}
        in
        (* second block's F(x) are the same nodes *)
        check_int "2 nodes" 2 (Graph.collection_size out "Fs");
        check_int "2 + 2 edges? just year edges" 2 (Graph.edge_count out));
    t "collect of atomic value is an error" (fun () ->
        check_bool "raises" true
          (try
             ignore
               (run (fig2 ()) {|WHERE x -> "year" -> y COLLECT Years(y) OUTPUT o|});
             false
           with Eval.Eval_error _ -> true));
    t "label variable in link labels edges with bound label" (fun () ->
        let out =
          run (fig2 ())
            {|WHERE Publications(x), x -> l -> v, l = "title"
              CREATE P(x) LINK P(x) -> l -> v COLLECT Ps(P(x)) OUTPUT o|}
        in
        let p = List.hd (Graph.collection out "Ps") in
        check_int "title edge" 1 (List.length (Graph.attr out p "title")));
    t "query composition via shared scope and into" (fun () ->
        let g = fig2 () in
        let scope = Skolem.create () in
        let out = Graph.create ~name:"composed" () in
        ignore
          (Exec.run ~scope ~into:out g
             (Parser.parse {|WHERE Publications(x) CREATE F(x) COLLECT Fs(F(x)) OUTPUT o|}));
        ignore
          (Exec.run ~scope ~into:out g
             (Parser.parse
                {|WHERE Publications(x), x -> "title" -> v CREATE F(x) LINK F(x) -> "t" -> v OUTPUT o|}));
        check_int "2 nodes total" 2 (Graph.collection_size out "Fs");
        let f = List.hd (Graph.collection out "Fs") in
        check_int "titled" 1 (List.length (Graph.attr out f "t")));
    t "suciu-style composition: copy the site graph and add a navbar"
      (fun () ->
        (* §5.1: "the last step copies the entire site graph and adds a
           navigation bar to each page" — a second query over the SITE
           graph *)
        let site =
          run (fig2 ())
            {|{ CREATE Root() COLLECT Roots(Root()) }
              { WHERE Publications(x) CREATE P(x)
                LINK Root() -> "p" -> P(x) }
              OUTPUT site|}
        in
        let final =
          run site
            {|{ CREATE NavBar()
                LINK NavBar() -> "label" -> "home"
                COLLECT NavBars(NavBar()) }
              { WHERE Roots(r), r -> * -> q, q -> l -> q2
                CREATE N(q), N(q2)
                LINK N(q) -> l -> N(q2), N(q) -> "Nav" -> NavBar(),
                     N(q2) -> "Nav" -> NavBar()
                COLLECT NewRoots(N(r)) }
              OUTPUT final|}
        in
        (* every copied page carries the navbar *)
        let nav_edges = Graph.label_count final "Nav" in
        check_int "3 pages with navbar" 3 nav_edges;
        check_int "copied structure" 2 (Graph.label_count final "p");
        check_int "one new root" 1 (Graph.collection_size final "NewRoots"));
    t "complement query (active domain)" (fun () ->
        let g = Graph.create ~name:"c" () in
        let a = Graph.new_node g "a" and b = Graph.new_node g "b" in
        Graph.add_edge g a "e" (Graph.N b);
        let out =
          run g {|WHERE not(p -> le -> q) CREATE F(p), F(q) LINK F(p) -> le -> F(q) OUTPUT Comp|}
        in
        (* pairs: (a,a), (b,a), (b,b) — all but (a,b) *)
        check_int "3 complement edges" 3 (Graph.edge_count out);
        check_int "2 nodes" 2 (Graph.node_count out));
    t "TextOnly copy query drops image subtrees" (fun () ->
        let g = Graph.create ~name:"s" () in
        let r = Graph.new_node g "r" and p = Graph.new_node g "p" in
        Graph.add_to_collection g "Root" r;
        Graph.add_edge g r "child" (Graph.N p);
        Graph.add_edge g p "pic" (Graph.V (Value.File (Value.Image, "x.gif")));
        Graph.add_edge g p "txt" (Graph.V (Value.String "hello"));
        let out =
          run g
            {|WHERE Root(p0), p0 -> * -> q, q -> l -> q2, not(isImageFile(q2))
              CREATE New(p0), New(q), New(q2)
              LINK New(q) -> l -> New(q2)
              COLLECT TextOnlyRoot(New(p0)) OUTPUT TextOnly|}
        in
        check_int "root collected" 1 (Graph.collection_size out "TextOnlyRoot");
        check_bool "no image labels" true (Graph.label_count out "pic" = 0);
        check_int "child+txt edges" 2 (Graph.edge_count out));
  ]

(* strategy equivalence: all planners compute the same site graph *)
let graph_census g =
  ( Graph.node_count g,
    Graph.edge_count g,
    List.sort compare
      (List.map (fun c -> (c, Graph.collection_size g c)) (Graph.collections g)),
    List.sort compare (List.map (fun l -> (l, Graph.label_count g l)) (Graph.labels g)) )

let strategy_equiv =
  let cases =
    [
      ("paper example", Sites.Paper_example.data_ddl, Sites.Paper_example.site_query);
    ]
  in
  List.map
    (fun (name, ddl, qsrc) ->
      t ("strategies agree: " ^ name) (fun () ->
          let g = fst (Ddl.parse ddl) in
          let census strategy = graph_census (run ~strategy g qsrc) in
          let h = census Plan.Heuristic in
          check_bool "naive" true (census Plan.Naive = h);
          check_bool "costbased" true (census Plan.Cost_based = h)))
    cases

(* qcheck: random data graphs, fixed query pool, strategies agree *)
let data_gen =
  let open QCheck.Gen in
  let* n = int_range 1 8 in
  let* edges =
    list_size (int_range 0 20)
      (triple (int_bound (n - 1))
         (oneofl [ "a"; "b"; "year" ])
         (oneof
            [ map (fun i -> `I i) (int_bound 4); map (fun j -> `N j) (int_bound (n - 1)) ]))
  in
  let* members = list_size (int_range 0 n) (int_bound (n - 1)) in
  return (n, edges, members)

let build_data (n, edges, members) =
  let g = Graph.create ~name:"q" () in
  let nodes = Array.init n (fun i -> Oid.fresh (Printf.sprintf "n%d" i)) in
  Array.iter (Graph.add_node g) nodes;
  List.iter
    (fun (a, l, tgt) ->
      match tgt with
      | `I v -> Graph.add_edge g nodes.(a) l (Graph.V (Value.Int v))
      | `N j -> Graph.add_edge g nodes.(a) l (Graph.N nodes.(j)))
    edges;
  List.iter (fun i -> Graph.add_to_collection g "C" nodes.(i)) members;
  g

let query_pool =
  [
    {|WHERE C(x), x -> "a" -> v CREATE F(x) LINK F(x) -> "a" -> v COLLECT Fs(F(x)) OUTPUT o|};
    {|WHERE C(x), x -> l -> v CREATE F(x), G(v) LINK F(x) -> l -> G(v) OUTPUT o|};
    {|WHERE x -> "a" -> y, y -> "b" -> z CREATE F(x) LINK F(x) -> "r" -> z COLLECT Fs(F(x)) OUTPUT o|};
    {|WHERE C(x), not(x -> "a" -> 0) CREATE F(x) COLLECT Fs(F(x)) OUTPUT o|};
    {|WHERE C(x), x -> * -> y CREATE F(x) LINK F(x) -> "reach" -> y OUTPUT o|};
    {|WHERE C(x), x -> "year" -> v, v >= 2 CREATE Y(v) LINK Y(v) -> "of" -> x COLLECT Ys(Y(v)) OUTPUT o|};
  ]

let strategy_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"planner strategies agree on random data"
         ~count:150
         (QCheck.make QCheck.Gen.(pair data_gen (int_bound (List.length query_pool - 1))))
         (fun (spec, qi) ->
           let q = Parser.parse (List.nth query_pool qi) in
           let census strategy =
             let g = build_data spec in
             graph_census
               (Exec.run ~options:{ Eval.default_options with strategy } g q)
           in
           census Plan.Naive = census Plan.Heuristic
           && census Plan.Heuristic = census Plan.Cost_based));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"evaluation is deterministic" ~count:100
         (QCheck.make QCheck.Gen.(pair data_gen (int_bound (List.length query_pool - 1))))
         (fun (spec, qi) ->
           let q = Parser.parse (List.nth query_pool qi) in
           let once () =
             graph_census (Exec.run (build_data spec) q)
           in
           once () = once ()));
  ]

let suite = stage1 @ construction @ strategy_equiv @ strategy_props
