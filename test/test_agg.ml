(* The grouping/aggregation extension (§5.2). *)

open Sgraph
open Struql

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let data () =
  let g = Graph.create ~name:"d" () in
  let mk name year pages cat =
    let o = Graph.new_node g name in
    Graph.add_to_collection g "Pubs" o;
    Graph.add_edge g o "year" (Graph.V (Value.Int year));
    Graph.add_edge g o "pages" (Graph.V (Value.Int pages));
    List.iter
      (fun c -> Graph.add_edge g o "cat" (Graph.V (Value.String c)))
      cat;
    o
  in
  ignore (mk "a" 1997 10 [ "db" ]);
  ignore (mk "b" 1997 20 [ "db"; "pl" ]);
  ignore (mk "c" 1998 30 [ "pl" ]);
  g

let run g src = Exec.run g (Parser.parse src)

let attr_val out name l =
  let o = Option.get (Graph.find_node out name) in
  Graph.attr_value out o l

(* two aggregate links on one page, rendered by the generic property
   sheet, which lists a page's edges in the order they were added *)
let two_aggregates_def =
  Strudel.Site.define ~name:"sections" ~root_family:"Index"
    [
      ( "site",
        {|{ CREATE Index() COLLECT Roots(Index()) }
          { WHERE Articles(a), a -> "section" -> s
            CREATE SectionPage(s)
            LINK Index() -> "Section" -> SectionPage(s),
                 SectionPage(s) -> "Name" -> s,
                 SectionPage(s) -> "Articles" -> count(a),
                 SectionPage(s) -> "Sections" -> count(s) }
          OUTPUT sections|} );
    ]

let agg_fn_gen = QCheck.Gen.oneofl Ast.[ Count; Sum; Min; Max; Avg ]

let agg_value_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Value.Int i) (int_range (-1000) 1000);
        map
          (fun f -> Value.Float f)
          (oneof [ oneofl [ 1e16; -1e16; 1.; 2.; 0.; -0.; 0.1 ]; float ]);
        map (fun i -> Value.String (string_of_int i)) (int_range (-50) 50);
        map (fun s -> Value.String s) (oneofl [ "a"; "b"; "1.0"; "" ]);
      ])

(* an aggregate, its values, and the same values permuted *)
let permuted_arb =
  let open QCheck.Gen in
  let gen =
    pair agg_fn_gen (list_size (int_range 0 8) agg_value_gen)
    >>= fun (fn, vs) -> map (fun ws -> (fn, vs, ws)) (shuffle_l vs)
  in
  QCheck.make gen ~print:(fun (fn, vs, ws) ->
      Printf.sprintf "%s [%s] / [%s]" (Ast.agg_name fn)
        (String.concat "; " (List.map Value.to_string vs))
        (String.concat "; " (List.map Value.to_string ws)))

let aggregate_of fn vs =
  Value.to_string (Eval.aggregate fn (List.map (fun v -> Graph.V v) vs))

let suite =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"an aggregate does not depend on the order of its values"
         ~count:300 permuted_arb (fun (fn, vs, ws) ->
           aggregate_of fn vs = aggregate_of fn ws));
    t "a float sum folds in one order" (fun () ->
        let sum vs =
          aggregate_of Ast.Sum (List.map (fun f -> Value.Float f) vs)
        in
        Alcotest.(check string)
          "same sum"
          (sum [ 1e16; 1.; -1e16; 2. ])
          (sum [ 1.; 2.; 1e16; -1e16 ]));
    t "two aggregates on a page: the same bytes whatever oids came before"
      (fun () ->
        let data = Sites.Cnn.data ~articles:40 () in
        let build () =
          Test_parallel.page_triples
            (Strudel.Site.build ~data two_aggregates_def).Strudel.Site.site
        in
        let first = build () in
        check_bool "an index and its section pages" true
          (List.length first > 3);
        let differing = ref 0 in
        for i = 1 to 40 do
          (* unrelated oids shift the numbers the next build's nodes get *)
          for _ = 1 to i do
            ignore (Oid.fresh "unrelated")
          done;
          if build () <> first then incr differing
        done;
        check_int "builds differing from the first" 0 !differing);
    t "two aggregates on a page: click-time pages equal the full build's"
      (fun () ->
        check_bool "identical" true
          (Test_materialize.pages_match two_aggregates_def
             (Sites.Cnn.data ~articles:40 ())));
    t "count groups by source skolem term" (fun () ->
        let out =
          run (data ())
            {|WHERE Pubs(x), x -> "year" -> y
              CREATE Y(y)
              LINK Y(y) -> "n" -> count(x), Y(y) -> "Year" -> y
              COLLECT Ys(Y(y)) OUTPUT o|}
        in
        check_bool "1997 has 2" true
          (attr_val out "Y(1997)" "n" = Some (Value.Int 2));
        check_bool "1998 has 1" true
          (attr_val out "Y(1998)" "n" = Some (Value.Int 1)));
    t "count is over distinct values" (fun () ->
        (* publications counted once per category-pair join row, but
           count(x) is distinct in x *)
        let out =
          run (data ())
            {|WHERE Pubs(x), x -> "cat" -> c
              CREATE All()
              LINK All() -> "pubsWithCat" -> count(x),
                   All() -> "cats" -> count(c)
              COLLECT As(All()) OUTPUT o|}
        in
        check_bool "3 pubs" true
          (attr_val out "All()" "pubsWithCat" = Some (Value.Int 3));
        check_bool "2 cats" true
          (attr_val out "All()" "cats" = Some (Value.Int 2)));
    t "sum min max avg" (fun () ->
        let out =
          run (data ())
            {|WHERE Pubs(x), x -> "pages" -> p
              CREATE S()
              LINK S() -> "total" -> sum(p), S() -> "lo" -> min(p),
                   S() -> "hi" -> max(p), S() -> "mean" -> avg(p)
              COLLECT Ss(S()) OUTPUT o|}
        in
        check_bool "sum" true (attr_val out "S()" "total" = Some (Value.Int 60));
        check_bool "min" true (attr_val out "S()" "lo" = Some (Value.Int 10));
        check_bool "max" true (attr_val out "S()" "hi" = Some (Value.Int 30));
        check_bool "avg" true
          (attr_val out "S()" "mean" = Some (Value.Float 20.)));
    t "aggregate over empty group yields no edge" (fun () ->
        let out =
          run (data ())
            {|WHERE Pubs(x), x -> "nosuch" -> v
              CREATE S()
              LINK S() -> "n" -> count(v)
              COLLECT Ss(S()) OUTPUT o|}
        in
        (* the where clause never matches: no S() at all *)
        check_int "no nodes" 0 (Graph.node_count out));
    t "min/max over strings" (fun () ->
        let out =
          run (data ())
            {|WHERE Pubs(x), x -> "cat" -> c
              CREATE S()
              LINK S() -> "first" -> min(c), S() -> "last" -> max(c)
              COLLECT Ss(S()) OUTPUT o|}
        in
        check_bool "min" true
          (attr_val out "S()" "first" = Some (Value.String "db"));
        check_bool "max" true
          (attr_val out "S()" "last" = Some (Value.String "pl")));
    t "aggregates in nested blocks group per conjunction" (fun () ->
        let out =
          run (data ())
            {|WHERE Pubs(x), x -> "year" -> y
              CREATE Y(y)
              COLLECT Ys(Y(y))
              { WHERE x -> "cat" -> c
                LINK Y(y) -> "catCount" -> count(c) }
              OUTPUT o|}
        in
        check_bool "1997: db,pl" true
          (attr_val out "Y(1997)" "catCount" = Some (Value.Int 2));
        check_bool "1998: pl" true
          (attr_val out "Y(1998)" "catCount" = Some (Value.Int 1)));
    t "parser: aggregate names, skolem names unaffected" (fun () ->
        let q =
          Parser.parse
            {|WHERE C(x) CREATE Counter(x) LINK Counter(x) -> "n" -> count(x)|}
        in
        let b = List.hd q.Ast.blocks in
        check_bool "create is skolem" true
          (match b.Ast.create with [ ("Counter", _) ] -> true | _ -> false);
        match b.Ast.link with
        | [ (_, _, Ast.T_agg (Ast.Count, Ast.T_var "x")) ] -> ()
        | _ -> Alcotest.fail "bad agg parse");
    t "parser: aggregate arity enforced" (fun () ->
        check_bool "raises" true
          (try
             ignore (Parser.parse {|WHERE C(x) CREATE F(x) LINK F(x) -> "n" -> count(x, x)|});
             false
           with Parser.Parse_error _ -> true));
    t "pretty-printer roundtrips aggregates" (fun () ->
        let src =
          {|WHERE C(x), x -> "p" -> v CREATE F(x) LINK F(x) -> "s" -> sum(v) OUTPUT o|}
        in
        let q = Parser.parse src in
        check_bool "fixpoint" true
          (Pretty.query_equal q (Parser.parse (Pretty.to_string q))));
    t "check: aggregates only as link targets" (fun () ->
        let bad where_q =
          let q = Parser.parse where_q in
          List.exists
            (function Check.Agg_misplaced _ -> true | _ -> false)
            (Check.check q).Check.errors
        in
        check_bool "in create" true
          (bad {|WHERE C(x) CREATE F(count(x))|});
        check_bool "in collect" true
          (bad {|WHERE C(x) CREATE F(x) COLLECT Out(count(x))|});
        check_bool "as link source" true
          (bad {|WHERE C(x) CREATE F(x) LINK count(x) -> "n" -> F(x)|});
        check_bool "valid as target" false
          (bad {|WHERE C(x) CREATE F(x) LINK F(x) -> "n" -> count(x)|}));
    t "site schema handles aggregate targets" (fun () ->
        let q =
          Parser.parse
            {|WHERE C(x), x -> "p" -> v CREATE F(x) LINK F(x) -> "s" -> sum(v) OUTPUT o|}
        in
        let s = Schema.Site_schema.of_query q in
        check_int "edge to NS" 1 (List.length (Schema.Site_schema.edges s));
        (* and recovery keeps the aggregate *)
        let q' = Schema.Site_schema.to_query s in
        let g = data () in
        let census g' = (Graph.node_count g', Graph.edge_count g') in
        check_bool "recovered equal" true
          (census (Exec.run g (Parser.parse (Pretty.to_string q')))
           = census (Exec.run g q)));
    t "click-time computes the same aggregates" (fun () ->
        let g = data () in
        let def =
          Strudel.Site.define ~name:"agg" ~root_family:"Root"
            [
              ( "site",
                {|{ CREATE Root() COLLECT Roots(Root()) }
                  { WHERE Pubs(x), x -> "year" -> y
                    CREATE Y(y)
                    LINK Y(y) -> "n" -> count(x), Y(y) -> "Year" -> y,
                         Root() -> "Year" -> Y(y)
                    COLLECT Ys(Y(y)) }
                  OUTPUT agg|} );
            ]
        in
        let full = Strudel.Site.build ~data:g def in
        let ct = Strudel.Materialize.Click_time.start ~data:g def in
        let root = List.hd (Strudel.Materialize.Click_time.roots ct) in
        ignore (Strudel.Materialize.Click_time.browse ct root);
        (* expand the year pages *)
        List.iter
          (fun o -> Strudel.Materialize.Click_time.expand ct o)
          (Graph.nodes ct.Strudel.Materialize.Click_time.partial);
        let count_of g' name =
          match Graph.find_node g' name with
          | Some o -> Graph.attr_value g' o "n"
          | None -> None
        in
        check_bool "1997 matches" true
          (count_of ct.Strudel.Materialize.Click_time.partial "Y(1997)"
           = count_of full.Strudel.Site.site_graph "Y(1997)");
        check_bool "value is 2" true
          (count_of full.Strudel.Site.site_graph "Y(1997)"
           = Some (Value.Int 2)));
    t "strategies agree on aggregates" (fun () ->
        let src =
          {|WHERE Pubs(x), x -> "year" -> y, x -> "cat" -> c
            CREATE Y(y) LINK Y(y) -> "nc" -> count(c) COLLECT Ys(Y(y)) OUTPUT o|}
        in
        let census strategy =
          let out =
            Exec.run
              ~options:{ Eval.default_options with strategy }
              (data ()) (Parser.parse src)
          in
          List.sort compare
            (List.map
               (fun o -> (Oid.name o, Graph.attr_value out o "nc"))
               (Graph.nodes out))
        in
        check_bool "all equal" true
          (census Plan.Naive = census Plan.Heuristic
           && census Plan.Heuristic = census Plan.Cost_based));
  ]
