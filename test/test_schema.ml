open Struql

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fig3_schema () =
  Schema.Site_schema.of_query (Parser.parse Sites.Paper_example.site_query)

let edge_sig (e : Schema.Site_schema.edge) =
  ( Schema.Site_schema.node_name e.src,
    Schema.Site_schema.node_name e.dst,
    (match e.label with Ast.L_const s -> s | Ast.L_var v -> v),
    String.concat "^" e.query_ids )

let derivation =
  [
    t "fig5: nodes are skolem families plus NS" (fun () ->
        let s = fig3_schema () in
        check_int "7 nodes" 7 (List.length (Schema.Site_schema.nodes s));
        Alcotest.(check (list string)) "families"
          [ "RootPage"; "AbstractsPage"; "PaperPresentation"; "AbstractPage";
            "YearPage"; "CategoryPage" ]
          (Schema.Site_schema.skolem_functions s));
    t "fig5: edges with conjoined query labels" (fun () ->
        let s = fig3_schema () in
        let sigs = List.map edge_sig (Schema.Site_schema.edges s) in
        check_int "11 edges" 11 (List.length sigs);
        check_bool "root->abstracts unconditioned" true
          (List.mem ("RootPage", "AbstractsPage", "AbstractsPage", "") sigs);
        check_bool "yearpage paper edge labeled Q1^Q2" true
          (List.mem ("YearPage", "PaperPresentation", "Paper", "Q1^Q2") sigs);
        check_bool "categorypage edge labeled Q1^Q3" true
          (List.mem ("RootPage", "CategoryPage", "CategoryPage", "Q1^Q3") sigs);
        check_bool "attribute copies go to NS" true
          (List.mem ("PaperPresentation", "NS", "l", "Q1") sigs));
    t "NS edges keep the target term" (fun () ->
        let s = fig3_schema () in
        let ns_edge =
          List.find
            (fun (e : Schema.Site_schema.edge) -> e.dst = Schema.Site_schema.NS)
            (Schema.Site_schema.edges s)
        in
        check_bool "dst term recorded" true
          (match ns_edge.dst_args with [ Ast.T_var _ ] -> true | _ -> false));
    t "schema of query without links has only create families" (fun () ->
        let s =
          Schema.Site_schema.of_query
            (Parser.parse {|WHERE C(x) CREATE F(x) COLLECT Fs(F(x))|})
        in
        check_int "F + NS" 2 (List.length (Schema.Site_schema.nodes s));
        check_int "no edges" 0 (List.length (Schema.Site_schema.edges s)));
    t "reachable_from over schema" (fun () ->
        let s = fig3_schema () in
        let reach = Schema.Site_schema.reachable_from s (Schema.Site_schema.NF "RootPage") in
        (* every family + NS reachable from the root *)
        check_int "all 7" 7 (List.length reach));
  ]

let recovery =
  let census g =
    ( Sgraph.Graph.node_count g,
      Sgraph.Graph.edge_count g,
      List.sort compare
        (List.map (fun l -> (l, Sgraph.Graph.label_count g l)) (Sgraph.Graph.labels g)) )
  in
  let case name data_fn qsrc =
    t ("query recovery preserves semantics: " ^ name) (fun () ->
        let q = Parser.parse qsrc in
        let s = Schema.Site_schema.of_query q in
        let q' = Schema.Site_schema.to_query s in
        let g = data_fn () in
        check_bool "same site graph census" true
          (census (Exec.run g q) = census (Exec.run g q')))
  in
  [
    case "paper example"
      (fun () -> fst (Sgraph.Ddl.parse Sites.Paper_example.data_ddl))
      Sites.Paper_example.site_query;
    case "cnn"
      (fun () -> Wrappers.Synth.news_graph ~articles:30 ())
      Sites.Cnn.general_query;
    case "homepage" (fun () -> Sites.Homepage.data ~entries:10 ())
      Sites.Homepage.site_query;
    t "recovered query passes static checks" (fun () ->
        let q = Parser.parse Sites.Paper_example.site_query in
        let q' = Schema.Site_schema.to_query (Schema.Site_schema.of_query q) in
        check_bool "valid" true (Check.is_valid q'));
  ]

let output =
  [
    t "pp mentions conjunctions" (fun () ->
        let s = fig3_schema () in
        let str = Schema.Site_schema.to_string s in
        check_bool "Q1^Q2 printed" true
          (let needle = "Q1^Q2" in
           let n = String.length needle and h = String.length str in
           let rec find i = i + n <= h && (String.sub str i n = needle || find (i + 1)) in
           find 0));
    t "dot export shapes" (fun () ->
        let s = fig3_schema () in
        let dot = Schema.Dot.of_schema s in
        check_bool "digraph" true (String.length dot > 0 && String.sub dot 0 7 = "digraph");
        check_bool "NS box present" true
          (let needle = "NS [shape=box" in
           let n = String.length needle and h = String.length dot in
           let rec find i = i + n <= h && (String.sub dot i n = needle || find (i + 1)) in
           find 0));
    t "dot export of a graph" (fun () ->
        let g = fst (Sgraph.Ddl.parse Sites.Paper_example.data_ddl) in
        let dot = Schema.Dot.of_graph g in
        check_bool "nonempty digraph" true (String.sub dot 0 7 = "digraph"));
  ]

let suite = derivation @ recovery @ output
