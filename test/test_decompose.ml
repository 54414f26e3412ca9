open Sgraph
open Struql

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let census g =
  ( Graph.node_count g,
    Graph.edge_count g,
    List.sort compare
      (List.map (fun c -> (c, Graph.collection_size g c)) (Graph.collections g)),
    List.sort compare
      (List.map (fun l -> (l, Graph.label_count g l)) (Graph.labels g)) )

let roundtrip name data qsrc =
  t ("decomposed pieces reproduce the site graph: " ^ name) (fun () ->
      let q = Parser.parse qsrc in
      let direct = Oracle.run data q in
      let pieces = Schema.Decompose.of_query q in
      let composed = Schema.Decompose.run_all pieces data in
      check_bool "same census" true (census direct = census composed))

let suite =
  [
    roundtrip "paper example"
      (fst (Ddl.parse Sites.Paper_example.data_ddl))
      Sites.Paper_example.site_query;
    roundtrip "cnn"
      (Wrappers.Synth.news_graph ~articles:25 ())
      Sites.Cnn.general_query;
    roundtrip "rodin" (Sites.Rodin.data ()) Sites.Rodin.site_query;
    roundtrip "homepage"
      (Sites.Homepage.data ~entries:8 ())
      Sites.Homepage.site_query;
    t "piece inventory of the fig3 query" (fun () ->
        let q = Parser.parse Sites.Paper_example.site_query in
        let pieces = Schema.Decompose.of_query q in
        let count prefix =
          List.length
            (List.filter
               (fun p ->
                 String.length p.Schema.Decompose.piece_name
                 >= String.length prefix
                 && String.sub p.Schema.Decompose.piece_name 0
                      (String.length prefix)
                    = prefix)
               pieces)
        in
        check_int "6 create pieces" 6 (count "create:");
        check_int "11 link pieces" 11 (count "link:");
        check_int "6 collect pieces" 6 (count "collect:"));
    t "every piece is independently valid" (fun () ->
        let q = Parser.parse Sites.Cnn.general_query in
        List.iter
          (fun p ->
            check_bool p.Schema.Decompose.piece_name true
              (Check.is_valid p.Schema.Decompose.query))
          (Schema.Decompose.of_query q));
    t "any subset computes a fragment (links only, no collects)" (fun () ->
        let q = Parser.parse Sites.Paper_example.site_query in
        let data = fst (Ddl.parse Sites.Paper_example.data_ddl) in
        let pieces = Schema.Decompose.of_query q in
        let link_pieces =
          List.filter
            (fun p ->
              String.length p.Schema.Decompose.piece_name >= 5
              && String.sub p.Schema.Decompose.piece_name 0 5 = "link:")
            pieces
        in
        let g = Schema.Decompose.run_all link_pieces data in
        let full = Oracle.run data q in
        check_int "all edges present" (Graph.edge_count full)
          (Graph.edge_count g);
        check_int "no collections" 0 (List.length (Graph.collections g)));
    t "pieces pretty-print and re-parse" (fun () ->
        let q = Parser.parse Sites.Paper_example.site_query in
        List.iter
          (fun p ->
            let printed = Pretty.to_string p.Schema.Decompose.query in
            check_bool p.Schema.Decompose.piece_name true
              (Pretty.query_equal p.Schema.Decompose.query
                 (Parser.parse printed)))
          (Schema.Decompose.of_query q));
  ]
