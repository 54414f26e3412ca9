open Sgraph

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let fig2 = Sites.Paper_example.data_ddl

let parsing =
  [
    t "fig2 parses" (fun () ->
        let g, dirs = Ddl.parse fig2 in
        check_int "2 pubs" 2 (Graph.collection_size g "Publications");
        check_int "1 directive set" 1 (List.length dirs);
        check_int "22 edges" 22 (Graph.edge_count g));
    t "directives coerce files" (fun () ->
        let g, _ = Ddl.parse fig2 in
        let p1 = Option.get (Graph.find_node g "pub1") in
        check_bool "abstract is text file" true
          (match Graph.attr_value g p1 "abstract" with
           | Some (Value.File (Value.Text, _)) -> true
           | _ -> false);
        check_bool "postscript is ps file" true
          (match Graph.attr_value g p1 "postscript" with
           | Some (Value.File (Value.Postscript, _)) -> true
           | _ -> false));
    t "explicit types override directives" (fun () ->
        let src =
          {|collection C { a text }
            object o in C { a url "http://x" }|}
        in
        let g, _ = Ddl.parse src in
        let o = Option.get (Graph.find_node g "o") in
        check_bool "url wins" true
          (Graph.attr_value g o "a" = Some (Value.Url "http://x")));
    t "multi-valued attributes" (fun () ->
        let g, _ = Ddl.parse fig2 in
        let p1 = Option.get (Graph.find_node g "pub1") in
        check_int "2 authors" 2 (List.length (Graph.attr g p1 "author"));
        check_int "2 categories" 2 (List.length (Graph.attr g p1 "category")));
    t "dashed attribute names" (fun () ->
        let g, _ = Ddl.parse fig2 in
        let p1 = Option.get (Graph.find_node g "pub1") in
        check_bool "pub-type" true
          (Graph.attr_value g p1 "pub-type" = Some (Value.String "article")));
    t "references, including forward" (fun () ->
        let src =
          {|object a { next &b }
            object b { prev &a }|}
        in
        let g, _ = Ddl.parse src in
        let a = Option.get (Graph.find_node g "a") in
        let b = Option.get (Graph.find_node g "b") in
        check_bool "a.next=b" true (Graph.has_edge g a "next" (Graph.N b));
        check_bool "b.prev=a" true (Graph.has_edge g b "prev" (Graph.N a)));
    t "nested anonymous objects" (fun () ->
        let src = {|object o { addr { city "Summit" zip "07901" } }|} in
        let g, _ = Ddl.parse src in
        let o = Option.get (Graph.find_node g "o") in
        match Graph.attr1 g o "addr" with
        | Some (Graph.N n) ->
          check_bool "city" true
            (Graph.attr_value g n "city" = Some (Value.String "Summit"))
        | _ -> Alcotest.fail "expected nested node");
    t "multiple collections" (fun () ->
        let src = {|object o in A, B { x 1 }|} in
        let g, _ = Ddl.parse src in
        let o = Option.get (Graph.find_node g "o") in
        Alcotest.(check (list string)) "colls" [ "A"; "B" ]
          (Graph.collections_of g o));
    t "comments ignored" (fun () ->
        let src =
          "// line comment\n/* block\ncomment */\nobject o { x 1 } # hash\n"
        in
        let g, _ = Ddl.parse src in
        check_int "1 node" 1 (Graph.node_count g));
    t "empty object" (fun () ->
        let g, _ = Ddl.parse "object lonely {}" in
        check_int "1 node" 1 (Graph.node_count g);
        check_int "0 edges" 0 (Graph.edge_count g));
    t "quoted attribute names" (fun () ->
        let g, _ = Ddl.parse {|object o { "Weird Label!" 5 }|} in
        let o = Option.get (Graph.find_node g "o") in
        check_bool "label" true
          (Graph.attr_value g o "Weird Label!" = Some (Value.Int 5)));
    t "unknown file kind becomes other" (fun () ->
        let g, _ = Ddl.parse {|object o { doc pdf "a.pdf" }|} in
        let o = Option.get (Graph.find_node g "o") in
        check_bool "other kind" true
          (Graph.attr_value g o "doc"
           = Some (Value.File (Value.Other_file "pdf", "a.pdf"))));
    t "extending an existing graph resolves names" (fun () ->
        let g, _ = Ddl.parse "object a { x 1 }" in
        let _ = Ddl.parse_into g "object b { to &a }" in
        let a = Option.get (Graph.find_node g "a") in
        let b = Option.get (Graph.find_node g "b") in
        check_bool "cross-batch ref" true (Graph.has_edge g b "to" (Graph.N a)));
  ]

let errors =
  let expect_error name src =
    t name (fun () ->
        check_bool "raises" true
          (try
             ignore (Ddl.parse src);
             false
           with Ddl.Ddl_error _ -> true))
  in
  [
    expect_error "unknown reference" "object a { x &nope }";
    expect_error "unterminated object" "object a { x 1";
    expect_error "bad toplevel" "objeto a {}";
    expect_error "missing value" "object a { x }";
    expect_error "unterminated string" "object a { x \"abc }";
    t "an error names the offending token's own line" (fun () ->
        match Ddl.parse "object a { k 1 }\nbogus\nobject b { k 2 }" with
        | exception Ddl.Ddl_error (_, line) ->
          check_int "line of bogus" 2 line
        | _ -> Alcotest.fail "parsed");
  ]

(* structural comparison of graphs by node names *)
let graph_signature g =
  let edges =
    Graph.fold_edges
      (fun s l tgt acc ->
        let tk =
          match tgt with
          | Graph.N o -> "N:" ^ Oid.name o
          | Graph.V v -> "V:" ^ Value.to_string v
        in
        (Oid.name s, l, tk) :: acc)
      g []
    |> List.sort compare
  in
  let colls =
    List.map
      (fun c -> (c, List.sort compare (List.map Oid.name (Graph.collection g c))))
      (List.sort compare (Graph.collections g))
  in
  (List.sort compare (List.map Oid.name (Graph.nodes g)), edges, colls)

let roundtrip =
  [
    t "fig2 print/parse roundtrip" (fun () ->
        let g, _ = Ddl.parse fig2 in
        let g' = fst (Ddl.parse (Ddl.print g)) in
        check_bool "signature" true (graph_signature g = graph_signature g'));
    t "site graph roundtrip (skolem names)" (fun () ->
        let b = Sites.Paper_example.build () in
        let sg = b.Strudel.Site.site_graph in
        let printed = Ddl.print sg in
        let sg' = fst (Ddl.parse printed) in
        check_int "nodes" (Graph.node_count sg) (Graph.node_count sg');
        check_int "edges" (Graph.edge_count sg) (Graph.edge_count sg'));
    t "print is stable (idempotent)" (fun () ->
        let g, _ = Ddl.parse fig2 in
        let p1 = Ddl.print g in
        let p2 = Ddl.print (fst (Ddl.parse p1)) in
        check_str "stable" p1 p2);
  ]

(* qcheck: random graphs survive print/parse *)
let rand_graph_gen =
  let open QCheck.Gen in
  let* n = int_range 1 8 in
  let* edges =
    list_size (int_range 0 15)
      (triple (int_bound (n - 1))
         (oneofl [ "x"; "y"; "pub-type"; "Weird one" ])
         (oneof
            [
              map (fun i -> `V (Value.Int i)) small_signed_int;
              map (fun s -> `V (Value.String s))
                (string_size ~gen:printable (int_range 0 6));
              map (fun j -> `N j) (int_bound (n - 1));
              return (`V (Value.File (Value.Postscript, "p.ps")));
            ]))
  in
  let* colls = list_size (int_range 0 4) (pair (oneofl [ "C"; "D" ]) (int_bound (n - 1))) in
  return (n, edges, colls)

let build_rand (n, edges, colls) =
  let g = Graph.create ~name:"r" () in
  let nodes = Array.init n (fun i -> Oid.fresh (Printf.sprintf "n%d" i)) in
  Array.iter (Graph.add_node g) nodes;
  List.iter
    (fun (a, l, tgt) ->
      match tgt with
      | `V v -> Graph.add_edge g nodes.(a) l (Graph.V v)
      | `N j -> Graph.add_edge g nodes.(a) l (Graph.N nodes.(j)))
    edges;
  List.iter (fun (c, i) -> Graph.add_to_collection g c nodes.(i)) colls;
  g

let props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random graph print/parse preserves structure"
         ~count:300 (QCheck.make rand_graph_gen) (fun spec ->
           let g = build_rand spec in
           let g' = fst (Ddl.parse (Ddl.print g)) in
           graph_signature g = graph_signature g'));
  ]

let suite = parsing @ errors @ roundtrip @ props
