open Sgraph
open Repository

(* The compact storage representation (§6): standalone segments, whose
   numbering costs no bytes. *)

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

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
      (fun c ->
        (c, List.sort compare (List.map Oid.name (Graph.collection g c))))
      (List.sort compare (Graph.collections g))
  in
  ( Graph.name g,
    List.sort compare (List.map Oid.name (Graph.nodes g)),
    edges, colls )

let encode g = Segment.encode g
let decode s = Segment.to_graph [ Segment.of_string s ]

let roundtrip =
  [
    t "fig2 roundtrip" (fun () ->
        let g, _ = Ddl.parse ~graph_name:"BIBTEX" Sites.Paper_example.data_ddl in
        let g' = decode (encode g) in
        check_bool "signature" true (graph_signature g = graph_signature g'));
    t "site graph roundtrip" (fun () ->
        let b = Sites.Paper_example.build () in
        let sg = b.Strudel.Site.site_graph in
        let sg' = decode (encode sg) in
        check_bool "signature" true (graph_signature sg = graph_signature sg'));
    t "all value kinds survive" (fun () ->
        let g = Graph.create ~name:"vals" () in
        let o = Graph.new_node g "o" in
        List.iteri
          (fun i v -> Graph.add_edge g o (Printf.sprintf "a%d" i) (Graph.V v))
          [ Value.Null; Value.Bool true; Value.Bool false; Value.Int 42;
            Value.Int (-7); Value.Int max_int; Value.Float 2.5;
            Value.Float (-0.0); Value.Float 1e300; Value.Float (-1e-300);
            Value.String "hello \"world\"\n"; Value.Url "http://x/y";
            Value.File (Value.Postscript, "a.ps");
            Value.File (Value.Other_file "pdf", "b.pdf") ];
        let g' = decode (encode g) in
        check_bool "signature" true (graph_signature g = graph_signature g'));
    t "string interning shares labels" (fun () ->
        (* many edges with the same label must not repeat the string *)
        let g = Graph.create ~name:"i" () in
        let long = String.make 200 'x' in
        for i = 0 to 99 do
          let o = Graph.new_node g (Printf.sprintf "n%d" i) in
          Graph.add_edge g o long (Graph.V (Value.Int i))
        done;
        let bytes = String.length (encode g) in
        check_bool "label stored once" true (bytes < 200 * 10));
    t "binary is smaller than the DDL text" (fun () ->
        (* unique article text dominates the news graph, so the gain is
           modest there; structured data with repeated values compresses
           hard *)
        let news = Wrappers.Synth.news_graph ~articles:100 () in
        check_bool "news: smaller" true
          (String.length (encode news)
           < String.length (Ddl.print news));
        let org = Graph.create ~name:"org" () in
        let pc, oc = Wrappers.Synth.org_csv ~people:200 ~orgs:10 () in
        ignore
          (Wrappers.Csv.load_tables org
             [ Wrappers.Csv.table_of_string ~name:"People" pc;
               Wrappers.Csv.table_of_string ~name:"Orgs" oc ]);
        let bin = String.length (encode org) in
        let ddl = String.length (Ddl.print org) in
        check_bool
          (Printf.sprintf "org: bin=%d vs ddl=%d" bin ddl)
          true (bin * 3 < ddl * 2));
    t "decode rebuilds indexes" (fun () ->
        let g = Wrappers.Synth.news_graph ~articles:30 () in
        let g' = decode (encode g) in
        check_int "label extent" (Graph.label_count g "section")
          (Graph.label_count g' "section");
        check_int "value index"
          (List.length (Graph.value_index g (Value.String "Sports")))
          (List.length (Graph.value_index g' (Value.String "Sports"))));
    t "save/load files" (fun () ->
        let g, _ = Ddl.parse Sites.Paper_example.data_ddl in
        let path = Filename.temp_file "strudel" ".seg" in
        ignore (Segment.write ~path g);
        let g' = Segment.to_graph [ Segment.read ~path () ] in
        Sys.remove path;
        check_bool "signature" true (graph_signature g = graph_signature g'));
  ]

let errors =
  let corrupt name f =
    t name (fun () ->
        check_bool "raises" true
          (try
             ignore (decode (f ()));
             false
           with Segment.Corrupt _ -> true))
  in
  [
    corrupt "bad magic" (fun () -> "NOTBIN" ^ String.make 10 '\x00');
    t "a segment of the fixed-width layout is refused at offset 0" (fun () ->
        match decode ("SGSEG001" ^ String.make 128 '\x00') with
        | exception Segment.Corrupt (msg, off) ->
          check_int "offset" 0 off;
          check_bool "names the magic" true (msg = "bad magic")
        | _ -> Alcotest.fail "an old segment must not decode");
    corrupt "truncated" (fun () ->
        let g, _ = Ddl.parse "object a { x 1 }" in
        let s = encode g in
        String.sub s 0 (String.length s - 3));
    corrupt "trailing garbage" (fun () ->
        let g, _ = Ddl.parse "object a { x 1 }" in
        encode g ^ "zz");
    corrupt "empty input" (fun () -> "");
  ]

(* qcheck: random graphs survive binary roundtrip (reuses test_ddl's
   generator shape) *)
let rand_graph_gen =
  let open QCheck.Gen in
  let* n = int_range 1 8 in
  let* edges =
    list_size (int_range 0 15)
      (triple (int_bound (n - 1))
         (oneofl [ "x"; "y"; "weird label" ])
         (oneof
            [
              map (fun i -> `V (Value.Int i)) small_signed_int;
              map (fun s -> `V (Value.String s))
                (string_size ~gen:printable (int_range 0 6));
              map (fun f -> `V (Value.Float (float_of_int f))) small_signed_int;
              map (fun j -> `N j) (int_bound (n - 1));
            ]))
  in
  let* colls =
    list_size (int_range 0 4) (pair (oneofl [ "C"; "D" ]) (int_bound (n - 1)))
  in
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
      (QCheck.Test.make ~name:"random graphs survive binary roundtrip"
         ~count:300 (QCheck.make rand_graph_gen) (fun spec ->
           let g = build_rand spec in
           graph_signature g = graph_signature (decode (encode g))));
  ]

let suite = roundtrip @ errors @ props
