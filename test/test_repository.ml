open Sgraph

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let suite =
  [
    t "put/get/names" (fun () ->
        let r = Repository.Store.create () in
        let g = fst (Ddl.parse ~graph_name:"g1" "object a { x 1 }") in
        Repository.Store.put r g;
        check_bool "mem" true (Repository.Store.mem r "g1");
        check_int "1 graph" 1 (List.length (Repository.Store.names r));
        check_bool "get" true (Repository.Store.get r "g1" == g));
    t "put replaces same name" (fun () ->
        let r = Repository.Store.create () in
        Repository.Store.put r (fst (Ddl.parse ~graph_name:"g" "object a {}"));
        Repository.Store.put r
          (fst (Ddl.parse ~graph_name:"g" "object a {} object b {}"));
        check_int "1 name" 1 (List.length (Repository.Store.names r));
        check_int "2 nodes" 2 (Graph.node_count (Repository.Store.get r "g")));
    t "get missing raises" (fun () ->
        let r = Repository.Store.create () in
        check_bool "raises" true
          (try ignore (Repository.Store.get r "nope"); false
           with Repository.Store.Not_found_graph _ -> true));
    t "remove" (fun () ->
        let r = Repository.Store.create () in
        Repository.Store.put r (fst (Ddl.parse ~graph_name:"g" "object a {}"));
        Repository.Store.remove r "g";
        check_bool "gone" false (Repository.Store.mem r "g"));
    t "reload roundtrip preserves structure" (fun () ->
        let g = fst (Ddl.parse ~graph_name:"g" Sites.Paper_example.data_ddl) in
        let g' = Repository.Store.reload g in
        check_int "nodes" (Graph.node_count g) (Graph.node_count g');
        check_int "edges" (Graph.edge_count g) (Graph.edge_count g');
        check_int "colls"
          (Graph.collection_size g "Publications")
          (Graph.collection_size g' "Publications"));
    t "reload rebuilds indexes" (fun () ->
        let g = fst (Ddl.parse ~graph_name:"g" Sites.Paper_example.data_ddl) in
        let g' = Repository.Store.reload g in
        check_int "label idx" (Graph.label_count g "author")
          (Graph.label_count g' "author");
        check_int "value idx"
          (List.length (Graph.value_index g (Value.Int 1997)))
          (List.length (Graph.value_index g' (Value.Int 1997))));
    t "save_dir / load_dir" (fun () ->
        let dir = Filename.temp_file "strudel" "" in
        Sys.remove dir;
        let r = Repository.Store.create () in
        Repository.Store.put r (fst (Ddl.parse ~graph_name:"one" "object a { x 1 }"));
        Repository.Store.put r
          (fst (Ddl.parse ~graph_name:"two" "object b in C { y 2 }"));
        Repository.Store.save_dir r ~dir;
        let r' = Repository.Store.load_dir ~dir in
        check_int "2 graphs" 2 (List.length (Repository.Store.names r'));
        check_int "collection survives" 1
          (Graph.collection_size (Repository.Store.get r' "two") "C");
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir);
    t "load_dir of missing dir is empty" (fun () ->
        let r = Repository.Store.load_dir ~dir:"/nonexistent/strudel" in
        check_int "empty" 0 (List.length (Repository.Store.names r)));
    t "save_dir/load_dir with the binary format" (fun () ->
        let dir = Filename.temp_file "strudelbin" "" in
        Sys.remove dir;
        let r = Repository.Store.create () in
        Repository.Store.put r
          (fst (Ddl.parse ~graph_name:"one" Sites.Paper_example.data_ddl));
        Repository.Store.save_dir ~format:`Segment r ~dir;
        check_bool "segment file" true
          (Array.exists
             (fun f -> Filename.check_suffix f ".seg")
             (Sys.readdir dir));
        let r' = Repository.Store.load_dir ~dir in
        check_int "reloaded" 2
          (Graph.collection_size
             (Repository.Store.get r' "one")
             "Publications");
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir);
    t "a second save replaces the first, in both formats, leaving no \
       temporary"
      (fun () ->
        let catalog k =
          let r = Repository.Store.create () in
          List.iter
            (fun name ->
              Repository.Store.put r
                (fst
                   (Ddl.parse ~graph_name:name
                      (Printf.sprintf "object a in C { k %d }" k))))
            [ "one"; "two" ];
          r
        in
        let contents r =
          List.map
            (fun name ->
              (name, Repository.Store.dump_graph (Repository.Store.get r name)))
            (List.sort compare (Repository.Store.names r))
        in
        List.iter
          (fun format ->
            let dir = Filename.temp_file "strudelsave" "" in
            Sys.remove dir;
            Repository.Store.save_dir ~format (catalog 1) ~dir;
            Repository.Store.save_dir ~format (catalog 2) ~dir;
            let files = Array.to_list (Sys.readdir dir) in
            check_bool "loads the second catalog" true
              (contents (Repository.Store.load_dir ~dir) = contents (catalog 2));
            check_bool "no temporary remains" false
              (List.exists (fun f -> Filename.check_suffix f ".tmp") files);
            List.iter (fun f -> Sys.remove (Filename.concat dir f)) files;
            Sys.rmdir dir)
          [ `Ddl; `Segment ]);
    t "a save removes the other format's file; a name with both fails \
       the load"
      (fun () ->
        let catalog k =
          let r = Repository.Store.create () in
          Repository.Store.put r
            (fst
               (Ddl.parse ~graph_name:"one"
                  (Printf.sprintf "object a in C { k %d }" k)));
          r
        in
        let dir = Filename.temp_file "strudelformat" "" in
        Sys.remove dir;
        Repository.Store.save_dir ~format:`Segment (catalog 1) ~dir;
        Repository.Store.save_dir ~format:`Ddl (catalog 2) ~dir;
        check_bool "no .seg remains" false
          (Sys.file_exists (Filename.concat dir "one.seg"));
        check_bool "loads k 2" true
          (Repository.Store.dump_graph
             (Repository.Store.get (Repository.Store.load_dir ~dir) "one")
           = Repository.Store.dump_graph
               (Repository.Store.get (catalog 2) "one"));
        (* what an interrupted save leaves: both files of one name *)
        ignore
          (Repository.Segment.write
             ~path:(Filename.concat dir "one.seg")
             (Repository.Store.get (catalog 1) "one"));
        (match Repository.Store.load_dir ~dir with
        | exception Failure msg ->
          Alcotest.(check string)
            "names both files"
            (Printf.sprintf
               "Store.load_dir: %s and %s both hold graph one (an \
                interrupted save?)"
               (Filename.concat dir "one.ddl")
               (Filename.concat dir "one.seg"))
            msg
        | _ -> Alcotest.fail "expected a failure");
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir);
    t "query_repo resolves INPUT names and stores OUTPUT" (fun () ->
        let r = Repository.Store.create () in
        Repository.Store.put r
          (fst (Ddl.parse ~graph_name:"A" "object a1 in As { k 1 }\nobject a2 in As { k 2 }"));
        Repository.Store.put r
          (fst (Ddl.parse ~graph_name:"B" "object b1 in Bs { k 2 }"));
        let out =
          Strudel.Api.query_repo r
            {|INPUT A, B
              WHERE As(x), x -> "k" -> v, Bs(y), y -> "k" -> v
              CREATE J(x, y) LINK J(x, y) -> "key" -> v
              COLLECT Joined(J(x, y))
              OUTPUT JOINED|}
        in
        check_int "one join row" 1 (Graph.collection_size out "Joined");
        check_bool "stored under OUTPUT name" true
          (Repository.Store.mem r "JOINED");
        (* composition: a second query reads the stored result *)
        let out2 =
          Strudel.Api.query_repo r
            {|INPUT JOINED
              WHERE Joined(j) CREATE F(j) COLLECT Fs(F(j)) OUTPUT FINAL|}
        in
        check_int "chained" 1 (Graph.collection_size out2 "Fs"));
    t "query_repo over two graphs keeps each one's index order" (fun () ->
        let r = Repository.Store.create () in
        let a = Test_fault.acb_graph "A" in
        Repository.Store.put r a;
        Repository.Store.put r
          (fst (Ddl.parse ~graph_name:"B" "object b1 in Bs { k 2 }"));
        let q =
          {|INPUT A, B
            WHERE x -> "t" -> v
            CREATE P(x) LINK P(x) -> "v" -> v
            COLLECT Ps(P(x))
            OUTPUT TS|}
        in
        (* B holds no [t] edge: the union scans A's extent, a, c, b *)
        check_bool "the union's scan in A's order" true
          (Shape.of_graph (Strudel.Api.query_repo r q)
          = Shape.of_graph (Struql.Exec.run a (Struql.Parser.parse q))));
    t "query_repo with unknown input raises" (fun () ->
        let r = Repository.Store.create () in
        check_bool "raises" true
          (try
             ignore (Strudel.Api.query_repo r "INPUT NOPE WHERE C(x) COLLECT O(x) OUTPUT o");
             false
           with Repository.Store.Not_found_graph _ -> true));
  ]
