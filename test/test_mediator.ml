open Sgraph

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let src_a () =
  let g = Graph.create ~name:"A" () in
  let x = Graph.new_node g "x1" in
  Graph.add_to_collection g "As" x;
  Graph.add_edge g x "name" (Graph.V (Value.String "one"));
  Graph.add_edge g x "ref" (Graph.V (Value.String "y1"));
  g

let src_b () =
  let g = Graph.create ~name:"B" () in
  let y = Graph.new_node g "y1" in
  Graph.add_to_collection g "Bs" y;
  Graph.add_edge g y "key" (Graph.V (Value.String "y1"));
  Graph.add_edge g y "payload" (Graph.V (Value.Int 7));
  g

let suite =
  [
    t "copy_collection mapping copies members and attrs" (fun () ->
        let s = Mediator.Source.of_graph ~name:"a" (src_a ()) in
        let m =
          Mediator.Gav.copy_collection ~source:"a" ~collection:"As" ()
        in
        let med, _ =
          Mediator.Gav.integrate ~scope:(Skolem.create ()) [ s ] [ m ]
        in
        check_int "1 member" 1 (Graph.collection_size med "As");
        let o = List.hd (Graph.collection med "As") in
        check_bool "attr copied" true
          (Graph.attr_value med o "name" = Some (Value.String "one")));
    t "skolem fusion merges mappings on the same source object" (fun () ->
        let s = Mediator.Source.of_graph ~name:"a" (src_a ()) in
        let m1 =
          Mediator.Gav.mapping_of_string ~source:"a"
            {|WHERE As(x) CREATE F(x) COLLECT Out(F(x)) OUTPUT m|}
        in
        let m2 =
          Mediator.Gav.mapping_of_string ~source:"a"
            {|WHERE As(x), x -> "name" -> n CREATE F(x) LINK F(x) -> "nm" -> n OUTPUT m|}
        in
        let med, _ =
          Mediator.Gav.integrate ~scope:(Skolem.create ()) [ s ] [ m1; m2 ]
        in
        check_int "single fused object" 1 (Graph.collection_size med "Out");
        let o = List.hd (Graph.collection med "Out") in
        check_bool "edge landed on same node" true
          (Graph.attr_value med o "nm" = Some (Value.String "one")));
    t "cross-source join via * source" (fun () ->
        let sa = Mediator.Source.of_graph ~name:"a" (src_a ()) in
        let sb = Mediator.Source.of_graph ~name:"b" (src_b ()) in
        let mappings =
          [
            Mediator.Gav.mapping_of_string ~source:"a"
              {|WHERE As(x) CREATE F(x) COLLECT Fs(F(x)) OUTPUT m|};
            Mediator.Gav.mapping_of_string ~source:"b"
              {|WHERE Bs(y) CREATE G(y) COLLECT Gs(G(y)) OUTPUT m|};
            Mediator.Gav.mapping_of_string ~source:"*"
              {|WHERE As(x), x -> "ref" -> k, Bs(y), y -> "key" -> k
                CREATE F(x), G(y) LINK F(x) -> "joined" -> G(y) OUTPUT m|};
          ]
        in
        let med, _ =
          Mediator.Gav.integrate ~scope:(Skolem.create ()) [ sa; sb ] mappings
        in
        check_int "join edge" 1 (Graph.label_count med "joined"));
    t "unknown source fails" (fun () ->
        let s = Mediator.Source.of_graph ~name:"a" (src_a ()) in
        let m =
          Mediator.Gav.mapping_of_string ~source:"zzz" "WHERE As(x) COLLECT O(x) OUTPUT m"
        in
        check_bool "raises" true
          (try
             ignore
               (Mediator.Gav.integrate ~scope:(Skolem.create ()) [ s ] [ m ]);
             false
           with Mediator.Gav.Unknown_source ("zzz", [ "a" ]) -> true));
    t "source caching and versioning" (fun () ->
        let calls = ref 0 in
        let s =
          Mediator.Source.make ~name:"c" (fun () -> incr calls; src_a ())
        in
        ignore (Mediator.Source.load s);
        ignore (Mediator.Source.load s);
        check_int "loaded once" 1 !calls;
        Mediator.Source.update s (fun () -> incr calls; src_b ());
        ignore (Mediator.Source.load s);
        check_int "reloaded" 2 !calls;
        check_int "version bumped" 1 (Mediator.Source.version s));
    t "warehouse refresh on stale source" (fun () ->
        let s = Mediator.Source.of_graph ~name:"a" (src_a ()) in
        let w =
          Mediator.Warehouse.create ~sources:[ s ]
            ~mappings:[ Mediator.Gav.copy_collection ~source:"a" ~collection:"As" () ]
            ()
        in
        check_bool "fresh" false (Mediator.Warehouse.stale w);
        check_bool "no-op refresh" false (Mediator.Warehouse.refresh w);
        check_int "1 integration" 1 (Mediator.Warehouse.refresh_count w);
        let g2 = src_a () in
        let x2 = Graph.new_node g2 "x2" in
        Graph.add_to_collection g2 "As" x2;
        Mediator.Source.update s (fun () -> g2);
        check_bool "stale now" true (Mediator.Warehouse.stale w);
        check_bool "refresh rebuilds" true (Mediator.Warehouse.refresh w);
        check_int "2 members now" 2
          (Graph.collection_size (Mediator.Warehouse.graph w) "As");
        check_int "2 integrations" 2 (Mediator.Warehouse.refresh_count w));
    t "access patterns recorded" (fun () ->
        let s =
          Mediator.Source.make
            ~access:{ Mediator.Source.requires_bound = [ "isbn" ] }
            ~name:"lim" (fun () -> src_a ())
        in
        Alcotest.(check (list string)) "ap" [ "isbn" ]
          (Mediator.Source.requires_bound s));
  ]
