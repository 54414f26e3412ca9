open Sgraph

let t name f = Alcotest.test_case name `Quick f
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk () =
  let g = Graph.create ~name:"t" () in
  let a = Graph.new_node g "a" in
  let b = Graph.new_node g "b" in
  let c = Graph.new_node g "c" in
  Graph.add_edge g a "x" (Graph.N b);
  Graph.add_edge g a "x" (Graph.N c);
  Graph.add_edge g a "y" (Graph.V (Value.Int 1));
  Graph.add_edge g b "y" (Graph.V (Value.Int 1));
  Graph.add_edge g b "z" (Graph.V (Value.String "s"));
  (g, a, b, c)

let basics =
  [
    t "node and edge counts" (fun () ->
        let g, _, _, _ = mk () in
        check_int "nodes" 3 (Graph.node_count g);
        check_int "edges" 5 (Graph.edge_count g));
    t "duplicate edges ignored" (fun () ->
        let g, a, b, _ = mk () in
        Graph.add_edge g a "x" (Graph.N b);
        check_int "edges" 5 (Graph.edge_count g));
    t "out_edges order preserved" (fun () ->
        let g, a, _, _ = mk () in
        let labels = List.map fst (Graph.out_edges g a) in
        Alcotest.(check (list string)) "order" [ "x"; "x"; "y" ] labels);
    t "attr returns all targets of label" (fun () ->
        let g, a, _, _ = mk () in
        check_int "x targets" 2 (List.length (Graph.attr g a "x"));
        check_int "y targets" 1 (List.length (Graph.attr g a "y"));
        check_int "none" 0 (List.length (Graph.attr g a "nope")));
    t "attr1 and attr_value" (fun () ->
        let g, a, b, _ = mk () in
        check_bool "attr1 node" true
          (match Graph.attr1 g a "x" with
           | Some (Graph.N o) -> Oid.equal o b
           | _ -> false);
        check_bool "attr_value skips nodes" true
          (Graph.attr_value g a "x" = None);
        check_bool "attr_value" true
          (Graph.attr_value g a "y" = Some (Value.Int 1)));
    t "has_edge" (fun () ->
        let g, a, b, _ = mk () in
        check_bool "yes" true (Graph.has_edge g a "x" (Graph.N b));
        check_bool "no" false (Graph.has_edge g b "x" (Graph.N a)));
    t "in_edges of node" (fun () ->
        let g, _, b, _ = mk () in
        check_int "b preds" 1 (List.length (Graph.in_edges g (Graph.N b))));
    t "in_edges of value counts all" (fun () ->
        let g, _, _, _ = mk () in
        check_int "value preds" 2
          (List.length (Graph.in_edges g (Graph.V (Value.Int 1)))));
    t "remove_edge" (fun () ->
        let g, a, b, _ = mk () in
        Graph.remove_edge g a "x" (Graph.N b);
        check_bool "gone" false (Graph.has_edge g a "x" (Graph.N b));
        check_int "edges" 4 (Graph.edge_count g);
        check_int "extent" 1 (List.length (Graph.label_extent g "x"));
        check_int "in" 0 (List.length (Graph.in_edges g (Graph.N b))));
    t "find_node by name" (fun () ->
        let g, a, _, _ = mk () in
        check_bool "found" true
          (match Graph.find_node g "a" with
           | Some o -> Oid.equal o a
           | None -> false);
        check_bool "missing" true (Graph.find_node g "zzz" = None));
    t "labels in first-seen order" (fun () ->
        let g, _, _, _ = mk () in
        Alcotest.(check (list string)) "labels" [ "x"; "y"; "z" ]
          (Graph.labels g));
  ]

let collections =
  [
    t "collection membership" (fun () ->
        let g, a, b, _ = mk () in
        Graph.add_to_collection g "C" a;
        Graph.add_to_collection g "C" b;
        Graph.add_to_collection g "D" a;
        check_int "size" 2 (Graph.collection_size g "C");
        check_bool "mem" true (Graph.in_collection g "C" a);
        Alcotest.(check (list string)) "of a" [ "C"; "D" ]
          (Graph.collections_of g a));
    t "declared collections keep their declared order" (fun () ->
        let g, a, _, _ = mk () in
        Graph.declare_collection g "C";
        Graph.declare_collection g "D";
        check_int "declared empty" 0 (Graph.collection_size g "C");
        Graph.add_to_collection g "D" a;
        Graph.add_to_collection g "C" a;
        Graph.declare_collection g "C";
        Alcotest.(check (list string)) "of a" [ "C"; "D" ]
          (Graph.collections_of g a);
        check_int "redeclaring keeps members" 1 (Graph.collection_size g "C"));
    t "collection duplicate add ignored" (fun () ->
        let g, a, _, _ = mk () in
        Graph.add_to_collection g "C" a;
        Graph.add_to_collection g "C" a;
        check_int "size" 1 (Graph.collection_size g "C"));
    t "collection preserves insertion order" (fun () ->
        let g, a, b, c = mk () in
        Graph.add_to_collection g "C" c;
        Graph.add_to_collection g "C" a;
        Graph.add_to_collection g "C" b;
        Alcotest.(check (list string)) "order" [ "c"; "a"; "b" ]
          (List.map Oid.name (Graph.collection g "C")));
    t "remove_from_collection" (fun () ->
        let g, a, b, _ = mk () in
        Graph.add_to_collection g "C" a;
        Graph.add_to_collection g "C" b;
        Graph.remove_from_collection g "C" a;
        check_int "size" 1 (Graph.collection_size g "C");
        check_bool "gone" false (Graph.in_collection g "C" a));
    t "unknown collection empty" (fun () ->
        let g, _, _, _ = mk () in
        check_int "empty" 0 (Graph.collection_size g "nope");
        Alcotest.(check (list string)) "none" [] (Graph.collections g));
  ]

let indexes =
  [
    t "label_extent" (fun () ->
        let g, _, _, _ = mk () in
        check_int "x" 2 (List.length (Graph.label_extent g "x"));
        check_int "count" 2 (Graph.label_count g "x"));
    t "value_index global" (fun () ->
        let g, _, _, _ = mk () in
        check_int "int 1" 2 (List.length (Graph.value_index g (Value.Int 1)));
        check_int "missing" 0
          (List.length (Graph.value_index g (Value.Int 99))));
    t "indexed and unindexed agree" (fun () ->
        let mk2 indexed =
          let g = Graph.create ~indexed ~name:"t" () in
          let a = Graph.new_node g "a" and b = Graph.new_node g "b" in
          Graph.add_edge g a "x" (Graph.N b);
          Graph.add_edge g a "y" (Graph.V (Value.Int 1));
          Graph.add_edge g b "y" (Graph.V (Value.Int 1));
          g
        in
        let gi = mk2 true and gu = mk2 false in
        check_int "extent"
          (List.length (Graph.label_extent gi "y"))
          (List.length (Graph.label_extent gu "y"));
        check_int "value idx"
          (List.length (Graph.value_index gi (Value.Int 1)))
          (List.length (Graph.value_index gu (Value.Int 1)));
        check_int "in_edges"
          (List.length (Graph.in_edges gi (Graph.V (Value.Int 1))))
          (List.length (Graph.in_edges gu (Graph.V (Value.Int 1)))));
  ]

let whole_graph =
  [
    t "copy preserves everything" (fun () ->
        let g, a, _, _ = mk () in
        Graph.add_to_collection g "C" a;
        let g' = Graph.copy g in
        check_int "nodes" (Graph.node_count g) (Graph.node_count g');
        check_int "edges" (Graph.edge_count g) (Graph.edge_count g');
        check_int "coll" 1 (Graph.collection_size g' "C");
        (* mutation of the copy does not affect the original *)
        let d = Graph.new_node g' "d" in
        Graph.add_edge g' d "w" (Graph.V Value.Null);
        check_int "orig nodes" 3 (Graph.node_count g));
    t "merge_into shares objects" (fun () ->
        let g, a, _, _ = mk () in
        let h = Graph.create ~name:"h" () in
        let z = Graph.new_node h "z" in
        Graph.add_edge h z "to" (Graph.N a);
        (* a is shared between graphs *)
        Graph.merge_into ~dst:h ~src:g;
        check_int "nodes" 4 (Graph.node_count h);
        check_int "edges" 6 (Graph.edge_count h);
        check_bool "shared" true (Graph.mem_node h a));
    t "iter/fold_edges visit every edge once" (fun () ->
        let g, _, _, _ = mk () in
        let n = ref 0 in
        Graph.iter_edges (fun _ _ _ -> incr n) g;
        check_int "iter" 5 !n;
        check_int "fold" 5 (Graph.fold_edges (fun _ _ _ acc -> acc + 1) g 0));
  ]

(* qcheck: random mutation sequences keep indexes consistent with scans *)
type op =
  | Add_edge of int * string * int
  | Add_val of int * string * int
  | Remove of int
  | Collect of string * int

let op_gen =
  let open QCheck.Gen in
  oneof
    [
      map3 (fun a l b -> Add_edge (a, l, b)) (int_bound 9)
        (oneofl [ "x"; "y"; "z" ])
        (int_bound 9);
      map3 (fun a l v -> Add_val (a, l, v)) (int_bound 9)
        (oneofl [ "x"; "y" ]) (int_bound 4);
      map (fun i -> Remove i) (int_bound 30);
      map2 (fun c i -> Collect (c, i)) (oneofl [ "C"; "D" ]) (int_bound 9);
    ]

let apply_ops ~indexed ops =
  let g = Graph.create ~indexed ~name:"q" () in
  let nodes = Array.init 10 (fun i -> Oid.fresh (string_of_int i)) in
  Array.iter (Graph.add_node g) nodes;
  let edges = ref [] in
  List.iter
    (fun op ->
      match op with
      | Add_edge (a, l, b) ->
        Graph.add_edge g nodes.(a) l (Graph.N nodes.(b));
        edges := (nodes.(a), l, Graph.N nodes.(b)) :: !edges
      | Add_val (a, l, v) ->
        Graph.add_edge g nodes.(a) l (Graph.V (Value.Int v));
        edges := (nodes.(a), l, Graph.V (Value.Int v)) :: !edges
      | Remove i ->
        (match List.nth_opt !edges i with
         | Some (s, l, tgt) -> Graph.remove_edge g s l tgt
         | None -> ())
      | Collect (c, i) -> Graph.add_to_collection g c nodes.(i))
    ops;
  g

(* Same op sequence on indexed and unindexed graphs must agree on every
   observable. *)
let indexes_consistent ops =
  let gi = apply_ops ~indexed:true ops
  and gu = apply_ops ~indexed:false ops in
  let norm l = List.sort compare l in
  Graph.edge_count gi = Graph.edge_count gu
  && List.for_all
       (fun l ->
         norm
           (List.map
              (fun (s, t) -> (Oid.name s, Fmt.str "%a" Graph.pp_target t))
              (Graph.label_extent gi l))
         = norm
             (List.map
                (fun (s, t) -> (Oid.name s, Fmt.str "%a" Graph.pp_target t))
                (Graph.label_extent gu l)))
       [ "x"; "y"; "z" ]
  && List.for_all
       (fun v ->
         norm (List.map (fun (s, l) -> (Oid.name s, l)) (Graph.value_index gi v))
         = norm
             (List.map (fun (s, l) -> (Oid.name s, l)) (Graph.value_index gu v)))
       (List.init 5 (fun i -> Value.Int i))

let props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"indexed/unindexed graphs agree" ~count:200
         (QCheck.make QCheck.Gen.(list_size (int_range 0 40) op_gen))
         indexes_consistent);
  ]

let suite = basics @ collections @ indexes @ whole_graph @ props
