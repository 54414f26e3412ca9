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

(* Every value's index holds exactly the edges whose target is
   [Value.equal] to it, in insertion order: the graph interns values by
   that equality, no coarser and no finer. *)
let check_values g values =
  let inserted = ref [] in
  Graph.iter_edges_inserted (fun s l t -> inserted := (s, l, t) :: !inserted) g;
  let inserted = List.rev !inserted in
  List.iter
    (fun v ->
      let expect =
        List.filter_map
          (fun (s, l, t) ->
            match t with
            | Graph.V w when Value.equal v w -> Some (s, l)
            | _ -> None)
          inserted
      in
      check_bool
        (Fmt.str "value index of %a" Value.pp v)
        true
        (List.equal
           (fun (s, l) (s', l') -> Oid.equal s s' && String.equal l l')
           (Graph.value_index g v) expect))
    (List.sort_uniq Value.compare values)

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
    t "edge values intern exactly as Value.equal says" (fun () ->
        let tricky =
          Value.
            [ Float 0.0; Float (-0.0); Float nan; Float (-.nan); Int 1;
              Float 1.0; String "1"; Url "1"; Null; Bool true; Int 0;
              File (Text, "p"); File (Image, "p") ]
        in
        let g = Graph.create ~name:"t" () in
        List.iteri
          (fun i v ->
            Graph.add_edge g (Graph.new_node g (string_of_int i)) "v"
              (Graph.V v))
          tricky;
        check_values g tricky);
    t "the synth site's value edges intern as Value.equal says" (fun () ->
        let g = Sites.Scale.data ~items:200 ~groups:4 () in
        let values =
          Graph.fold_edges
            (fun _ _ t acc -> match t with Graph.V v -> v :: acc | _ -> acc)
            g []
        in
        check_bool "has value edges" true (values <> []);
        check_values g values);
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
    t "union shares objects" (fun () ->
        let g, a, _, _ = mk () in
        let h = Graph.create ~name:"h" () in
        let z = Graph.new_node h "z" in
        Graph.add_edge h z "to" (Graph.N a);
        (* a is shared between graphs *)
        let h = Graph.union ~name:"h" [ h; g ] in
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
   observable, in order: a scan answers in the index's order. *)
let indexes_consistent ops =
  let gi = apply_ops ~indexed:true ops
  and gu = apply_ops ~indexed:false ops in
  Graph.edge_count gi = Graph.edge_count gu
  && List.for_all
       (fun l ->
         List.map
           (fun (s, t) -> (Oid.name s, Fmt.str "%a" Graph.pp_target t))
           (Graph.label_extent gi l)
         = List.map
             (fun (s, t) -> (Oid.name s, Fmt.str "%a" Graph.pp_target t))
             (Graph.label_extent gu l))
       [ "x"; "y"; "z" ]
  && List.for_all
       (fun v ->
         List.map (fun (s, l) -> (Oid.name s, l)) (Graph.value_index gi v)
         = List.map (fun (s, l) -> (Oid.name s, l)) (Graph.value_index gu v))
       (List.init 5 (fun i -> Value.Int i))

let props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"indexed/unindexed graphs agree" ~count:200
         (QCheck.make QCheck.Gen.(list_size (int_range 0 40) op_gen))
         indexes_consistent);
  ]

(* --- the order-exact differential against the list model ---

   Random scripts of every mutation run through Graph_model and through
   a graph, indexed or scan-only, on a small pool of nodes (three pairs
   share a name), labels, values and collections, so removal, re-adding,
   tombstones, bucket sweeps and whole-graph compaction all happen
   often.  After every step each observable of the order contract must
   equal the model's exactly, and attr, attr1, attr_value and every
   out-bucket again once the graph is frozen. *)

let pool = Array.map Oid.fresh [| "a"; "b"; "c"; "a"; "d"; "b"; "e"; "c" |]
let pool_names = [ "a"; "b"; "c"; "d"; "e"; "zz" ]
let pool_labels = [| "x"; "y"; "z" |]

let pool_values =
  [| Value.Int 0; Value.Int 1; Value.String "1"; Value.String "s" |]

let pool_colls = [| "C"; "D"; "E" |]

(* a target index: a pool node, then a pool value *)
let target k =
  if k < Array.length pool then Graph.N pool.(k)
  else Graph.V pool_values.(k - Array.length pool)

type gop =
  | Add_node of int
  | Add_edge of int * int * int  (* source, label, target *)
  | Remove_edge of int * int * int
  | Remove_node of int
  | Add_member of int * int  (* collection, node *)
  | Remove_member of int * int
  | Declare of int
  | Set_out of int * (int * int) list  (* source, (label, target)s *)
  | Set_members of int * int list
  | Copy
  | Merge  (* the main graph becomes its union with the side graph *)

let pp_gop ppf = function
  | Add_node i -> Fmt.pf ppf "add_node %d" i
  | Add_edge (a, l, t) -> Fmt.pf ppf "add_edge %d %d %d" a l t
  | Remove_edge (a, l, t) -> Fmt.pf ppf "remove_edge %d %d %d" a l t
  | Remove_node i -> Fmt.pf ppf "remove_node %d" i
  | Add_member (c, i) -> Fmt.pf ppf "add_member %d %d" c i
  | Remove_member (c, i) -> Fmt.pf ppf "remove_member %d %d" c i
  | Declare c -> Fmt.pf ppf "declare %d" c
  | Set_out (i, es) ->
    Fmt.pf ppf "set_out %d [%a]" i
      Fmt.(list ~sep:semi (pair ~sep:comma int int))
      es
  | Set_members (c, is) ->
    Fmt.pf ppf "set_members %d [%a]" c Fmt.(list ~sep:semi int) is
  | Copy -> Fmt.string ppf "copy"
  | Merge -> Fmt.string ppf "merge"

(* each step acts on the main graph, or ([true]) on the side graph *)
let script_gen =
  let open QCheck.Gen in
  let node = int_bound (Array.length pool - 1)
  and label = int_bound (Array.length pool_labels - 1)
  and tgt = int_bound (Array.length pool + Array.length pool_values - 1)
  and coll = int_bound (Array.length pool_colls - 1) in
  let op =
    frequency
      [
        (2, map (fun i -> Add_node i) node);
        (10, map3 (fun a l t -> Add_edge (a, l, t)) node label tgt);
        (7, map3 (fun a l t -> Remove_edge (a, l, t)) node label tgt);
        (2, map (fun i -> Remove_node i) node);
        (3, map2 (fun c i -> Add_member (c, i)) coll node);
        (2, map2 (fun c i -> Remove_member (c, i)) coll node);
        (1, map (fun c -> Declare c) coll);
        ( 2,
          map2
            (fun i es -> Set_out (i, es))
            node
            (list_size (int_bound 4) (pair label tgt)) );
        ( 1,
          map2
            (fun c is -> Set_members (c, is))
            coll
            (list_size (int_bound 4) node) );
        (1, return Copy);
        (1, return Merge);
      ]
  in
  list_size (int_range 0 150) (pair (frequencyl [ (5, false); (1, true) ]) op)

type pair = { mutable g : Graph.t; mutable m : Graph_model.t }

let step main side (on_side, op) =
  let p = if on_side then side else main in
  let g = p.g and m = p.m in
  let node = Array.get pool
  and label = Array.get pool_labels
  and coll = Array.get pool_colls in
  match op with
  | Add_node i ->
    Graph.add_node g (node i);
    Graph_model.add_node m (node i)
  | Add_edge (a, l, t) ->
    Graph.add_edge g (node a) (label l) (target t);
    Graph_model.add_edge m (node a) (label l) (target t)
  | Remove_edge (a, l, t) ->
    Graph.remove_edge g (node a) (label l) (target t);
    Graph_model.remove_edge m (node a) (label l) (target t)
  | Remove_node i ->
    Graph.remove_node g (node i);
    Graph_model.remove_node m (node i)
  | Add_member (c, i) ->
    Graph.add_to_collection g (coll c) (node i);
    Graph_model.add_to_collection m (coll c) (node i)
  | Remove_member (c, i) ->
    Graph.remove_from_collection g (coll c) (node i);
    Graph_model.remove_from_collection m (coll c) (node i)
  | Declare c ->
    Graph.declare_collection g (coll c);
    Graph_model.declare_collection m (coll c)
  | Set_out (i, es) ->
    let es = List.map (fun (l, t) -> (label l, target t)) es in
    Graph.set_out_edges g (node i) es;
    Graph_model.set_out_edges m (node i) es
  | Set_members (c, is) ->
    let ms = List.map node is in
    Graph.set_collection g (coll c) ms;
    Graph_model.set_collection m (coll c) ms
  | Copy ->
    p.g <- Graph.copy g;
    p.m <- Graph_model.copy m
  | Merge ->
    main.g <- Graph.union ~name:"main" [ main.g; side.g ];
    main.m <- Graph_model.union [ main.m; side.m ]

module M = Graph_model

(* The first observable of the order contract that differs from the
   model, if any; [pool] names the nodes to probe (the node pool, or
   its image in a read-back). *)
let mismatch ?(pool = pool) p =
  let g = p.g and m = p.m in
  let found = ref None in
  let chk what a b = if !found = None && a <> b then found := Some what in
  let oids = Array.to_list pool and colls = Array.to_list pool_colls in
  let labels = "nope" :: Array.to_list pool_labels in
  let targets =
    List.map (fun o -> Graph.N o) oids
    @ List.map (fun v -> Graph.V v) (Array.to_list pool_values)
  in
  List.iter
    (fun o ->
      chk "out_edges" (Graph.out_edges g o) (M.out_edges m o);
      List.iter
        (fun l ->
          chk "attr" (Graph.attr g o l) (M.attr m o l);
          chk "attr1" (Graph.attr1 g o l) (M.attr1 m o l);
          chk "attr_value" (Graph.attr_value g o l) (M.attr_value m o l))
        labels)
    oids;
  let listed iter =
    let acc = ref [] in
    iter (fun s l t -> acc := (s, l, t) :: !acc) g;
    List.rev !acc
  in
  chk "nodes" (Graph.nodes g) m.M.nodes;
  chk "node_count" (Graph.node_count g) (List.length m.M.nodes);
  chk "edge_count" (Graph.edge_count g) (List.length m.M.edges);
  chk "iter_edges" (listed Graph.iter_edges) (M.edges_node_major m);
  chk "fold_edges"
    (List.rev (Graph.fold_edges (fun s l t acc -> (s, l, t) :: acc) g []))
    (M.edges_node_major m);
  chk "iter_edges_inserted" (listed Graph.iter_edges_inserted) m.M.edges;
  List.iter
    (fun (s, l, t) -> chk "has_edge" (Graph.has_edge g s l t) true)
    m.M.edges;
  List.iter
    (fun t -> chk "in_edges" (Graph.in_edges g t) (M.in_edges m t))
    targets;
  List.iter
    (fun l ->
      let extent = M.label_extent m l in
      chk "label_extent" (Graph.label_extent g l) extent;
      chk "label_count" (Graph.label_count g l) (List.length extent))
    labels;
  Array.iter
    (fun v -> chk "value_index" (Graph.value_index g v) (M.value_index m v))
    pool_values;
  chk "labels" (Graph.labels g) m.M.labels;
  chk "collections" (Graph.collections g) (List.map fst m.M.colls);
  List.iter
    (fun c ->
      let members = M.collection m c in
      chk "collection" (Graph.collection g c) members;
      chk "collection_size" (Graph.collection_size g c) (List.length members))
    colls;
  List.iter
    (fun o ->
      chk "mem_node" (Graph.mem_node g o) (M.mem_node m o);
      chk "collections_of" (Graph.collections_of g o) (M.collections_of m o);
      List.iter
        (fun c ->
          chk "in_collection" (Graph.in_collection g c o)
            (M.in_collection m c o))
        colls)
    oids;
  List.iter
    (fun n -> chk "find_node" (Graph.find_node g n) (M.find_node m n))
    pool_names;
  !found

let run_script ~indexed script =
  let fresh () = { g = Graph.create ~indexed (); m = M.create () } in
  let main = fresh () and side = fresh () in
  List.iteri
    (fun k op ->
      step main side op;
      match mismatch main, mismatch side with
      | None, None -> ()
      | Some what, _ | _, Some what ->
        QCheck.Test.fail_reportf "step %d (%a): %s differs from the model" k
          pp_gop (snd op) what)
    script;
  true

let script_arb =
  QCheck.make
    ~print:
      (Fmt.str "%a" Fmt.(list ~sep:semi (pair ~sep:(any ":") bool pp_gop)))
    script_gen

let differential =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"graph equals the list model, in order (indexed)"
         ~count:300 script_arb (run_script ~indexed:true));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"graph equals the list model, in order (scan-only)" ~count:300
         script_arb (run_script ~indexed:false));
  ]

(* --- the bulk loader against one-at-a-time insertion ---

   Random event scripts (duplicate edges, values shared by many edges,
   repeated memberships, nodes sharing a name) go through a loader and
   through the per-event calls: both must equal the list model in every
   observable, and agree on [names_shared] and the generation. *)

type lev =
  | L_node of int
  | L_edge of int * int * int
  | L_member of int * int
  | L_declare of int

let pp_lev ppf = function
  | L_node i -> Fmt.pf ppf "node %d" i
  | L_edge (a, l, t) -> Fmt.pf ppf "edge %d %d %d" a l t
  | L_member (c, i) -> Fmt.pf ppf "member %d %d" c i
  | L_declare c -> Fmt.pf ppf "declare %d" c

let load_script_arb =
  let open QCheck.Gen in
  let node = int_bound (Array.length pool - 1)
  and label = int_bound (Array.length pool_labels - 1)
  and tgt = int_bound (Array.length pool + Array.length pool_values - 1)
  and coll = int_bound (Array.length pool_colls - 1) in
  QCheck.make
    ~print:(Fmt.str "%a" Fmt.(list ~sep:semi pp_lev))
    (list_size (int_range 0 120)
       (frequency
          [
            (2, map (fun i -> L_node i) node);
            (8, map3 (fun a l t -> L_edge (a, l, t)) node label tgt);
            (3, map2 (fun c i -> L_member (c, i)) coll node);
            (1, map (fun c -> L_declare c) coll);
          ]))

let load_equals_inserting ~indexed script =
  let g = Graph.create ~indexed () and m = M.create () in
  let ld = Graph.Loader.create ~indexed () in
  let node = Array.get pool
  and label = Array.get pool_labels
  and coll = Array.get pool_colls in
  List.iter
    (function
      | L_node i ->
        Graph.add_node g (node i);
        Graph.Loader.add_node ld (node i);
        M.add_node m (node i)
      | L_edge (a, l, t) ->
        Graph.add_edge g (node a) (label l) (target t);
        Graph.Loader.add_edge ld (node a) (label l) (target t);
        M.add_edge m (node a) (label l) (target t)
      | L_member (c, i) ->
        Graph.add_to_collection g (coll c) (node i);
        Graph.Loader.add_to_collection ld (coll c) (node i);
        M.add_to_collection m (coll c) (node i)
      | L_declare c ->
        Graph.declare_collection g (coll c);
        Graph.Loader.declare_collection ld (coll c);
        M.declare_collection m (coll c))
    script;
  let loaded = Graph.Loader.finish ld in
  match (mismatch { g; m }, mismatch { g = loaded; m }) with
  | Some what, _ -> QCheck.Test.fail_reportf "inserting: %s differs" what
  | _, Some what -> QCheck.Test.fail_reportf "loading: %s differs" what
  | None, None ->
    Graph.names_shared loaded = Graph.names_shared g
    && Graph.generation loaded = Graph.generation g

(* --- copies and read-backs against the list model ---

   A random script of the differential above (removals, re-additions,
   copies and unions) builds the main graph; every way of rebuilding it
   must list what the model's copy lists, with the nodes renamed to the
   rebuilt graph's, position by position in node order. *)

let renaming src dst =
  let tbl = Oid.Tbl.create 16 in
  List.iter2 (Oid.Tbl.replace tbl) (Graph.nodes src) (Graph.nodes dst);
  fun o -> Option.value (Oid.Tbl.find_opt tbl o) ~default:o

let equals_copy ?(colls = Fun.id) what g m g' =
  let f = renaming g g' in
  let expected = M.rename f (M.copy m) in
  expected.M.colls <- colls expected.M.colls;
  match mismatch ~pool:(Array.map f pool) { g = g'; m = expected } with
  | None -> true
  | Some x ->
    QCheck.Test.fail_reportf "%s: %s differs from the model's copy" what x

let read_backs_equal_copy script =
  let fresh () = { g = Graph.create (); m = M.create () } in
  let main = fresh () and side = fresh () in
  List.iter (step main side) script;
  let g = main.g and m = main.m in
  let path = Filename.temp_file "strudelgraph" ".seg" in
  let _n = Repository.Segment.write ~path g in
  let seg = Repository.Segment.to_graph [ Repository.Segment.read ~path () ] in
  Sys.remove path;
  let dir = Test_shard.tmp_dir "strudelgraph" in
  ignore
    (Repository.Shard.publish
       { Repository.Shard.dir; cfg_spec = Repository.Shard.By_collection }
       ~epoch:1 g);
  let union = (Repository.Shard.open_dir ~dir ()).Repository.Shard.sn_union in
  Test_shard.rm_rf dir;
  equals_copy "segment" g m seg
  (* a repository stores no empty collection *)
  && equals_copy "repository union"
       ~colls:(List.filter (fun (_, ms) -> ms <> []))
       g m union
  && equals_copy "Delta.rebase" g m (Delta.rebase ~old:seg g)

let loader_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"loading a script equals inserting it (indexed)"
         ~count:300 load_script_arb (load_equals_inserting ~indexed:true));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"loading a script equals inserting it (scan-only)" ~count:300
         load_script_arb (load_equals_inserting ~indexed:false));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:
           "read-backs and rebases equal the model's copy (segment, \
            repository union, Delta.rebase)"
         ~count:150 script_arb read_backs_equal_copy);
  ]

let lifecycle =
  [
    t "oids minted on four domains at once are distinct" (fun () ->
        let per = 200_000 and ready = Atomic.make 0 in
        let mint () =
          (* start together, or one domain may be done before the next
             is up *)
          Atomic.incr ready;
          while Atomic.get ready < 4 do
            Domain.cpu_relax ()
          done;
          let ids = Array.make per 0 in
          for i = 0 to per - 1 do
            ids.(i) <- Oid.id (Oid.fresh "o")
          done;
          ids
        in
        let ids =
          List.init 4 (fun _ -> Domain.spawn mint)
          |> List.map Domain.join |> Array.concat
        in
        Array.sort Int.compare ids;
        let dups = ref 0 in
        Array.iteri (fun i x -> if i > 0 && ids.(i - 1) = x then incr dups) ids;
        check_int "duplicate ids" 0 !dups);
  ]

let suite =
  basics @ collections @ indexes @ whole_graph @ props @ differential
  @ loader_props @ lifecycle
