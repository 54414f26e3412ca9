(* Differential suite for the compiled graph kernel: path evaluation on
   the live slot adjacency must be indistinguishable — order included —
   from the interpretive product BFS the oracle keeps (Oracle.eval_from),
   which is itself pinned to the fixpoint reference semantics, on
   indexed and scan-only graphs, across mutations between query rounds
   (a memo that outlives a mutation answers for the old graph).  Also
   pins the backward candidate lane, the memo counters, and
   byte-identity of full site builds against oracle builds at several
   job counts. *)

open Sgraph

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* RPE generator with a named predicate so the dispatch tables'
   fallback lane is exercised, not just exact labels and Any *)
let rpe_gen =
  let open QCheck.Gen in
  let pred =
    oneofl
      [
        Path.Label "x";
        Path.Label "y";
        Path.Label "z";
        Path.Any;
        Path.Named_pred ("notZ", fun l -> l <> "z");
      ]
  in
  let rec gen depth =
    if depth = 0 then map (fun p -> Path.Edge p) pred
    else
      frequency
        [
          (3, map (fun p -> Path.Edge p) pred);
          (1, return Path.Epsilon);
          (2, map2 (fun a b -> Path.Seq (a, b)) (gen (depth - 1)) (gen (depth - 1)));
          (2, map2 (fun a b -> Path.Alt (a, b)) (gen (depth - 1)) (gen (depth - 1)));
          (1, map (fun a -> Path.Star a) (gen (depth - 1)));
          (1, map (fun a -> Path.Plus a) (gen (depth - 1)));
          (1, map (fun a -> Path.Opt a) (gen (depth - 1)));
        ]
  in
  gen 3

let graph_gen =
  let open QCheck.Gen in
  let* n = int_range 1 8 in
  let* edges =
    list_size (int_range 0 16)
      (triple (int_bound (n - 1)) (oneofl [ "x"; "y"; "z" ]) (int_bound (n - 1)))
  in
  let* vals =
    list_size (int_range 0 4) (pair (int_bound (n - 1)) (int_bound 2))
  in
  return (n, edges, vals)

let build_graph ?(indexed = true) (n, edges, vals) =
  let g = Graph.create ~indexed ~name:"k" () in
  let nodes = Array.init n (fun i -> Oid.fresh (string_of_int i)) in
  Array.iter (Graph.add_node g) nodes;
  List.iter (fun (a, l, b) -> Graph.add_edge g nodes.(a) l (Graph.N nodes.(b))) edges;
  List.iter
    (fun (a, v) -> Graph.add_edge g nodes.(a) "z" (Graph.V (Value.Int v)))
    vals;
  (g, nodes)

let target_key = function
  | Graph.N o -> "N" ^ Oid.name o
  | Graph.V v -> "V" ^ Value.to_string v

(* --- mutation scripts between query rounds --- *)

type op =
  | Add_edge of int * string * int
  | Remove_edge of int * string * int
  | Add_value of int * int
  | Remove_value of int * int
  | Remove_node of int
  | Add_node of int
  | Set_out of int * (string * int) list

let pp_op ppf = function
  | Add_edge (a, l, b) -> Fmt.pf ppf "+%d-%s->%d" a l b
  | Remove_edge (a, l, b) -> Fmt.pf ppf "-%d-%s->%d" a l b
  | Add_value (a, v) -> Fmt.pf ppf "+%d-z->%d" a v
  | Remove_value (a, v) -> Fmt.pf ppf "-%d-z->%d" a v
  | Remove_node a -> Fmt.pf ppf "-node %d" a
  | Add_node a -> Fmt.pf ppf "+node %d" a
  | Set_out (a, es) ->
    Fmt.pf ppf "set %d [%a]" a
      Fmt.(list ~sep:comma (pair ~sep:(any "->") string int))
      es

(* ops over a pool of [n] nodes; removals are frequent enough that the
   graph compacts, renumbering its slots under the memos *)
let op_gen n =
  let open QCheck.Gen in
  let node = int_bound (n - 1) and lab = oneofl [ "x"; "y"; "z" ] in
  frequency
    [
      (4, map3 (fun a l b -> Add_edge (a, l, b)) node lab node);
      (3, map3 (fun a l b -> Remove_edge (a, l, b)) node lab node);
      (2, map2 (fun a v -> Add_value (a, v)) node (int_bound 2));
      (1, map2 (fun a v -> Remove_value (a, v)) node (int_bound 2));
      (2, map (fun a -> Remove_node a) node);
      (2, map (fun a -> Add_node a) node);
      ( 1,
        map2
          (fun a es -> Set_out (a, es))
          node
          (list_size (int_bound 3) (pair lab node)) );
    ]

let apply g nodes = function
  | Add_edge (a, l, b) -> Graph.add_edge g nodes.(a) l (Graph.N nodes.(b))
  | Remove_edge (a, l, b) -> Graph.remove_edge g nodes.(a) l (Graph.N nodes.(b))
  | Add_value (a, v) -> Graph.add_edge g nodes.(a) "z" (Graph.V (Value.Int v))
  | Remove_value (a, v) ->
    Graph.remove_edge g nodes.(a) "z" (Graph.V (Value.Int v))
  | Remove_node a -> Graph.remove_node g nodes.(a)
  | Add_node a -> Graph.add_node g nodes.(a)
  | Set_out (a, es) ->
    Graph.set_out_edges g nodes.(a)
      (List.map (fun (l, b) -> (l, Graph.N nodes.(b))) es)

type case = {
  spec : int * (int * string * int) list * (int * int) list;
  rpe : Path.t;
  rounds : op list list;  (* mutations applied after each query round *)
}

let case_gen =
  let open QCheck.Gen in
  let* ((n, _, _) as spec) = graph_gen in
  let* rpe = rpe_gen in
  let* rounds =
    list_size (int_range 0 4) (list_size (int_range 1 4) (op_gen n))
  in
  return { spec; rpe; rounds }

let case_arb =
  QCheck.make
    ~print:(fun c ->
      Fmt.str "%a after rounds %a" Path.pp c.rpe
        Fmt.(list ~sep:semi (brackets (list ~sep:comma pp_op)))
        c.rounds)
    case_gen

(* One compiled automaton serves every round, as a plan's does across
   the drivers of a delta cycle, so its kernel state (rows, stamped
   tables, memos) meets every mutation of the script.  Each round asks
   every pool node — removed ones too, which answer as foreign nodes —
   for its results twice (the second time from the memo) and compares
   them, order included, with the oracle BFS on the same graph. *)
let kernel_equals_oracle ~indexed c =
  let g, nodes = build_graph ~indexed c.spec in
  let nfa = Path.compile c.rpe in
  let round k =
    Array.iter
      (fun o ->
        let expect = List.map target_key (Oracle.eval_from nfa g o) in
        for _ = 1 to 2 do
          let got = List.map target_key (Path.eval_from ~nfa g c.rpe o) in
          if got <> expect then
            QCheck.Test.fail_reportf
              "round %d, source %s: kernel [%s], BFS [%s]" k (Oid.name o)
              (String.concat " " got) (String.concat " " expect)
        done)
      nodes
  in
  round 0;
  List.iteri
    (fun k ops ->
      List.iter (apply g nodes) ops;
      round (k + 1))
    c.rounds;
  true

let kernel_matches_reference (spec, rpe) =
  let g, nodes = build_graph spec in
  let ref_pairs =
    Path.eval_ref g rpe
    |> List.filter_map (fun (x, y) ->
        match x with
        | Graph.N o -> Some (Oid.name o, target_key y)
        | Graph.V _ -> None)
    |> List.sort_uniq compare
  in
  let kernel_pairs =
    Array.to_list nodes
    |> List.concat_map (fun o ->
        List.map (fun t -> (Oid.name o, target_key t)) (Path.eval_from g rpe o))
    |> List.sort_uniq compare
  in
  ref_pairs = kernel_pairs

(* the backward lane, round after round on one automaton: a complete
   candidate set, in Graph.nodes order, for every object some node
   reaches; on a scan-only graph there is no lane *)
let candidates_complete_and_ordered ~indexed c =
  let g, nodes = build_graph ~indexed c.spec in
  let nfa = Path.compile c.rpe in
  let round k =
    let live = Graph.nodes g in
    let reached =
      List.concat_map (fun o -> Oracle.eval_from nfa g o) live
      |> List.sort_uniq Graph.target_compare
    in
    List.iter
      (fun tgt ->
        let probe =
          match tgt with Graph.N o -> Path.Pnode o | Graph.V v -> Path.Pvalue v
        in
        match Path.candidate_sources ~nfa g c.rpe ~towards:probe, indexed with
        | None, false -> ()
        | Some _, false ->
          QCheck.Test.fail_reportf
            "round %d: a backward lane without an index" k
        | None, true -> QCheck.Test.fail_reportf "round %d: no backward lane" k
        | Some cands, true ->
          let exact =
            List.filter
              (fun o ->
                List.exists (Graph.target_equal tgt) (Oracle.eval_from nfa g o))
              live
          in
          let missing =
            List.filter (fun o -> not (List.exists (Oid.equal o) cands)) exact
          in
          let in_order =
            List.filter (fun o -> List.exists (Oid.equal o) cands) live
          in
          if missing <> [] then
            QCheck.Test.fail_reportf "round %d, %s: candidates miss %s" k
              (target_key tgt)
              (String.concat " " (List.map Oid.name missing));
          if not (List.equal Oid.equal cands in_order) then
            QCheck.Test.fail_reportf "round %d, %s: candidates out of order" k
              (target_key tgt))
      reached
  in
  round 0;
  List.iteri
    (fun k ops ->
      List.iter (apply g nodes) ops;
      round (k + 1))
    c.rounds;
  true

let props =
  let prop ~name ~count f =
    QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count case_arb f)
  in
  [
    prop
      ~name:"kernel equals the BFS, order included, across mutations (indexed)"
      ~count:400 (kernel_equals_oracle ~indexed:true);
    prop
      ~name:"kernel equals the BFS, order included, across mutations (scan-only)"
      ~count:200 (kernel_equals_oracle ~indexed:false);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"kernel matches reference semantics" ~count:300
         (QCheck.make
            ~print:(fun (_, r) -> Fmt.str "%a" Path.pp r)
            QCheck.Gen.(pair graph_gen rpe_gen))
         kernel_matches_reference);
    prop
      ~name:"candidate_sources is complete and in node order, across mutations"
      ~count:200 (candidates_complete_and_ordered ~indexed:true);
    prop ~name:"candidate_sources: no backward lane on a scan-only graph"
      ~count:50 (candidates_complete_and_ordered ~indexed:false);
  ]

(* --- memo counters and foreign sources --- *)

let mk () =
  let g = Graph.create ~name:"memo" () in
  let a = Graph.new_node g "a" in
  let b = Graph.new_node g "b" in
  let c = Graph.new_node g "c" in
  Graph.add_edge g a "x" (Graph.N b);
  Graph.add_edge g b "y" (Graph.N c);
  Graph.add_edge g a "v" (Graph.V (Value.Int 7));
  (g, a, b, c)

let memo =
  [
    t "memo counters: misses then hits, a mutation misses again" (fun () ->
        let g, a, b, _ = mk () in
        let r = Path.any_path in
        (* memoization is per compiled automaton: share the nfa, as
           plans do, so the second call is a memo hit *)
        let nfa = Path.compile r in
        let before = Graph.kernel_counters g in
        ignore (Path.eval_from ~nfa g r a);
        ignore (Path.eval_from ~nfa g r a);
        let after = Graph.kernel_counters g in
        check_int "one miss" 1 (after.Graph.misses - before.Graph.misses);
        check_int "one hit" 1 (after.Graph.hits - before.Graph.hits);
        Graph.add_edge g b "x" (Graph.N a);
        ignore (Path.eval_from ~nfa g r a);
        let again = Graph.kernel_counters g in
        check_int "the mutation dropped the memo" 2
          (again.Graph.misses - before.Graph.misses));
    t "an automaton does not keep the graph it ran on alive" (fun () ->
        let nfa = Path.compile Path.any_path in
        let held = Weak.create 1 in
        (* in a frame of its own, so no slot of this one holds the graph *)
        let[@inline never] run () =
          let g, a, _, _ = mk () in
          ignore (Path.eval_from ~nfa g Path.any_path a);
          Weak.set held 0 (Some g)
        in
        run ();
        Gc.full_major ();
        check_bool "graph collected" false (Weak.check held 0);
        (* the automaton itself stays usable on another graph *)
        let g', a', _, _ = mk () in
        check_int "reaches a, b, c and 7" 4
          (List.length (Path.eval_from ~nfa g' Path.any_path a')));
    t "eval_from on a node foreign to the graph still answers" (fun () ->
        let g, _, _, _ = mk () in
        let stranger = Oid.fresh "stranger" in
        check_int "nullable self only" 1
          (List.length (Path.eval_from g Path.any_path stranger));
        check_int "nothing otherwise" 0
          (List.length (Path.eval_from g (Path.Edge Path.Any) stranger)));
  ]

(* --- full site builds: kernel ≡ oracle, at jobs ∈ {1, 4} ---

   The oracle leg evaluates the site queries with the test oracle,
   whose path conditions run on the interpretive BFS over every node,
   and renders with the oracle's sequential generator; the other legs are
   ordinary builds, whose path conditions run on the kernel, backward
   lane included.  The bundled site queries mostly follow single
   labels, so each leg also walks [*] from every root of its site
   graph: the BFS in the oracle leg, the kernel in the others. *)

let page_triples (site : Template.Generator.site) =
  List.map
    (fun (p : Template.Generator.page) ->
      ( p.Template.Generator.url,
        Oid.name p.Template.Generator.obj,
        p.Template.Generator.html ))
    site.Template.Generator.pages

let star = Path.compile Path.any_path

let reachable eval_from site_graph (def : Strudel.Site.definition) =
  List.map
    (fun root -> List.map target_key (eval_from site_graph root))
    (Strudel.Site.roots_of site_graph def.Strudel.Site.root_family)

let oracle_build (def : Strudel.Site.definition) data =
  let options =
    { Struql.Eval.default_options with
      strategy = def.Strudel.Site.strategy;
      registry = def.Strudel.Site.registry }
  in
  let scope = Oracle.new_scope () in
  let site_graph = Graph.create ~name:def.Strudel.Site.name () in
  List.iter
    (fun (_, q) -> ignore (Oracle.run ~options ~scope ~into:site_graph data q))
    (Strudel.Site.parse_queries def);
  let roots = Strudel.Site.roots_of site_graph def.Strudel.Site.root_family in
  let site =
    Oracle.generate ~templates:def.Strudel.Site.templates site_graph ~roots
  in
  (page_triples site, reachable (Oracle.eval_from star) site_graph def)

let sites_under_test () =
  [
    ("paper", Sites.Paper_example.definition, Sites.Paper_example.data ());
    ("cnn", Sites.Cnn.definition, Sites.Cnn.data ~articles:15 ());
    ( "org",
      Sites.Org.definition,
      let _, w = Sites.Org.data ~people:15 ~orgs:3 () in
      Mediator.Warehouse.graph w );
  ]

let site_tests =
  List.map
    (fun (name, def, data) ->
      t (Printf.sprintf "%s: kernel builds equal oracle builds" name)
        (fun () ->
          let oracle_pages, oracle_reach = oracle_build def data in
          check_bool (name ^ " has pages") true (oracle_pages <> []);
          List.iter
            (fun jobs ->
              let b = Strudel.Site.build ~jobs ~data def in
              check_bool
                (Printf.sprintf "%s jobs=%d identical" name jobs)
                true
                (page_triples b.Strudel.Site.site = oracle_pages);
              check_bool
                (Printf.sprintf "%s jobs=%d same reachable sets" name jobs)
                true
                (reachable
                   (fun g o -> Path.eval_from ~nfa:star g Path.any_path o)
                   b.Strudel.Site.site_graph def
                = oracle_reach))
            [ 1; 4 ]))
    (sites_under_test ())

(* kernel counters surface in the execution profile *)
let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let profile_tests =
  [
    t "explain-analyze reports memo counts" (fun () ->
        let g = Graph.create ~name:"prof" () in
        let a = Graph.new_node g "a" in
        let b = Graph.new_node g "b" in
        Graph.add_to_collection g "R" a;
        Graph.add_to_collection g "R" b;
        Graph.add_edge g a "next" (Graph.N b);
        Graph.add_edge g b "next" (Graph.N a);
        let q =
          Struql.Parser.parse
            {|WHERE R(t), t -> "next"+ -> u COLLECT Out(t) OUTPUT o|}
        in
        let _, prof = Struql.Exec.run_with_profile g q in
        check_bool "kernel ran" true
          (prof.Struql.Exec.prf_kernel_misses > 0);
        let s = Fmt.str "%a" Struql.Exec.pp_profile prof in
        check_bool "kernel line printed" true
          (contains_sub s "kernel: memo hits=");
        check_bool "no freeze count" false (contains_sub s "freezes"));
  ]

let suite = props @ memo @ site_tests @ profile_tests
