(* Differential suite for the compiled graph kernel: path evaluation on
   a frozen CSR snapshot must be indistinguishable — order included —
   from the interpretive BFS the same graph answers with before it is
   frozen, which is itself pinned to the fixpoint reference semantics.
   Also pins snapshot invalidation, the attribute fast paths, the
   backward candidate lane, and byte-identity of full site builds with
   the kernel on and off at several job counts. *)

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

let build_graph (n, edges, vals) =
  let g = Graph.create ~name:"k" () in
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

let gen_case =
  QCheck.make
    ~print:(fun (_, r) -> Fmt.str "%a" Path.pp r)
    QCheck.Gen.(pair graph_gen rpe_gen)

(* exact equality, order included: the kernel's whole contract.  An
   unfrozen graph has no snapshot, so it answers on the legacy BFS *)
let kernel_identical_to_legacy (spec, rpe) =
  let g, nodes = build_graph spec in
  let results () =
    Array.to_list nodes
    |> List.map (fun o -> List.map target_key (Path.eval_from g rpe o))
  in
  let legacy = results () in
  ignore (Graph.freeze g);
  legacy = results ()

let kernel_matches_reference (spec, rpe) =
  let g, nodes = build_graph spec in
  ignore (Graph.freeze g);
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

(* the backward lane: a complete candidate set, in Graph.nodes order,
   that filters down to exactly the true sources *)
let candidates_complete_and_ordered (spec, rpe) =
  let g, nodes = build_graph spec in
  ignore (Graph.freeze g);
  let all_targets =
    Array.to_list nodes |> List.concat_map (fun o -> Path.eval_from g rpe o)
  in
  let probes =
    List.map (fun t ->
        ( t,
          match t with
          | Graph.N o -> Path.Pnode o
          | Graph.V v -> Path.Pvalue v ))
      all_targets
  in
  List.for_all
    (fun (tgt, probe) ->
      match Path.candidate_sources g rpe ~towards:probe with
      | None -> false (* snapshot is live: the lane must engage *)
      | Some cands ->
        let exact =
          Array.to_list nodes
          |> List.filter (fun o ->
              List.exists (Graph.target_equal tgt) (Path.eval_from g rpe o))
        in
        let cand_names = List.map Oid.name cands in
        let node_order =
          List.filter
            (fun n -> List.mem n cand_names)
            (List.map Oid.name (Graph.nodes g))
        in
        (* complete ... *)
        List.for_all (fun o -> List.mem (Oid.name o) cand_names) exact
        (* ... and emitted in Graph.nodes order *)
        && cand_names = node_order)
    probes

let props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"frozen kernel results identical (order included) to legacy BFS"
         ~count:400 gen_case kernel_identical_to_legacy);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"frozen kernel matches reference semantics"
         ~count:300 gen_case kernel_matches_reference);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"candidate_sources is complete and in node order" ~count:200
         gen_case candidates_complete_and_ordered);
  ]

(* --- snapshot lifecycle --- *)

let mk () =
  let g = Graph.create ~name:"snap" () in
  let a = Graph.new_node g "a" in
  let b = Graph.new_node g "b" in
  let c = Graph.new_node g "c" in
  Graph.add_edge g a "x" (Graph.N b);
  Graph.add_edge g b "y" (Graph.N c);
  Graph.add_edge g a "v" (Graph.V (Value.Int 7));
  (g, a, b, c)

let lifecycle =
  [
    t "freeze caches until mutation" (fun () ->
        let g, a, b, _ = mk () in
        check_bool "no snapshot before freeze" true (Graph.snapshot g = None);
        let s1 = Graph.freeze g in
        let s2 = Graph.freeze g in
        check_bool "cached" true (s1 == s2);
        check_bool "snapshot visible" true (Graph.snapshot g <> None);
        Graph.add_edge g b "x" (Graph.N a);
        check_bool "mutation invalidates" true (Graph.snapshot g = None);
        let s3 = Graph.freeze g in
        check_bool "refreeze rebuilds" true (not (s1 == s3)));
    t "add_node and remove_edge invalidate" (fun () ->
        let g, a, b, _ = mk () in
        ignore (Graph.freeze g);
        ignore (Graph.new_node g "d");
        check_bool "add_node" true (Graph.snapshot g = None);
        ignore (Graph.freeze g);
        Graph.remove_edge g a "x" (Graph.N b);
        check_bool "remove_edge" true (Graph.snapshot g = None));
    t "attr fast paths agree with live scans" (fun () ->
        let g, a, _, _ = mk () in
        let live_attr = Graph.attr g a "x" in
        let live_attr1 = Graph.attr1 g a "x" in
        let live_v = Graph.attr_value g a "v" in
        ignore (Graph.freeze g);
        check_bool "attr" true (Graph.attr g a "x" = live_attr);
        check_bool "attr1" true (Graph.attr1 g a "x" = live_attr1);
        check_bool "attr_value" true (Graph.attr_value g a "v" = live_v);
        check_bool "unknown label" true (Graph.attr g a "nope" = []));
    t "memo counters: misses then hits" (fun () ->
        let g, a, _, _ = mk () in
        ignore (Graph.freeze g);
        let r = Path.any_path in
        (* memoization is per compiled automaton: share the nfa, as
           plans do, so the second call is a memo hit *)
        let nfa = Path.compile r in
        let before = Graph.kernel_counters g in
        ignore (Path.eval_from ~nfa g r a);
        ignore (Path.eval_from ~nfa g r a);
        let after = Graph.kernel_counters g in
        check_bool "a miss happened" true
          (after.Graph.misses > before.Graph.misses);
        check_bool "a hit happened" true
          (after.Graph.hits > before.Graph.hits));
    t "eval_from on a node foreign to the graph still answers" (fun () ->
        let g, _, _, _ = mk () in
        ignore (Graph.freeze g);
        let stranger = Oid.fresh "stranger" in
        check_int "nullable self only" 1
          (List.length (Path.eval_from g Path.any_path stranger)));
  ]

(* --- full site builds: kernel on ≡ kernel off, at jobs ∈ {1, 4} ---

   The kernel is off exactly when no graph is frozen.  The off leg
   evaluates the site queries with the oracle, which never freezes the
   data graph, and renders with the sequential generator on the live
   site graph, as a one-domain watch cycle does, so every path
   condition and template path walk takes the BFS lane.  The on legs are ordinary builds, which freeze
   both graphs.  The bundled site queries follow single labels only,
   so each leg also walks [*] from every root of its site graph: BFS
   in the off leg, the kernel in the on legs. *)

let page_triples (site : Template.Generator.site) =
  List.map
    (fun (p : Template.Generator.page) ->
      ( p.Template.Generator.url,
        Oid.name p.Template.Generator.obj,
        p.Template.Generator.html ))
    site.Template.Generator.pages

let reachable site_graph (def : Strudel.Site.definition) =
  List.map
    (fun root ->
      List.map target_key (Path.eval_from site_graph Path.any_path root))
    (Strudel.Site.roots_of site_graph def.Strudel.Site.root_family)

let unfrozen_build (def : Strudel.Site.definition) data =
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
    Template.Generator.generate ~templates:def.Strudel.Site.templates
      site_graph ~roots
  in
  let reach = reachable site_graph def in
  check_bool "data graph never frozen" true (Graph.snapshot data = None);
  check_bool "site graph never frozen" true (Graph.snapshot site_graph = None);
  (page_triples site, reach)

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
      t (Printf.sprintf "%s: kernel on/off builds byte-identical" name)
        (fun () ->
          let off_pages, off_reach = unfrozen_build def data in
          check_bool (name ^ " has pages") true (off_pages <> []);
          List.iter
            (fun jobs ->
              let b = Strudel.Site.build ~jobs ~data def in
              check_bool "site graph frozen" true
                (Graph.snapshot b.Strudel.Site.site_graph <> None);
              check_bool
                (Printf.sprintf "%s jobs=%d identical" name jobs)
                true
                (page_triples b.Strudel.Site.site = off_pages);
              check_bool
                (Printf.sprintf "%s jobs=%d same reachable sets" name jobs)
                true
                (reachable b.Strudel.Site.site_graph def = off_reach))
            [ 1; 4 ]))
    (sites_under_test ())

(* kernel counters surface in the execution profile *)
let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let profile_tests =
  [
    t "explain-analyze reports freeze and memo counts" (fun () ->
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
        check_int "one freeze" 1 prof.Struql.Exec.prf_kernel_freezes;
        check_bool "kernel ran" true
          (prof.Struql.Exec.prf_kernel_misses > 0);
        let s = Fmt.str "%a" Struql.Exec.pp_profile prof in
        check_bool "kernel line printed" true (contains_sub s "kernel:"));
  ]

let suite = props @ lifecycle @ site_tests @ profile_tests
