(* The streaming physical-operator engine (Struql.Exec): whole-query
   equivalence with the eager reference evaluator (Oracle: same graphs,
   same Skolem oids, same mutation order), per-operator statistics,
   EXPLAIN / EXPLAIN ANALYZE rendering, and the memory win it exists
   for. *)

open Sgraph
open Struql

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec find i = i + n <= h && (String.sub hay i n = needle || find (i + 1)) in
  find 0

let all_strategies =
  [ ("naive", Plan.Naive); ("heuristic", Plan.Heuristic);
    ("costbased", Plan.Cost_based) ]

(* A graph's observable content with oids canonicalized by name, in
   insertion order — equal canonical forms mean the two engines issued
   the identical mutation sequence (Skolem names are derived from the
   data's stable node names, so they agree across runs). *)
let canon g =
  let tname = function
    | Graph.N o -> "N:" ^ Oid.name o
    | Graph.V v -> "V:" ^ Value.to_string v
  in
  let nodes = List.map Oid.name (Graph.nodes g) in
  let edges =
    List.concat_map
      (fun o ->
        List.map (fun (l, tg) -> (Oid.name o, l, tname tg)) (Graph.out_edges g o))
      (Graph.nodes g)
  in
  let colls =
    List.map
      (fun c -> (c, List.map Oid.name (Graph.collection g c)))
      (List.sort compare (Graph.collections g))
  in
  (nodes, edges, colls)

let graphs_agree a b = canon a = canon b

(* Aggregate flush emits its groups in [Hashtbl.iter] order, and the
   group keys embed global oid ids — so aggregate edge *order* differs
   between any two runs (even eager vs eager).  Both engines share the
   flush code; compare aggregate graphs with edges sorted. *)
let graphs_agree_unordered a b =
  let sort (nodes, edges, colls) =
    (nodes, List.sort compare edges, colls)
  in
  sort (canon a) = sort (canon b)

(* ---- fixtures ---- *)

let small_data () =
  let g = Graph.create ~name:"d" () in
  let mk name k =
    let o = Graph.new_node g name in
    Graph.add_to_collection g "C" o;
    Graph.add_edge g o "k" (Graph.V (Value.Int k));
    o
  in
  let a = mk "a" 1 and b = mk "b" 2 in
  ignore (mk "c" 3);
  Graph.add_edge g a "next" (Graph.N b);
  g

let simple_query =
  {|WHERE C(x), x -> "k" -> v
    CREATE F(x)
    LINK F(x) -> "key" -> v
    COLLECT Out(F(x))
    OUTPUT R|}

let nested_query =
  {|WHERE C(x)
    CREATE P(x)
    { WHERE x -> "k" -> v
      LINK P(x) -> "val" -> v }
    { WHERE x -> "next" -> y
      LINK P(x) -> "succ" -> P(y) }
    COLLECT Pages(P(x))
    OUTPUT R|}

let agg_query =
  {|WHERE C(x), x -> "k" -> v
    CREATE S()
    LINK S() -> "total" -> sum(v), S() -> "hi" -> max(v)
    OUTPUT R|}

let both_runs ?into_self q_src strategy =
  let q = Parser.parse q_src in
  let options = { Eval.default_options with strategy } in
  match into_self with
  | None ->
    let g = small_data () in
    (Oracle.run ~options g q, Exec.run ~options g q)
  | Some () ->
    (* out == g: both engines construct into the graph they query *)
    let g1 = small_data () and g2 = small_data () in
    (Oracle.run ~options ~into:g1 g1 q, Exec.run ~options ~into:g2 g2 q)

let equivalence_cases =
  List.concat_map
    (fun (sname, strategy) ->
      List.map
        (fun (qname, src, agree) ->
          t
            (Printf.sprintf "streaming = eager: %s (%s)" qname sname)
            (fun () ->
              let eager, streaming = both_runs src strategy in
              check_bool "identical graphs" true (agree eager streaming)))
        [ ("simple", simple_query, graphs_agree);
          ("nested", nested_query, graphs_agree);
          ("aggregate", agg_query, graphs_agree_unordered) ])
    all_strategies

(* ---- per-operator statistics ---- *)

let stats_cases =
  [
    t "per-operator row counts" (fun () ->
        let g = small_data () in
        let q = Parser.parse simple_query in
        let _, prof = Exec.run_with_profile g q in
        check_int "one block" 1 (List.length prof.Exec.prf_blocks);
        let bp = List.hd prof.Exec.prf_blocks in
        check_int "rows to construction" 3 bp.Exec.bpr_rows;
        (match bp.Exec.bpr_ops with
         | [ scan; edge ] ->
           check_int "scan in" 1 scan.Exec.os_rows_in;
           check_int "scan out" 3 scan.Exec.os_rows_out;
           check_int "scan batch" 3 scan.Exec.os_max_batch;
           check_bool "scan access" true
             (scan.Exec.os_access = Exec.Coll_scan "C");
           check_int "edge in" 3 edge.Exec.os_rows_in;
           check_int "edge out" 3 edge.Exec.os_rows_out;
           check_bool "edge probes the out-edge index" true
             (edge.Exec.os_access = Exec.Edge_out)
         | ops -> Alcotest.failf "expected 2 operators, got %d" (List.length ops));
        check_int "total rows" 3 prof.Exec.prf_rows;
        check_bool "peak live is positive and small" true
          (prof.Exec.prf_peak_live >= 3 && prof.Exec.prf_peak_live <= 4));
    t "profile totals line up with per-op counters" (fun () ->
        let g = small_data () in
        let q = Parser.parse nested_query in
        let _, prof = Exec.run_with_profile g q in
        check_int "three blocks (parent + 2 nested)" 3
          (List.length prof.Exec.prf_blocks);
        check_int "operators counted" (Exec.profile_steps prof)
          (List.fold_left
             (fun n (b : Exec.block_profile) -> n + List.length b.Exec.bpr_ops)
             0 prof.Exec.prf_blocks);
        check_bool "nested block paths" true
          (List.map (fun (b : Exec.block_profile) -> b.Exec.bpr_path)
             prof.Exec.prf_blocks
           = [ "1"; "1.1"; "1.2" ]));
    t "peak live stays below the eager intermediate on a join" (fun () ->
        (* C(x), C(y), x != y: the eager engine materializes the n^2
           cross product; the pipeline keeps one expansion batch *)
        let g = Graph.create ~name:"j" () in
        for i = 1 to 8 do
          let o = Graph.new_node g (Printf.sprintf "n%d" i) in
          Graph.add_to_collection g "C" o
        done;
        let conds = Parser.parse_conditions {|C(x), C(y), x != y|} in
        let eager_stats = Oracle.new_stats () in
        let steps =
          Plan.plan ~registry:Builtins.default g ~bound:[] ~needed_obj:[]
            ~needed_label:[] conds
        in
        let eager =
          Oracle.exec_steps ~stats:eager_stats g Builtins.default
            [ Eval.Env.empty ] steps
        in
        let rows, _, peak = Exec.bindings_profiled g conds in
        check_int "same relation size" (List.length eager) (List.length rows);
        check_bool
          (Printf.sprintf "peak %d < eager max intermediate %d" peak
             eager_stats.Oracle.max_intermediate)
          true
          (peak < eager_stats.Oracle.max_intermediate));
    t "click-time profiled bindings equal eager bindings" (fun () ->
        let g = small_data () in
        let conds = Parser.parse_conditions {|C(x), x -> "k" -> v|} in
        let rows, ops, peak = Exec.bindings_profiled g conds in
        check_int "rows" (List.length (Oracle.bindings g conds))
          (List.length rows);
        check_bool "ops recorded" true (ops <> []);
        check_bool "peak recorded" true (peak > 0));
  ]

(* ---- EXPLAIN / EXPLAIN ANALYZE ---- *)

let explain_cases =
  List.map
    (fun (sname, strategy) ->
      t (Printf.sprintf "explain renders the %s plan" sname) (fun () ->
          let g = small_data () in
          let q = Parser.parse simple_query in
          let options = { Eval.default_options with strategy } in
          let plan = Exec.plan_query ~options g q in
          check_bool "strategy recorded" true (plan.Exec.qp_strategy = strategy);
          check_bool "has operators" true
            (List.for_all
               (fun (b : Exec.block_plan) -> b.Exec.bp_steps <> [])
               plan.Exec.qp_blocks);
          let s = Exec.explain ~options g q in
          check_bool "header" true (contains s "QUERY PLAN");
          check_bool "estimates" true (contains s "est rows");
          check_bool "an access path appears" true
            (contains s "scan" || contains s "probe" || contains s "index")))
    all_strategies
  @ List.map
      (fun (sname, strategy) ->
        t
          (Printf.sprintf "explain analyze reports measured rows (%s)" sname)
          (fun () ->
            let g = small_data () in
            let q = Parser.parse simple_query in
            let options = { Eval.default_options with strategy } in
            let _, prof = Exec.run_with_profile ~options ~timed:true g q in
            let s = Fmt.str "%a" Exec.pp_profile prof in
            check_bool "header" true (contains s "EXPLAIN ANALYZE");
            check_bool "strategy named" true
              (contains s
                 (match strategy with
                  | Plan.Naive -> "naive"
                  | Plan.Heuristic -> "heuristic"
                  | Plan.Cost_based -> "cost-based"));
            check_bool "measured rows" true (contains s "out=3");
            check_bool "watermark" true (contains s "batch<=");
            check_bool "peak live" true (contains s "peak live bindings");
            check_bool "timings on" true (contains s "time=")))
      all_strategies

(* ---- the paper's site-definition query, end to end ---- *)

let site_cases =
  List.map
    (fun (sname, strategy) ->
      t
        (Printf.sprintf "paper-example site graph is bit-identical (%s)" sname)
        (fun () ->
          let q = Parser.parse Sites.Paper_example.site_query in
          let options = { Eval.default_options with strategy } in
          let eager = Oracle.run ~options (Sites.Paper_example.data ()) q in
          let streaming, prof =
            Exec.run_with_profile ~options (Sites.Paper_example.data ()) q
          in
          check_bool "identical site graphs" true
            (graphs_agree eager streaming);
          check_bool "profile covers nested blocks" true
            (List.exists
               (fun (b : Exec.block_profile) ->
                 String.contains b.Exec.bpr_path '.')
               prof.Exec.prf_blocks)))
    all_strategies
  @ [
      t "into = data graph falls back to materialized construction" (fun () ->
          List.iter
            (fun (_, strategy) ->
              let eager, streaming = both_runs ~into_self:() simple_query strategy in
              check_bool "identical self-mutated graphs" true
                (graphs_agree eager streaming))
            all_strategies);
      t "run_string parses and evaluates" (fun () ->
          let g = small_data () in
          let out = Exec.run_string g simple_query in
          check_int "three pages" 3
            (List.length (Graph.collection out "Out")));
    ]

(* ---- the bound-target edge probe: the label-extent scan's rows ---- *)

(* Atomic values drawn so coercing-equal pairs across kinds are common:
   numbers as ints, floats (with -0. and nan) and padded numeric
   strings, bools and their strings, URLs, files of two kinds. *)
let atomic_gen =
  let open QCheck.Gen in
  oneof
    [
      return Value.Null;
      map (fun b -> Value.Bool b) bool;
      map (fun i -> Value.Int i) (int_range (-3) 3);
      oneofl
        Value.
          [
            Float 0.; Float (-0.); Float Float.nan; Float 1.; Float 2.5;
            Float Float.infinity;
          ];
      oneofl Value.[ Float Float.nan; String "nan"; String " NaN" ];
      map3
        (fun pre i post -> Value.String (pre ^ string_of_int i ^ post))
        (oneofl [ ""; " " ]) (int_range (-3) 3) (oneofl [ ""; " "; ".0"; "x" ]);
      oneofl
        Value.
          [
            String "2.5"; String "-0"; String "nan"; String "inf"; String "abc";
            String ""; String "true"; String " false "; String "True";
            String "0x1"; String "1e0";
          ];
      oneofl Value.[ Url "1"; Url " 2.5"; Url "http://a"; Url "abc" ];
      oneofl
        Value.
          [
            File (Text, "a.txt");
            File (Image, "a.txt");
            File (Postscript, "b.ps");
          ];
    ]

let atomic_arb = QCheck.make ~print:Value.to_string atomic_gen

(* A random graph over five nodes and two labels, grown by edge adds,
   thinned by removals, with out-buckets reset (removed and re-added,
   so they move to the end of every index bucket). *)
type gop = G_add of int * int * int | G_remove of int | G_reset of int

let n_nodes = 5

let values =
  Value.
    [
      Int 1; Int 2; String "1"; String " 2"; String "x"; Float 1.; Bool true;
      String "true"; Null; Url "x";
    ]

let gop_gen =
  let open QCheck.Gen in
  frequency
    [
      ( 5,
        map3
          (fun s l t -> G_add (s, l, t))
          (int_bound (n_nodes - 1)) (int_bound 1)
          (int_bound (n_nodes + List.length values - 1)) );
      (2, map (fun k -> G_remove k) (int_bound 40));
      (1, map (fun s -> G_reset s) (int_bound (n_nodes - 1)));
    ]

let labels = [| "a"; "b" |]

let target nodes i =
  if i < n_nodes then Graph.N nodes.(i)
  else Graph.V (List.nth values (i - n_nodes))

let apply_gop g nodes = function
  | G_add (s, l, t) -> Graph.add_edge g nodes.(s) labels.(l) (target nodes t)
  | G_remove k -> (
    match Graph.fold_edges (fun s l t acc -> (s, l, t) :: acc) g [] with
    | [] -> ()
    | es ->
      let s, l, t = List.nth es (k mod List.length es) in
      Graph.remove_edge g s l t)
  | G_reset s ->
    let o = nodes.(s) in
    Graph.set_out_edges g o (Graph.out_edges g o)

(* One edge step whose target is bound, in three shapes: constant label
   with rows binding the target, a runtime label variable, and a
   constant target; the probe operator ([Exec.stepper]) must give
   [Eval.exec_step]'s rows row by row, before and after one more
   mutation (which moves the graph's generation under the same
   operator). *)
let probe_equals_scan (ops, more, picks) =
  let g = Graph.create () in
  let nodes =
    Array.init n_nodes (fun i -> Oid.fresh (Printf.sprintf "n%d" i))
  in
  List.iter (apply_gop g nodes) ops;
  let reg = Builtins.default in
  let env bs =
    List.fold_left (fun e (v, b) -> Eval.Env.add v b e) Eval.Env.empty bs
  in
  let tgt i = Eval.B_target (target nodes i) in
  let value v = Eval.B_target (Graph.V v) in
  let cases =
    [
      ( [ "y" ],
        Plan.CC_edge (Ast.T_var "x", Ast.L_const "a", Ast.T_var "y"),
        List.map (fun i -> env [ ("y", tgt i) ]) picks
        @ [ env [ ("y", Eval.B_label "1") ] ] );
      ( [ "l"; "y" ],
        Plan.CC_edge (Ast.T_var "x", Ast.L_var "l", Ast.T_var "y"),
        List.concat_map
          (fun i ->
            [
              env [ ("l", Eval.B_label "a"); ("y", tgt i) ];
              env [ ("l", value (Value.String "b")); ("y", tgt i) ];
              env [ ("l", value (Value.Int 1)); ("y", tgt i) ];
            ])
          picks );
      ( [],
        Plan.CC_edge
          (Ast.T_var "x", Ast.L_const "b", Ast.T_const (Value.String "1")),
        [ Eval.Env.empty; Eval.Env.empty ] );
    ]
  in
  let show rows =
    List.map
      (fun e ->
        List.map
          (fun (v, b) ->
            v ^ "="
            ^
            match b with
            | Eval.B_target tg -> Fmt.str "%a" Graph.pp_target tg
            | Eval.B_label l -> "label " ^ l)
          (Eval.Env.bindings e))
      rows
  in
  List.for_all
    (fun (bound, c, envs) ->
      let step = Plan.Exec c in
      let probe = Exec.stepper g reg ~bound [ step ] in
      let scan () =
        List.concat_map (fun e -> Eval.exec_step g reg e step) envs
      in
      let before = show (probe envs) = show (scan ()) in
      List.iter (apply_gop g nodes) more;
      before && show (probe envs) = show (scan ()))
    cases

let probe_cases =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:2000
         ~name:"coerce_equal values share a probe key"
         (QCheck.pair atomic_arb atomic_arb)
         (fun (v, w) ->
           (* keys meet as a hash table compares them: [nan] meets
              [nan] *)
           let meets k k' = compare k k' = 0 in
           (not (Value.coerce_equal v w))
           || List.exists
                (fun k -> List.exists (meets k) (Value.coerce_keys w))
                (Value.coerce_keys v)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300
         ~name:"bound-target probe rows equal the label-extent scan's"
         (QCheck.make
            QCheck.Gen.(
              triple
                (list_size (int_range 5 40) gop_gen)
                (list_size (int_range 1 3) gop_gen)
                (list_size (int_range 1 6)
                   (int_bound (n_nodes + List.length values - 1)))))
         probe_equals_scan);
    t "explain names the probe access path" (fun () ->
        let g = small_data () in
        let s =
          Exec.explain g
            (Parser.parse
               {|WHERE x -> "k" -> 2 CREATE F(x) COLLECT Out(F(x)) OUTPUT R|})
        in
        check_bool "probe named" true (contains s "hash probe on target"));
  ]

let suite =
  equivalence_cases @ stats_cases @ explain_cases @ site_cases @ probe_cases
