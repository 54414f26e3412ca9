open Sgraph
open Struql

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk_data n =
  let g = Graph.create ~name:"d" () in
  for i = 0 to n - 1 do
    let o = Graph.new_node g (Printf.sprintf "o%d" i) in
    Graph.add_to_collection g "C" o;
    if i mod 10 = 0 then Graph.add_to_collection g "Small" o;
    Graph.add_edge g o "a" (Graph.V (Value.Int (i mod 5)));
    Graph.add_edge g o "rare" (Graph.V (Value.Int i))
  done;
  g

let plan_for ?(strategy = Plan.Heuristic) ?(bound = []) ?(needed_obj = [])
    ?(needed_label = []) g src =
  Plan.plan ~strategy ~registry:Builtins.default g ~bound ~needed_obj
    ~needed_label
    (Parser.parse_conditions src)

(* every step must be executable given what previous steps bound; the
   universe is everything the plan will ever bind (negated variables
   outside it are existential) *)
let well_ordered bound0 steps =
  let universe =
    List.fold_left
      (fun u s -> List.fold_left (fun u v -> Plan.VSet.add v u) u (Plan.step_binds s))
      (List.fold_left (fun b v -> Plan.VSet.add v b) Plan.VSet.empty bound0)
      steps
  in
  let rec go bound = function
    | [] -> true
    | s :: rest ->
      let ok =
        match s with
        | Plan.Exec c -> Plan.executable ~universe bound c
        | Plan.Domain_obj _ | Plan.Domain_label _ -> true
      in
      ok
      && go
           (List.fold_left (fun b v -> Plan.VSet.add v b) bound
              (Plan.step_binds s))
           rest
  in
  go (List.fold_left (fun b v -> Plan.VSet.add v b) Plan.VSet.empty bound0) steps

let strategies = [ Plan.Naive; Plan.Heuristic; Plan.Cost_based ]

let suite =
  [
    t "all strategies produce well-ordered plans" (fun () ->
        let g = mk_data 50 in
        let srcs =
          [
            {|C(x), x -> "a" -> v, v = 3|};
            {|x -> "a" -> v, C(x), not(isNull(v))|};
            {|C(x), x -> l -> v, l = "rare", Small(x)|};
            {|not(p -> l -> q)|};
            {|C(x), x -> * -> y|};
          ]
        in
        List.iter
          (fun src ->
            List.iter
              (fun strategy ->
                let steps = plan_for ~strategy g src in
                check_bool ("ordered: " ^ src) true (well_ordered [] steps))
              strategies)
          srcs);
    t "filters are not scheduled before their variables bind" (fun () ->
        let g = mk_data 50 in
        (* textual order puts the filter first; every planner must move it *)
        let steps = plan_for ~strategy:Plan.Naive g {|v = 3, C(x), x -> "a" -> v|} in
        check_bool "naive reorders" true (well_ordered [] steps));
    t "domain steps inserted for unbindable variables" (fun () ->
        let g = mk_data 10 in
        let steps = plan_for g ~needed_obj:[ "p"; "q" ] ~needed_label:[ "l" ]
            {|not(p -> l -> q)|} in
        let domains =
          List.filter
            (function Plan.Domain_obj _ | Plan.Domain_label _ -> true
                    | Plan.Exec _ -> false)
            steps
        in
        check_int "3 domain steps" 3 (List.length domains);
        check_bool "label var gets label domain" true
          (List.exists (function Plan.Domain_label "l" -> true | _ -> false) steps));
    t "no domain steps when conditions bind everything" (fun () ->
        let g = mk_data 10 in
        let steps = plan_for g ~needed_obj:[ "x"; "v" ] {|C(x), x -> "a" -> v|} in
        check_bool "no domains" true
          (List.for_all (function Plan.Exec _ -> true | _ -> false) steps));
    t "heuristic prefers the small collection first" (fun () ->
        let g = mk_data 100 in
        let steps = plan_for ~strategy:Plan.Heuristic g {|C(x), Small(x)|} in
        match steps with
        | Plan.Exec (Plan.CC_coll ("Small", _)) :: _ -> ()
        | _ -> Alcotest.fail "expected Small first");
    t "cost-based agrees on result with heuristic (crafted join)" (fun () ->
        let g = mk_data 200 in
        let conds = {|C(x), x -> "a" -> v, Small(y), y -> "a" -> v|} in
        let run strategy =
          Exec.bindings
            ~options:{ Eval.default_options with strategy }
            g
            (Parser.parse_conditions conds)
          |> List.length
        in
        check_int "same cardinality" (run Plan.Heuristic) (run Plan.Cost_based);
        check_int "naive too" (run Plan.Heuristic) (run Plan.Naive));
    t "atom resolution: extern vs collection" (fun () ->
        let g = mk_data 5 in
        let steps = plan_for g {|C(x), isNull(x)|} in
        let kinds =
          List.filter_map
            (function
              | Plan.Exec (Plan.CC_coll (n, _)) -> Some ("coll:" ^ n)
              | Plan.Exec (Plan.CC_extern (n, _)) -> Some ("ext:" ^ n)
              | _ -> None)
            steps
        in
        check_bool "both kinds" true
          (List.mem "coll:C" kinds && List.mem "ext:isNull" kinds));
    t "atom with wrong arity rejected at plan time" (fun () ->
        let g = mk_data 5 in
        check_bool "raises" true
          (try ignore (plan_for g "Collection(x, y)"); false
           with Plan.Plan_error _ -> true));
    t "cost-based handles >14 conditions via fallback" (fun () ->
        let g = mk_data 20 in
        let conds =
          String.concat ", "
            (List.init 16 (fun i -> Printf.sprintf {|x%d -> "a" -> v%d|} i i))
        in
        let steps = plan_for ~strategy:Plan.Cost_based g conds in
        check_int "16 steps" 16 (List.length steps));
    t "limited access patterns: probe scheduled after its binder"
      (fun () ->
        let g = mk_data 20 in
        (* pretend collection C is a source that can only be probed with
           a bound object, e.g. a lookup-only Web service *)
        List.iter
          (fun strategy ->
            let steps =
              Plan.plan ~strategy ~limited:[ "Small" ]
                ~registry:Builtins.default g ~bound:[] ~needed_obj:[]
                ~needed_label:[]
                (Parser.parse_conditions {|Small(x), C(y), y -> "a" -> v, C(x)|})
            in
            (* the Small probe must come after something binding x *)
            let rec position i pred = function
              | [] -> -1
              | s :: rest -> if pred s then i else position (i + 1) pred rest
            in
            let probe_pos =
              position 0
                (function
                  | Plan.Exec (Plan.CC_coll ("Small", _)) -> true
                  | _ -> false)
                steps
            in
            let binder_pos =
              position 0
                (function
                  | Plan.Exec (Plan.CC_coll ("C", Ast.T_var "x")) -> true
                  | _ -> false)
                steps
            in
            check_bool "probe after binder" true (probe_pos > binder_pos))
          strategies);
    t "limited source with no binder has no plan" (fun () ->
        let g = mk_data 10 in
        check_bool "raises" true
          (try
             ignore
               (Plan.plan ~limited:[ "Small" ] ~registry:Builtins.default g
                  ~bound:[] ~needed_obj:[] ~needed_label:[]
                  (Parser.parse_conditions "Small(x)"));
             false
           with Plan.No_plan _ -> true));
    t "limited plan still evaluates correctly" (fun () ->
        let g = mk_data 50 in
        let conds = Parser.parse_conditions {|C(x), Small(x)|} in
        let steps =
          Plan.plan ~limited:[ "Small" ] ~registry:Builtins.default g
            ~bound:[] ~needed_obj:[] ~needed_label:[] conds
        in
        let envs =
          Exec.stepper g Builtins.default ~bound:[] steps [ Eval.Env.empty ]
        in
        check_int "5 members of Small" 5 (List.length envs));
    t "estimates are finite and positive for executable steps" (fun () ->
        let g = mk_data 50 in
        let st = Plan.stats_of_graph g in
        List.iter
          (fun c ->
            let fanout, work = Plan.estimate st Plan.VSet.empty c in
            check_bool "finite" true
              (Float.is_finite fanout && Float.is_finite work && fanout >= 0.
               && work >= 0.))
          (List.map (Plan.compile Builtins.default)
             (Parser.parse_conditions
                {|C(x), x -> "a" -> v, x -> l -> w, x -> * -> y|})));
  ]
