(* Printer/parser agreement over randomly generated query ASTs — the
   corpus round-trips in test_struql_parser cover the example sites;
   this covers the grammar space. *)

open Sgraph
open Struql

let var_pool = [| "x"; "y"; "z"; "v"; "w" |]
let label_var_pool = [| "l"; "m" |]
let coll_pool = [| "C"; "D"; "Items" |]
let fn_pool = [| "F"; "G"; "Page" |]
let label_pool = [| "a"; "b"; "year"; "Weird Label" |]

let gen_value =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Value.Int i) (int_range (-20) 20);
        map (fun s -> Value.String s)
          (string_size ~gen:(char_range 'a' 'z') (int_range 0 5));
        return (Value.Bool true);
        return Value.Null;
      ])

let gen_where_term =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun v -> Ast.T_var v) (oneofa var_pool));
        (1, map (fun c -> Ast.T_const c) gen_value);
      ])

let gen_label_term =
  QCheck.Gen.(
    oneof
      [
        map (fun v -> Ast.L_var v) (oneofa label_var_pool);
        map (fun l -> Ast.L_const l) (oneofa label_pool);
      ])

let gen_rpe =
  let open QCheck.Gen in
  let atom =
    oneof
      [
        map (fun l -> Path.Edge (Path.Label l)) (oneofa label_pool);
        return (Path.Edge Path.Any);
        return
          (Path.Edge
             (Path.Named_pred
                ( "isName",
                  Option.get (Builtins.find_label_pred Builtins.default "isName")
                )));
      ]
  in
  let rec gen d =
    if d = 0 then atom
    else
      frequency
        [
          (3, atom);
          (1, map2 (fun a b -> Path.Seq (a, b)) (gen (d - 1)) (gen (d - 1)));
          (1, map2 (fun a b -> Path.Alt (a, b)) (gen (d - 1)) (gen (d - 1)));
          (1, map (fun a -> Path.Star a) (gen (d - 1)));
          (1, map (fun a -> Path.Plus a) (gen (d - 1)));
          (1, map (fun a -> Path.Opt a) (gen (d - 1)));
        ]
  in
  gen 2

(* A path condition whose expression is one literal label prints
   exactly like a single-edge condition (the parser always reads that
   form as C_edge), so normalize it to the canonical AST. *)
let rec normalize_cond = function
  | Ast.C_path (x, Path.Edge (Path.Label l), y) ->
    Ast.C_edge (x, Ast.L_const l, y)
  | Ast.C_not c -> Ast.C_not (normalize_cond c)
  | c -> c

let gen_condition =
  let open QCheck.Gen in
  let rec gen d =
    frequency
      ([
         (2, map2 (fun c t -> Ast.C_atom (c, [ t ])) (oneofa coll_pool)
               gen_where_term);
         (3,
          map3 (fun x l y -> Ast.C_edge (x, l, y)) gen_where_term
            gen_label_term gen_where_term);
         (2,
          map3 (fun x r y -> Ast.C_path (x, r, y)) gen_where_term gen_rpe
            gen_where_term);
         (2,
          map3 (fun op a b -> Ast.C_cmp (op, a, b))
            (oneofl [ Ast.Eq; Ast.Ne; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ])
            gen_where_term gen_where_term);
         (1,
          map2 (fun t vs -> Ast.C_in (t, vs)) gen_where_term
            (list_size (int_range 1 3) gen_value));
       ]
      @ if d > 0 then [ (1, map (fun c -> Ast.C_not c) (gen (d - 1))) ] else [])
  in
  QCheck.Gen.map normalize_cond (gen 1)

let gen_cons_term =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun v -> Ast.T_var v) (oneofa var_pool));
        (1, map (fun c -> Ast.T_const c) gen_value);
      ])

let gen_skolem =
  QCheck.Gen.(
    map2
      (fun f args -> (f, args))
      (oneofa fn_pool)
      (list_size (int_range 0 2) gen_cons_term))

let gen_link created =
  QCheck.Gen.(
    let* f, args = oneofl created in
    let* l = gen_label_term in
    let* target =
      frequency
        [
          (2, gen_cons_term);
          (1, map (fun (g, a) -> Ast.T_skolem (g, a)) (oneofl created));
          (1,
           map2 (fun fn t -> Ast.T_agg (fn, t))
             (oneofl [ Ast.Count; Ast.Sum; Ast.Min; Ast.Max; Ast.Avg ])
             gen_cons_term);
        ]
    in
    return (Ast.T_skolem (f, args), l, target))

let gen_block =
  let open QCheck.Gen in
  let rec gen depth =
    let* where = list_size (int_range 0 3) gen_condition in
    let* created = list_size (int_range 1 2) gen_skolem in
    let* link = list_size (int_range 0 3) (gen_link created) in
    let* collect =
      list_size (int_range 0 2)
        (map2
           (fun c (f, args) -> (c, Ast.T_skolem (f, args)))
           (oneofa [| "Out"; "Pages" |])
           (oneofl created))
    in
    let* nested =
      if depth = 0 then return []
      else list_size (int_range 0 2) (gen (depth - 1))
    in
    return { Ast.where; create = created; link; collect; nested }
  in
  gen 1

let gen_query =
  QCheck.Gen.(
    let* blocks = list_size (int_range 1 3) gen_block in
    return { Ast.input = [ "IN" ]; blocks; output = "OUT" })

let arb_query =
  QCheck.make ~print:(fun q -> Pretty.to_string q) gen_query

(* Evaluation enumerates the active domain for every variable the
   conditions leave unbound — including CREATE/LINK/COLLECT variables,
   which the planner backs with Domain_obj/Domain_label enumerators —
   so a block whose (conjoined) scope holds k distinct variables can
   cost |domain|^k; skip the rare random queries where that blow-up
   would stall (or OOM) the suite.  Counting only WHERE variables here
   is not enough: a block with no conditions but several construction
   variables enumerates the full domain product all the same. *)
let rec cond_vars acc = function
  | Ast.C_atom (_, ts) -> List.fold_left term_vars acc ts
  | Ast.C_edge (x, l, y) ->
    let acc = term_vars (term_vars acc x) y in
    (match l with Ast.L_var v -> v :: acc | Ast.L_const _ -> acc)
  | Ast.C_path (x, _, y) -> term_vars (term_vars acc x) y
  | Ast.C_cmp (_, a, b) -> term_vars (term_vars acc a) b
  | Ast.C_in (t, _) -> term_vars acc t
  | Ast.C_not c -> cond_vars acc c

and term_vars acc = function
  | Ast.T_var v -> v :: acc
  | Ast.T_const _ -> acc
  | Ast.T_skolem (_, args) -> List.fold_left term_vars acc args
  | Ast.T_agg (_, t) -> term_vars acc t

let construction_vars acc (b : Ast.block) =
  let acc =
    List.fold_left
      (fun acc (_, args) -> List.fold_left term_vars acc args)
      acc b.Ast.create
  in
  let acc =
    List.fold_left
      (fun acc (src, l, tgt) ->
        let acc = term_vars (term_vars acc src) tgt in
        match l with Ast.L_var v -> v :: acc | Ast.L_const _ -> acc)
      acc b.Ast.link
  in
  List.fold_left (fun acc (_, t) -> term_vars acc t) acc b.Ast.collect

let rec widest_scope inherited (b : Ast.block) =
  let scope =
    Ast.dedup
      (construction_vars
         (List.fold_left cond_vars inherited b.Ast.where)
         b)
  in
  List.fold_left
    (fun m nb -> max m (widest_scope scope nb))
    (List.length scope) b.Ast.nested

let tractable (q : Ast.query) =
  List.for_all (fun b -> widest_scope [] b <= 3) q.Ast.blocks

(* The queries the strategy property below once drew with a
   disagreement, fixed: each binds a variable to an object before or
   after an [in] over values holding [null], and the planners order the
   two differently.  Every plan must build the same graph, compared
   here by content (plans may construct in different orders). *)
let strategy_regressions =
  [
    ( "seed 447111405",
      {|INPUT IN
{ WHERE w in {true, null, null}, x -> (isName? | isName) -> w,
    y -> isName -> w
  CREATE Page(w, y) COLLECT Pages(Page(w, y)) }
OUTPUT OUT|} );
    ( "seed 358433785",
      {|INPUT IN
{ WHERE v in {null, null, true}, z -> *? -> v
  CREATE F(), Page(null) LINK F() -> m -> null COLLECT Out(Page(null)) }
OUTPUT OUT|} );
    ( "seed 358720209",
      {|INPUT IN
{ WHERE v -> isName* -> y, not(D(null)), y in {null, null, true}
  CREATE G() LINK G() -> m -> y, G() -> m -> G() COLLECT Pages(G())
  { WHERE D(y), v < "da" CREATE Page(v) COLLECT Pages(Page(v)) } }
OUTPUT OUT|} );
    ( "an unbound construction variable",
      {|INPUT IN
{ WHERE v -> (true | isName?) -> w, w in {"kdk", null}
  CREATE Page(y, null) COLLECT Out(Page(y, null)) }
OUTPUT OUT|} );
  ]

(* a built graph's content, order aside: node names, edges and
   memberships by name, each sorted *)
let content g =
  let n = Oid.name in
  let tgt = function
    | Graph.N o -> "&" ^ n o
    | Graph.V v -> Value.to_string v
  in
  ( List.sort compare (List.map n (Graph.nodes g)),
    List.sort compare
      (Graph.fold_edges (fun s l t acc -> (n s, l, tgt t) :: acc) g []),
    List.sort compare
      (List.concat_map
         (fun c -> List.map (fun o -> (c, n o)) (Graph.collection g c))
         (Graph.collections g)) )

let regression_cases =
  List.map
    (fun (name, src) ->
      Alcotest.test_case ("all strategies agree: " ^ name) `Quick (fun () ->
          let q = Parser.parse src in
          let data = Wrappers.Synth.news_graph ~articles:6 () in
          let built strategy =
            content
              (Exec.run ~options:{ Eval.default_options with strategy } data q)
          in
          let naive = built Plan.Naive in
          List.iter
            (fun (what, s) ->
              Alcotest.(check bool) (what ^ " = naive") true (built s = naive))
            [ ("heuristic", Plan.Heuristic); ("cost-based", Plan.Cost_based) ]))
    strategy_regressions

let suite =
  regression_cases
  @ [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"pretty/parse fixpoint on random ASTs"
         ~count:500 arb_query (fun q ->
           let printed = Pretty.to_string q in
           let q' = Parser.parse printed in
           Pretty.query_equal q q' && Pretty.to_string q' = printed));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"random queries evaluate identically under all strategies"
         ~count:150 arb_query (fun q ->
           (* evaluation needs validity; random links always originate at
              created skolems so checks can only fail on arity clashes *)
           if not (tractable q) then true (* skip intractable *)
           else
           match Check.check q with
           | { errors = _ :: _; _ } -> true (* skip invalid *)
           | _ ->
             let data = Wrappers.Synth.news_graph ~articles:6 () in
             (* give the query something to match: rename collections *)
             let census strategy =
               let out =
                 Exec.run
                   ~options:{ Eval.default_options with strategy }
                   data q
               in
               ( Graph.node_count out,
                 Graph.edge_count out,
                 List.sort compare
                   (List.map
                      (fun l -> (l, Graph.label_count out l))
                      (Graph.labels out)) )
             in
             census Plan.Naive = census Plan.Heuristic
             && census Plan.Heuristic = census Plan.Cost_based));
  ]
