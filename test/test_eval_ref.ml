(* An independent brute-force reference for the WHERE-stage semantics:
   enumerate all assignments of the query's free variables over the
   active domain and keep those satisfying every condition.  Negated
   variables that occur nowhere else are existential inside the [not]
   and checked by brute-force extension.  The planner-driven evaluator
   must agree exactly. *)

open Sgraph
open Struql

let t name f = Alcotest.test_case name `Quick f

(* ---- the reference ---- *)

type rbind = R_obj of Graph.target | R_lab of string

let rbind_key = function
  | R_obj (Graph.N o) -> "N" ^ string_of_int (Oid.id o)
  | R_obj (Graph.V v) -> "V" ^ Value.to_string v
  | R_lab l -> "L" ^ l

(* variables and whether they occur in a label position *)
let rec cond_vars_kinds acc = function
  | Ast.C_atom (_, ts) -> List.fold_left term_vars_k acc ts
  | Ast.C_edge (x, l, y) ->
    let acc = term_vars_k (term_vars_k acc x) y in
    (match l with Ast.L_var v -> (v, `Lab) :: acc | Ast.L_const _ -> acc)
  | Ast.C_path (x, _, y) -> term_vars_k (term_vars_k acc x) y
  | Ast.C_cmp (_, a, b) -> term_vars_any (term_vars_any acc a) b
  | Ast.C_in (te, _) -> term_vars_any acc te
  | Ast.C_not c -> cond_vars_kinds acc c

and term_vars_k acc = function
  | Ast.T_var v -> (v, `Obj) :: acc
  | Ast.T_const _ -> acc
  | Ast.T_skolem _ | Ast.T_agg _ -> acc

(* comparison and membership operands are kind-neutral: they accept
   both labels and objects *)
and term_vars_any acc = function
  | Ast.T_var v -> (v, `Any) :: acc
  | Ast.T_const _ -> acc
  | Ast.T_skolem _ | Ast.T_agg _ -> acc

let positive_free_vars conds =
  Ast.dedup
    (List.concat_map
       (fun c ->
         match c with
         | Ast.C_not _ -> []
         | c -> List.map fst (cond_vars_kinds [] c))
       conds)

let term_val env = function
  | Ast.T_var v -> List.assoc_opt v env
  | Ast.T_const c -> Some (R_obj (Graph.V c))
  | Ast.T_skolem _ | Ast.T_agg _ -> None

let as_value = function
  | R_obj (Graph.V v) -> Some v
  | R_lab l -> Some (Value.String l)
  | R_obj (Graph.N _) -> None

(* satisfaction of one condition under a (possibly partial) assignment;
   unassigned variables in a negation are handled by extension *)
let rec satisfies g reg env (c : Ast.condition) : bool =
  match c with
  | Ast.C_atom (name, ts) ->
    if Builtins.is_extern reg name then
      let args =
        List.map
          (fun te ->
            match term_val env te with
            | Some (R_obj tg) -> tg
            | Some (R_lab l) -> Graph.V (Value.String l)
            | None -> Graph.V Value.Null)
          ts
      in
      (match Builtins.find_extern reg name with
       | Some f -> f g args
       | None -> false)
    else (
      match ts with
      | [ te ] -> (
          match term_val env te with
          | Some (R_obj (Graph.N o)) -> Graph.in_collection g name o
          | _ -> false)
      | _ -> false)
  | Ast.C_edge (x, l, y) -> (
      match term_val env x, term_val env y with
      | Some (R_obj (Graph.N o)), Some ytgt ->
        List.exists
          (fun (l', tgt) ->
            (match l with
             | Ast.L_const c -> l' = c
             | Ast.L_var v -> (
                 match List.assoc_opt v env with
                 | Some (R_lab lab) -> lab = l'
                 | _ -> false))
            &&
            (match ytgt with
             | R_obj yt -> (
                 Graph.target_equal tgt yt
                 ||
                 match tgt, yt with
                 | Graph.V a, Graph.V b -> Value.coerce_equal a b
                 | _ -> false)
             | R_lab lab -> (
                 match tgt with
                 | Graph.V v -> Value.coerce_equal v (Value.String lab)
                 | Graph.N _ -> false)))
          (Graph.out_edges g o)
      | _ -> false)
  | Ast.C_path (x, r, y) -> (
      match term_val env x, term_val env y with
      | Some (R_obj xt), Some (R_obj yt) ->
        (* use the fixpoint reference semantics, not the NFA *)
        List.exists
          (fun (a, b) -> Graph.target_equal a xt && Graph.target_equal b yt)
          (Path.eval_ref g r)
      | _ -> false)
  | Ast.C_cmp (op, a, b) -> (
      match term_val env a, term_val env b with
      | Some ra, Some rb -> (
          match ra, rb with
          | R_obj (Graph.N o1), R_obj (Graph.N o2) -> (
              match op with
              | Ast.Eq -> Oid.equal o1 o2
              | Ast.Ne -> not (Oid.equal o1 o2)
              | _ -> false)
          | _ -> (
              match as_value ra, as_value rb with
              | Some v1, Some v2 -> (
                  match op, Value.coerce_compare v1 v2 with
                  | Ast.Eq, Some 0 -> true
                  | Ast.Eq, _ -> false
                  | Ast.Ne, Some 0 -> false
                  | Ast.Ne, _ -> true
                  | Ast.Lt, Some c -> c < 0
                  | Ast.Le, Some c -> c <= 0
                  | Ast.Gt, Some c -> c > 0
                  | Ast.Ge, Some c -> c >= 0
                  | _, None -> false)
              | _ ->
                (* node vs value *)
                op = Ast.Ne))
      | _ -> false)
  | Ast.C_in (te, vs) -> (
      match term_val env te with
      | Some r -> (
          match as_value r with
          | Some v -> List.exists (Value.coerce_equal v) vs
          | None -> false)
      | None -> false)
  | Ast.C_not inner ->
    (* no extension of env over inner's unassigned vars satisfies it *)
    let inner_vars =
      Ast.dedup (List.map fst (cond_vars_kinds [] inner))
    in
    let unassigned =
      List.filter (fun v -> not (List.mem_assoc v env)) inner_vars
    in
    let kinds = cond_vars_kinds [] inner in
    let domain_for v =
      if List.mem (v, `Lab) kinds then
        List.map (fun l -> R_lab l) (Graph.labels g)
      else List.map (fun o -> R_obj o) (Path.all_objects g)
    in
    let rec exists_ext env = function
      | [] -> satisfies g reg env inner
      | v :: rest ->
        List.exists (fun b -> exists_ext ((v, b) :: env) rest) (domain_for v)
    in
    not (exists_ext env unassigned)

let reference_rows g reg conds =
  let kinds =
    List.concat_map
      (fun c -> match c with Ast.C_not _ -> [] | c -> cond_vars_kinds [] c)
      conds
  in
  let free = positive_free_vars conds in
  let domain_for v =
    if List.mem (v, `Lab) kinds then
      List.map (fun l -> R_lab l) (Graph.labels g)
    else List.map (fun o -> R_obj o) (Path.all_objects g)
  in
  let rec enum env = function
    | [] ->
      if List.for_all (satisfies g reg env) conds then [ env ] else []
    | v :: rest ->
      List.concat_map (fun b -> enum ((v, b) :: env) rest) (domain_for v)
  in
  enum [] free
  |> List.map (fun env ->
      List.sort compare (List.map (fun (v, b) -> (v, rbind_key b)) env))
  |> List.sort compare

let rows_via bindings g reg conds =
  let free = positive_free_vars conds in
  let kinds =
    List.concat_map
      (fun c -> match c with Ast.C_not _ -> [] | c -> cond_vars_kinds [] c)
      conds
  in
  let is_label v = List.mem (v, `Lab) kinds in
  bindings ~options:{ Eval.default_options with registry = reg } g conds
  |> List.map (fun env ->
      List.filter_map
        (fun v ->
          match Eval.Env.find_opt v env with
          (* an arc variable bound through an equality carries a string
             value; normalize it to its label form *)
          | Some (Eval.B_target (Graph.V (Value.String s))) when is_label v ->
            Some (v, rbind_key (R_lab s))
          | Some (Eval.B_target tg) -> Some (v, rbind_key (R_obj tg))
          | Some (Eval.B_label l) -> Some (v, rbind_key (R_lab l))
          | None -> None)
        free
      |> List.sort compare)
  |> List.sort_uniq compare

(* the planner-driven naive evaluator (the suite's oracle) *)
let planner_rows g reg conds =
  rows_via
    (fun ~options g conds -> Oracle.bindings ~options g conds)
    g reg conds

(* the same relation through the streaming operator pipeline *)
let streaming_rows g reg conds =
  rows_via (fun ~options g conds -> Exec.bindings ~options g conds) g reg conds

(* ---- exact (order-sensitive) agreement between the two engines ---- *)

let binding_eq a b =
  match a, b with
  | Eval.B_target x, Eval.B_target y -> Graph.target_equal x y
  | Eval.B_label x, Eval.B_label y -> String.equal x y
  | _ -> false

let env_eq = Eval.Env.equal binding_eq

let envs_eq a b =
  List.length a = List.length b && List.for_all2 env_eq a b

(* ---- random inputs ---- *)

let data_gen =
  let open QCheck.Gen in
  let* n = int_range 1 5 in
  let* edges =
    list_size (int_range 0 10)
      (triple (int_bound (n - 1))
         (oneofl [ "a"; "b" ])
         (oneof
            [ map (fun i -> `I i) (int_bound 2);
              map (fun j -> `N j) (int_bound (n - 1)) ]))
  in
  let* members = list_size (int_range 0 n) (int_bound (n - 1)) in
  return (n, edges, members)

let build_data (n, edges, members) =
  let g = Graph.create ~name:"ref" () in
  let nodes = Array.init n (fun i -> Oid.fresh (Printf.sprintf "n%d" i)) in
  Array.iter (Graph.add_node g) nodes;
  List.iter
    (fun (a, l, tgt) ->
      match tgt with
      | `I v -> Graph.add_edge g nodes.(a) l (Graph.V (Value.Int v))
      | `N j -> Graph.add_edge g nodes.(a) l (Graph.N nodes.(j)))
    edges;
  List.iter (fun i -> Graph.add_to_collection g "C" nodes.(i)) members;
  g

let cond_pool =
  [
    {|C(x)|};
    {|x -> "a" -> y|};
    {|x -> l -> y|};
    {|C(x), x -> "a" -> y|};
    {|C(x), x -> l -> v, v = 1|};
    {|x -> "a" -> y, y -> "b" -> z|};
    {|C(x), not(x -> "b" -> w)|};
    {|C(x), x -> "a" -> y, not(y -> "a" -> x)|};
    {|x -> "a"|"b" -> y|};
    {|C(x), x -> * -> y|};
    {|x -> "a" -> v, v in {0, 1}|};
    {|C(x), C(y), x != y|};
    {|x -> l -> v, l = "b"|};
    {|C(x), isAtomic(x)|};
    {|C(x), x -> "a" -> v, isInt(v)|};
  ]

let agree (spec, qi) =
  let g = build_data spec in
  let conds = Parser.parse_conditions (List.nth cond_pool qi) in
  let reg = Builtins.default in
  let reference = reference_rows g reg conds in
  reference = planner_rows g reg conds
  && reference = streaming_rows g reg conds

(* the streaming pipeline must produce not just the same relation but
   the same rows in the same order as the eager evaluator, under every
   strategy — the construction stage depends on it for oid fidelity *)
let exact_agree (spec, qi) =
  let g = build_data spec in
  let conds = Parser.parse_conditions (List.nth cond_pool qi) in
  List.for_all
    (fun strategy ->
      let options = { Eval.default_options with strategy } in
      envs_eq
        (Oracle.bindings ~options g conds)
        (Exec.bindings ~options g conds))
    [ Plan.Naive; Plan.Heuristic; Plan.Cost_based ]

let suite =
  List.mapi
    (fun i src ->
      t (Printf.sprintf "fixed case %d: %s" i src) (fun () ->
          let g =
            build_data
              (4, [ (0, "a", `N 1); (1, "b", `N 2); (0, "a", `I 1);
                    (2, "a", `I 0); (3, "b", `N 0) ],
               [ 0; 2; 3 ])
          in
          let conds = Parser.parse_conditions src in
          let reg = Builtins.default in
          Alcotest.(check bool)
            "reference = planner" true
            (reference_rows g reg conds = planner_rows g reg conds)))
    cond_pool
  @ [
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make
           ~name:"planner evaluation matches brute-force reference"
           ~count:300
           (QCheck.make
              ~print:(fun (_, qi) -> List.nth cond_pool qi)
              QCheck.Gen.(pair data_gen (int_bound (List.length cond_pool - 1))))
           agree);
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make
           ~name:
             "streaming engine matches eager engine row-for-row (all \
              strategies)"
           ~count:300
           (QCheck.make
              ~print:(fun (_, qi) -> List.nth cond_pool qi)
              QCheck.Gen.(pair data_gen (int_bound (List.length cond_pool - 1))))
           exact_agree);
    ]
