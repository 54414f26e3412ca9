(** Pretty-printer for StruQL.  Output re-parses to the same query
    ([Parser.parse (to_string q)] is structurally equal to [q], with
    label predicates compared by name). *)

open Sgraph

let pp_value = Value.pp

let rec pp_term ppf = function
  | Ast.T_var v -> Fmt.string ppf v
  | Ast.T_const c -> pp_value ppf c
  | Ast.T_skolem (f, args) ->
    Fmt.pf ppf "%s(%a)" f Fmt.(list ~sep:(any ", ") pp_term) args
  | Ast.T_agg (fn, t) -> Fmt.pf ppf "%s(%a)" (Ast.agg_name fn) pp_term t

let pp_label_term ppf = function
  | Ast.L_var v -> Fmt.string ppf v
  | Ast.L_const s -> Fmt.pf ppf "%S" s

let pp_cmp_op ppf op =
  Fmt.string ppf
    (match op with
     | Ast.Eq -> "="
     | Ast.Ne -> "!="
     | Ast.Lt -> "<"
     | Ast.Le -> "<="
     | Ast.Gt -> ">"
     | Ast.Ge -> ">=")

let rec pp_condition ppf = function
  | Ast.C_atom (name, args) ->
    Fmt.pf ppf "%s(%a)" name Fmt.(list ~sep:(any ", ") pp_term) args
  | Ast.C_edge (x, l, y) ->
    Fmt.pf ppf "%a -> %a -> %a" pp_term x pp_label_term l pp_term y
  | Ast.C_path (x, r, y) ->
    Fmt.pf ppf "%a -> %a -> %a" pp_term x Path.pp r pp_term y
  | Ast.C_cmp (op, a, b) ->
    Fmt.pf ppf "%a %a %a" pp_term a pp_cmp_op op pp_term b
  | Ast.C_in (t, vs) ->
    Fmt.pf ppf "%a in {%a}" pp_term t Fmt.(list ~sep:(any ", ") pp_value) vs
  | Ast.C_not c -> Fmt.pf ppf "not(%a)" pp_condition c

let pp_link ppf (x, l, y) =
  Fmt.pf ppf "%a -> %a -> %a" pp_term x pp_label_term l pp_term y

let pp_create ppf (f, args) = pp_term ppf (Ast.T_skolem (f, args))
let pp_collect ppf (c, t) = Fmt.pf ppf "%s(%a)" c pp_term t

let rec pp_block ?(indent = 0) ppf (b : Ast.block) =
  let pad = String.make indent ' ' in
  let section kw pp_item items =
    if items <> [] then
      Fmt.pf ppf "%s%s %a@\n" pad kw
        (Fmt.list
           ~sep:(fun ppf () -> Fmt.pf ppf ",@\n%s  " pad)
           pp_item)
        items
  in
  section "WHERE" pp_condition b.where;
  section "CREATE" pp_create b.create;
  section "LINK" pp_link b.link;
  section "COLLECT" pp_collect b.collect;
  List.iter
    (fun nested ->
      Fmt.pf ppf "%s{@\n%a%s}@\n" pad (pp_block ~indent:(indent + 2)) nested
        pad)
    b.nested

let pp_query ppf (q : Ast.query) =
  Fmt.pf ppf "INPUT %s@\n" (String.concat ", " q.input);
  List.iter (fun b -> Fmt.pf ppf "{@\n%a}@\n" (pp_block ~indent:2) b) q.blocks;
  Fmt.pf ppf "OUTPUT %s@\n" q.output

let to_string q = Fmt.str "%a" pp_query q

(* --- Structural equality, label predicates by name --- *)

let rec rpe_equal a b =
  match a, b with
  | Path.Epsilon, Path.Epsilon -> true
  | Path.Edge p, Path.Edge q -> pred_equal p q
  | Path.Seq (a1, a2), Path.Seq (b1, b2)
  | Path.Alt (a1, a2), Path.Alt (b1, b2) ->
    rpe_equal a1 b1 && rpe_equal a2 b2
  | Path.Star a, Path.Star b | Path.Plus a, Path.Plus b
  | Path.Opt a, Path.Opt b ->
    rpe_equal a b
  | _ -> false

and pred_equal p q =
  match p, q with
  | Path.Label a, Path.Label b -> a = b
  | Path.Any, Path.Any -> true
  | Path.Named_pred (a, _), Path.Named_pred (b, _) -> a = b
  | _ -> false

let rec term_equal a b =
  match a, b with
  | Ast.T_var x, Ast.T_var y -> x = y
  | Ast.T_const x, Ast.T_const y -> Value.equal x y
  | Ast.T_skolem (f, xs), Ast.T_skolem (g, ys) ->
    f = g && List.length xs = List.length ys && List.for_all2 term_equal xs ys
  | Ast.T_agg (f, x), Ast.T_agg (g, y) -> f = g && term_equal x y
  | _ -> false

let rec condition_equal a b =
  match a, b with
  | Ast.C_atom (n, xs), Ast.C_atom (m, ys) ->
    n = m && List.length xs = List.length ys && List.for_all2 term_equal xs ys
  | Ast.C_edge (x, l, y), Ast.C_edge (x', l', y') ->
    term_equal x x' && l = l' && term_equal y y'
  | Ast.C_path (x, r, y), Ast.C_path (x', r', y') ->
    term_equal x x' && rpe_equal r r' && term_equal y y'
  | Ast.C_cmp (o, a1, a2), Ast.C_cmp (o', b1, b2) ->
    o = o' && term_equal a1 b1 && term_equal a2 b2
  | Ast.C_in (t, vs), Ast.C_in (t', vs') ->
    term_equal t t'
    && List.length vs = List.length vs'
    && List.for_all2 Value.equal vs vs'
  | Ast.C_not a, Ast.C_not b -> condition_equal a b
  | _ -> false

let link_equal (x, l, y) (x', l', y') =
  term_equal x x' && l = l' && term_equal y y'

let rec block_equal (a : Ast.block) (b : Ast.block) =
  List.length a.where = List.length b.where
  && List.for_all2 condition_equal a.where b.where
  && List.length a.create = List.length b.create
  && List.for_all2
       (fun (f, xs) (g, ys) ->
         f = g
         && List.length xs = List.length ys
         && List.for_all2 term_equal xs ys)
       a.create b.create
  && List.length a.link = List.length b.link
  && List.for_all2 link_equal a.link b.link
  && List.length a.collect = List.length b.collect
  && List.for_all2
       (fun (c, t) (c', t') -> c = c' && term_equal t t')
       a.collect b.collect
  && List.length a.nested = List.length b.nested
  && List.for_all2 block_equal a.nested b.nested

let query_equal (a : Ast.query) (b : Ast.query) =
  a.input = b.input && a.output = b.output
  && List.length a.blocks = List.length b.blocks
  && List.for_all2 block_equal a.blocks b.blocks
