(** The per-row semantics of StruQL's two stages, shared by every
    engine.

    The {e query stage} extends one binding row by one plan step
    ({!exec_step}), under active-domain semantics.  The {e construction
    stage} interprets CREATE / LINK / COLLECT over one row
    ({!construct_row}), creating nodes with Skolem functions (same
    inputs — same oid), adding edges (only from newly created nodes;
    existing nodes are immutable) and populating output collections.
    Whole queries run on {!Exec}. *)

open Sgraph

exception Eval_error of string

type binding = B_target of Graph.target | B_label of string

module Env = Map.Make (String)

type env = binding Env.t

(* --- Stage 1: the query stage --- *)

let term_binding env = function
  | Ast.T_var v -> Env.find_opt v env
  | Ast.T_const c -> Some (B_target (Graph.V c))
  | Ast.T_skolem _ -> raise (Eval_error "Skolem term in WHERE clause")
  | Ast.T_agg _ -> raise (Eval_error "aggregate term in WHERE clause")

(* Unify a term with a target, given the environment. *)
let match_term env t tgt =
  match t with
  | Ast.T_const c ->
    (match tgt with
     | Graph.V v -> if Value.coerce_equal c v then Some env else None
     | Graph.N _ -> None)
  | Ast.T_var v ->
    (match Env.find_opt v env with
     | None -> Some (Env.add v (B_target tgt) env)
     | Some (B_target t') ->
       if Graph.target_equal t' tgt then Some env
       else
         (match t', tgt with
          | Graph.V a, Graph.V b when Value.coerce_equal a b -> Some env
          | _ -> None)
     | Some (B_label l) ->
       (match tgt with
        | Graph.V v when Value.coerce_equal (Value.String l) v -> Some env
        | _ -> None))
  | Ast.T_skolem _ -> raise (Eval_error "Skolem term in WHERE clause")
  | Ast.T_agg _ -> raise (Eval_error "aggregate term in WHERE clause")

let match_label env lt l =
  match lt with
  | Ast.L_const c -> if c = l then Some env else None
  | Ast.L_var v ->
    (match Env.find_opt v env with
     | None -> Some (Env.add v (B_label l) env)
     | Some (B_label l') -> if l' = l then Some env else None
     | Some (B_target (Graph.V (Value.String s))) ->
       if s = l then Some env else None
     | Some (B_target _) -> None)

(* The source endpoint of an edge/path condition as a node, if bound. *)
let source_node env t =
  match term_binding env t with
  | Some (B_target (Graph.N o)) -> `Node o
  | Some (B_target (Graph.V v)) -> `Value v
  | Some (B_label _) -> `Other
  | None -> `Unbound

let rec exec_cond g reg env (c : Plan.ccond) : env list =
  match c with
  | Plan.CC_coll (name, t) ->
    (match term_binding env t with
     | Some (B_target (Graph.N o)) ->
       if Graph.in_collection g name o then [ env ] else []
     | Some _ -> []
     | None ->
       (match t with
        | Ast.T_var v ->
          List.map
            (fun o -> Env.add v (B_target (Graph.N o)) env)
            (Graph.collection g name)
        | _ -> []))
  | Plan.CC_extern (name, ts) ->
    let args =
      List.map
        (fun t ->
          match term_binding env t with
          | Some (B_target tgt) -> tgt
          | Some (B_label l) -> Graph.V (Value.String l)
          | None ->
            raise
              (Eval_error
                 (Fmt.str "external predicate %s applied to unbound variable"
                    name)))
        ts
    in
    (match Builtins.find_extern reg name with
     | Some f -> if f g args then [ env ] else []
     | None -> raise (Eval_error ("unknown external predicate " ^ name)))
  | Plan.CC_edge (x, lt, y) -> exec_edge g env x lt y
  | Plan.CC_path (x, r, nfa, y) -> exec_path g env x r nfa y
  | Plan.CC_cmp (op, a, b) -> exec_cmp env op a b
  | Plan.CC_in (t, vs) ->
    (match term_binding env t with
     | Some b ->
       let v =
         match b with
         | B_target (Graph.V v) -> v
         | B_label l -> Value.String l
         | B_target (Graph.N _) -> Value.Null
       in
       if List.exists (Value.coerce_equal v) vs then [ env ] else []
     | None ->
       (match t with
        | Ast.T_var var ->
          List.map (fun v -> Env.add var (B_target (Graph.V v)) env) vs
        | _ -> []))
  | Plan.CC_not c ->
    let bound =
      Env.fold (fun k _ s -> Plan.VSet.add k s) env Plan.VSet.empty
    in
    if Plan.executable bound c then
      (* negation as failure: inner generators existentially extend *)
      if exec_cond g reg env c = [] then [ env ] else []
    else begin
      (* the inner condition is a filter over variables nothing binds
         (e.g. [not("s" < x)] with [x] free): the existential ranges
         over the active domain *)
      let unbound =
        List.sort_uniq String.compare (Plan.ccond_vars [] c)
        |> List.filter (fun v -> not (Env.mem v env))
      in
      let rec label_positions acc = function
        | Plan.CC_edge (_, Ast.L_var v, _) -> v :: acc
        | Plan.CC_not c' -> label_positions acc c'
        | _ -> acc
      in
      let label_vars = label_positions [] c in
      let domain v =
        if List.mem v label_vars then
          List.map (fun l -> B_label l) (Graph.labels g)
        else List.map (fun t -> B_target t) (Path.all_objects g)
      in
      let rec exists env' = function
        | [] -> exec_cond g reg env' c <> []
        | v :: rest ->
          List.exists (fun b -> exists (Env.add v b env') rest) (domain v)
      in
      if exists env unbound then [] else [ env ]
    end

and exec_edge g env x lt y =
  match source_node env x with
  | `Node o ->
    List.filter_map
      (fun (l, tgt) ->
        match match_label env lt l with
        | None -> None
        | Some env' -> match_term env' y tgt)
      (Graph.out_edges g o)
  | `Value _ | `Other -> []
  | `Unbound ->
    let bind_src env src =
      match_term env x (Graph.N src)
    in
    let label_known =
      match lt with
      | Ast.L_const c -> Some c
      | Ast.L_var v ->
        (match Env.find_opt v env with
         | Some (B_label l) -> Some l
         | Some (B_target (Graph.V (Value.String s))) -> Some s
         | _ -> None)
    in
    (match label_known with
     | Some l ->
       List.filter_map
         (fun (src, tgt) ->
           match bind_src env src with
           | None -> None
           | Some env' ->
             (match match_label env' lt l with
              | None -> None
              | Some env'' -> match_term env'' y tgt))
         (Graph.label_extent g l)
     | None ->
       (match term_binding env y with
        | Some (B_target tgt) ->
          List.filter_map
            (fun (src, l) ->
              match bind_src env src with
              | None -> None
              | Some env' ->
                (match match_label env' lt l with
                 | None -> None
                 | Some env'' -> match_term env'' y tgt))
            (Graph.in_edges g tgt)
        | Some (B_label lab) ->
          let tgt = Graph.V (Value.String lab) in
          List.filter_map
            (fun (src, l) ->
              match bind_src env src with
              | None -> None
              | Some env' ->
                (match match_label env' lt l with
                 | None -> None
                 | Some env'' -> match_term env'' y tgt))
            (Graph.in_edges g tgt)
        | None ->
          (* full scan *)
          Graph.fold_edges
            (fun src l tgt acc ->
              match bind_src env src with
              | None -> acc
              | Some env' ->
                (match match_label env' lt l with
                 | None -> acc
                 | Some env'' ->
                   (match match_term env'' y tgt with
                    | None -> acc
                    | Some env3 -> env3 :: acc)))
            g []
          |> List.rev))

and exec_path g env x r nfa y =
  match source_node env x with
  | `Node o ->
    List.filter_map (fun tgt -> match_term env y tgt) (Path.eval_from ~nfa g r o)
  | `Value v ->
    if Path.nullable r then
      match match_term env y (Graph.V v) with Some e -> [ e ] | None -> []
    else []
  | `Other -> []
  | `Unbound ->
    (* enumerate sources over the graph's nodes (and, for nullable
       expressions, value objects pair with themselves); when the
       target end is bound and a kernel snapshot is live, the reverse
       CSR prunes the enumeration to the complete candidate set, in
       the same [Graph.nodes] order *)
    let sources =
      let candidates =
        match term_binding env y with
        | Some (B_target (Graph.N o)) ->
          Path.candidate_sources ~nfa g r ~towards:(Path.Pnode o)
        | Some (B_target (Graph.V v)) ->
          Path.candidate_sources ~nfa g r ~towards:(Path.Pvalue v)
        | Some (B_label l) ->
          Path.candidate_sources ~nfa g r
            ~towards:(Path.Pvalue (Value.String l))
        | None -> None
      in
      match candidates with Some srcs -> srcs | None -> Graph.nodes g
    in
    let from_nodes =
      List.concat_map
        (fun src ->
          match match_term env x (Graph.N src) with
          | None -> []
          | Some env' ->
            List.filter_map
              (fun tgt -> match_term env' y tgt)
              (Path.eval_from ~nfa g r src))
        sources
    in
    if Path.nullable r then
      let value_pairs =
        Graph.fold_edges
          (fun _ _ tgt acc ->
            match tgt with
            | Graph.V _ ->
              (match match_term env x tgt with
               | None -> acc
               | Some env' ->
                 (match match_term env' y tgt with
                  | None -> acc
                  | Some env'' -> env'' :: acc))
            | Graph.N _ -> acc)
          g []
      in
      from_nodes @ List.rev value_pairs
    else from_nodes

and exec_cmp env op a b =
  let value_of = function
    | B_target (Graph.V v) -> `Val v
    | B_target (Graph.N o) -> `Node o
    | B_label l -> `Val (Value.String l)
  in
  match term_binding env a, term_binding env b with
  | Some ba, Some bb ->
    let sat =
      match value_of ba, value_of bb with
      | `Node o1, `Node o2 ->
        (match op with
         | Ast.Eq -> Oid.equal o1 o2
         | Ast.Ne -> not (Oid.equal o1 o2)
         | _ -> false)
      | `Val v1, `Val v2 ->
        (match op, Value.coerce_compare v1 v2 with
         | Ast.Eq, Some 0 -> true
         | Ast.Eq, _ -> false
         | Ast.Ne, Some 0 -> false
         | Ast.Ne, _ -> true
         | Ast.Lt, Some c -> c < 0
         | Ast.Le, Some c -> c <= 0
         | Ast.Gt, Some c -> c > 0
         | Ast.Ge, Some c -> c >= 0
         | _, None -> false)
      | `Node _, `Val _ | `Val _, `Node _ -> op = Ast.Ne
    in
    if sat then [ env ] else []
  | None, Some bb ->
    (match op, a with
     | Ast.Eq, Ast.T_var v -> [ Env.add v bb env ]
     | _ -> raise (Eval_error "comparison over unbound variable"))
  | Some ba, None ->
    (match op, b with
     | Ast.Eq, Ast.T_var v -> [ Env.add v ba env ]
     | _ -> raise (Eval_error "comparison over unbound variable"))
  | None, None -> raise (Eval_error "comparison over unbound variables")

let exec_step g reg env (s : Plan.step) : env list =
  match s with
  | Plan.Exec c -> exec_cond g reg env c
  | Plan.Domain_obj v ->
    if Env.mem v env then [ env ]
    else
      List.map (fun t -> Env.add v (B_target t) env) (Path.all_objects g)
  | Plan.Domain_label v ->
    if Env.mem v env then [ env ]
    else List.map (fun l -> Env.add v (B_label l) env) (Graph.labels g)

(* --- Stage 2: the construction stage --- *)

(** Construction events, observable through an {!emitter}: exactly the
    graph mutations construction performs, in mutation order.  The
    differential engine ({!Dexec}) records them per driver to maintain
    the site graph under data deltas. *)
type emitter = {
  em_apply : bool;
      (** also perform the graph writes (prime/full runs); when false
          the sink only observes, and the caller applies events *)
  em_node : Oid.t -> unit;
  em_edge : Oid.t -> string -> Graph.target -> unit;
  em_coll : string -> Oid.t -> unit;
}

(** The construction sinks: the output graph and the Skolem scope that
    names the nodes it creates.  {!Exec} feeds rows into it one at a
    time.  An optional {!emitter} observes (and may replace) the
    writes. *)
type cons = {
  out : Graph.t;
  scope : Skolem.t;
  emit : emitter option;
}

let sink_node sink o =
  match sink.emit with
  | None -> Graph.add_node sink.out o
  | Some e ->
    if e.em_apply then Graph.add_node sink.out o;
    e.em_node o

let sink_edge sink src l tgt =
  match sink.emit with
  | None -> Graph.add_edge sink.out src l tgt
  | Some e ->
    if e.em_apply then Graph.add_edge sink.out src l tgt;
    e.em_edge src l tgt

let sink_coll sink c o =
  match sink.emit with
  | None -> Graph.add_to_collection sink.out c o
  | Some e ->
    if e.em_apply then Graph.add_to_collection sink.out c o;
    e.em_coll c o

let rec cons_target sink env (t : Ast.term) : Graph.target =
  match t with
  | Ast.T_const c -> Graph.V c
  | Ast.T_var v ->
    (match Env.find_opt v env with
     | Some (B_target tgt) -> tgt
     | Some (B_label l) -> Graph.V (Value.String l)
     | None ->
       raise (Eval_error (Fmt.str "unbound variable %s in construction" v)))
  | Ast.T_skolem (f, args) ->
    let sargs =
      List.map
        (fun a ->
          match cons_target sink env a with
          | Graph.N o -> Skolem.A_oid o
          | Graph.V v -> Skolem.A_val v)
        args
    in
    let o, _fresh = Skolem.apply sink.scope f sargs in
    sink_node sink o;
    Graph.N o
  | Ast.T_agg (fn, _) ->
    raise
      (Eval_error
         (Ast.agg_name fn ^ "(...) may only appear as a LINK target"))

let cons_label env = function
  | Ast.L_const c -> c
  | Ast.L_var v ->
    (match Env.find_opt v env with
     | Some (B_label l) -> l
     | Some (B_target (Graph.V v')) -> Value.to_display_string v'
     | Some (B_target (Graph.N _)) ->
       raise (Eval_error ("arc variable " ^ v ^ " bound to a node"))
     | None -> raise (Eval_error ("unbound arc variable " ^ v)))

(* --- Aggregation (the §5.2 grouping/aggregation extension) ---

   An aggregate LINK target groups the block's binding rows by the
   constructed source node (and label), and aggregates over the
   distinct values the inner term takes in that group. *)

let aggregate (fn : Ast.agg_fn) (values : Graph.target list) : Value.t =
  let numeric v =
    match v with
    | Value.Int i -> Some (float_of_int i)
    | Value.Float f -> Some f
    | Value.String s -> float_of_string_opt (String.trim s)
    | _ -> None
  in
  (* fold in one canonical order, whatever order the rows came in: a
     float sum depends on it, and so does which of two coerce-equal
     values [min]/[max] keep ([Value.compare] ties only 0.0 and -0.0) *)
  let atomics () =
    List.filter_map (function Graph.V v -> Some v | Graph.N _ -> None) values
    |> List.sort (fun a b ->
           match Value.compare a b with
           | 0 -> String.compare (Value.to_string a) (Value.to_string b)
           | c -> c)
  in
  match fn with
  | Ast.Count -> Value.Int (List.length values)
  | Ast.Sum ->
    let atomics = atomics () in
    let nums = List.filter_map numeric atomics in
    let s = List.fold_left ( +. ) 0. nums in
    if
      List.for_all
        (function Value.Int _ -> true | _ -> false)
        (List.filter (fun v -> numeric v <> None) atomics)
    then Value.Int (int_of_float s)
    else Value.Float s
  | Ast.Avg ->
    let nums = List.filter_map numeric (atomics ()) in
    if nums = [] then Value.Null
    else
      Value.Float (List.fold_left ( +. ) 0. nums /. float_of_int (List.length nums))
  | Ast.Min | Ast.Max ->
    let cmp a b =
      match Value.coerce_compare a b with
      | Some c -> c
      | None ->
        String.compare (Value.to_display_string a) (Value.to_display_string b)
    in
    let pick =
      match fn with
      | Ast.Min -> fun a b -> if cmp b a < 0 then b else a
      | _ -> fun a b -> if cmp b a > 0 then b else a
    in
    (match atomics () with
     | [] -> Value.Null
     | v :: rest -> List.fold_left pick v rest)

let target_key = function
  | Graph.N o -> "N" ^ string_of_int (Oid.id o)
  | Graph.V v -> "V" ^ Value.to_string v

let link_source sink env x lt =
  let src =
    match x with
    | Ast.T_skolem _ -> (
        match cons_target sink env x with
        | Graph.N o -> o
        | Graph.V _ -> assert false)
    | Ast.T_var _ | Ast.T_const _ | Ast.T_agg _ ->
      raise
        (Eval_error
           "LINK may only add edges from newly created (Skolem) nodes; \
            existing nodes are immutable")
  in
  (src, cons_label env lt)

(* Aggregate link targets are grouped by (source node, label, aggregate
   expression) across the rows of one block; the groups live for the
   duration of the block and are folded when the last row is in, in
   the order of their first rows (the keys carry oid numbers, so
   hash order would vary with how many oids the process allocated). *)
type agg_group =
  Oid.t * string * Ast.agg_fn * (string, Graph.target) Hashtbl.t

type agg_groups = {
  by_key : (string, agg_group) Hashtbl.t;
  mutable first_rows : agg_group list;  (* newest first *)
}

let new_groups () : agg_groups =
  { by_key = Hashtbl.create 8; first_rows = [] }

(** Interpret the construction clauses of one block over a single
    binding row.  Aggregate link targets only accumulate into [groups];
    {!construct_flush} emits them once the block's relation is
    exhausted.  The streaming engine calls this row-by-row as bindings
    come off the operator pipeline. *)
let construct_row sink (groups : agg_groups) (b : Ast.block) env =
  List.iter
    (fun (f, args) ->
      ignore (cons_target sink env (Ast.T_skolem (f, args))))
    b.create;
  List.iter
    (fun (x, lt, y) ->
      match y with
      | Ast.T_agg (fn, inner) ->
        let src, label = link_source sink env x lt in
        let v = cons_target sink env inner in
        let key =
          Printf.sprintf "%d|%s|%s|%s" (Oid.id src) label
            (Ast.agg_name fn)
            (Fmt.str "%a" Pretty.pp_term inner)
        in
        let _, _, _, vals =
          match Hashtbl.find_opt groups.by_key key with
          | Some g -> g
          | None ->
            let g = (src, label, fn, Hashtbl.create 8) in
            Hashtbl.add groups.by_key key g;
            groups.first_rows <- g :: groups.first_rows;
            g
        in
        Hashtbl.replace vals (target_key v) v
      | y ->
        let src, label = link_source sink env x lt in
        sink_edge sink src label (cons_target sink env y))
    b.link;
  List.iter
    (fun (c, t) ->
      match cons_target sink env t with
      | Graph.N o -> sink_coll sink c o
      | Graph.V _ ->
        raise (Eval_error ("COLLECT " ^ c ^ " applied to an atomic value")))
    b.collect

(** Fold and emit the accumulated aggregate groups of one block, in
    first-row order. *)
let construct_flush sink (groups : agg_groups) =
  List.iter
    (fun (src, label, fn, vals) ->
      let values = Hashtbl.fold (fun _ v acc -> v :: acc) vals [] in
      sink_edge sink src label (Graph.V (aggregate fn values)))
    (List.rev groups.first_rows)

(* Construction variables of a block, split into object and arc
   positions, for the planner's active-domain pre-pass. *)
let construction_needs (b : Ast.block) =
  let obj = ref [] and lab = ref [] in
  List.iter
    (fun (_, args) -> obj := List.fold_left Ast.term_vars !obj args)
    b.create;
  List.iter
    (fun (x, l, y) ->
      obj := Ast.term_vars (Ast.term_vars !obj x) y;
      lab := Ast.label_vars !lab l)
    b.link;
  List.iter (fun (_, t) -> obj := Ast.term_vars !obj t) b.collect;
  (Ast.dedup !obj, Ast.dedup !lab)

type options = {
  strategy : Plan.strategy;
  registry : Builtins.registry;
  validate : bool;
}

let default_options =
  { strategy = Plan.Heuristic; registry = Builtins.default; validate = true }
