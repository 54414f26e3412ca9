(** The per-row semantics of StruQL's two stages, shared by every
    engine.

    The {e query stage} extends one binding row by one plan step
    ({!exec_step}), under active-domain semantics.  The {e construction
    stage} runs a block's CREATE / LINK / COLLECT clauses, compiled
    once ({!compile}), over one row at a time ({!row}), creating nodes
    with Skolem functions (same inputs — same oid), adding edges (only
    from newly created nodes; existing nodes are immutable) and
    populating output collections.
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
       (* an object is in no value set: the scan below never binds one *)
       let member v = List.exists (Value.coerce_equal v) vs in
       (match b with
        | B_target (Graph.V v) -> if member v then [ env ] else []
        | B_label l -> if member (Value.String l) then [ env ] else []
        | B_target (Graph.N _) -> [])
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
       target end is bound, the kernel's backward lane over the
       incoming-edge index prunes the enumeration to the complete
       candidate set, in the same [Graph.nodes] order *)
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

(** Where construction writes: a graph that is read or mutated while
    it is written, or a loader building a fresh one. *)
type out = Live of Graph.t | Fresh of Graph.Loader.t

(** The construction sinks: the output and the Skolem scope that
    names the nodes it creates.  {!Exec} feeds rows into it one at a
    time.  An optional {!emitter} observes (and may replace) the
    writes. *)
type cons = {
  out : out;
  scope : Skolem.t;
  emit : emitter option;
}

let out_node out o =
  match out with
  | Live g -> Graph.add_node g o
  | Fresh ld -> Graph.Loader.add_node ld o

let out_edge out src l tgt =
  match out with
  | Live g -> Graph.add_edge g src l tgt
  | Fresh ld -> Graph.Loader.add_edge ld src l tgt

let out_coll out c o =
  match out with
  | Live g -> Graph.add_to_collection g c o
  | Fresh ld -> Graph.Loader.add_to_collection ld c o

let sink_node sink o =
  match sink.emit with
  | None -> out_node sink.out o
  | Some e ->
    if e.em_apply then out_node sink.out o;
    e.em_node o

let sink_edge sink src l tgt =
  match sink.emit with
  | None -> out_edge sink.out src l tgt
  | Some e ->
    if e.em_apply then out_edge sink.out src l tgt;
    e.em_edge src l tgt

let sink_coll sink c o =
  match sink.emit with
  | None -> out_coll sink.out c o
  | Some e ->
    if e.em_apply then out_coll sink.out c o;
    e.em_coll c o

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
     values [min]/[max] keep ([Value.compare] ties only NaNs) *)
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

(* A group's distinct values: oids by id, values by printed form. *)
let target_key = function
  | Graph.N o -> "N" ^ string_of_int (Oid.id o)
  | Graph.V v -> "V" ^ Value.to_string v

(* --- The compiled construction ---

   A block's CREATE / LINK / COLLECT clauses compile once into clause
   instructions over three kinds of operand: a constant, a variable of
   the row (each looked up once per row), and a memo slot holding one
   distinct Skolem term of the block (terms are told apart
   structurally, nested arguments included, constants by
   [Value.equal]).  A row evaluates a slot at its first use — its
   arguments first, left to right, so a nested term is built and
   emitted before its parent — and reads it back after that, so each
   distinct term is built and its node event emitted once per row, in
   the order of the clauses that first name it.  An error is raised
   when the row reaches the clause and operand at fault, after the
   clauses before it have constructed. *)

type operand =
  | O_const of Graph.target
  | O_var of int * string  (* the row's variable, and its name *)
  | O_term of int  (* a memo slot *)
  | O_fail of string  (* an aggregate out of place: raises when read *)

type label = Lab_const of string | Lab_var of int * string

type slot = { s_fn : Skolem.fn; s_args : operand array }

type clause =
  | K_create of int
  | K_link of int * label * operand
  | K_agg of int * label * int * Ast.agg_fn * operand
      (* source slot, label, group id of (function, inner term), the
         function and the inner term *)
  | K_collect of string * operand
  | K_fail of string  (* a LINK from a source that is not a Skolem term *)

type compiled = {
  c_vars : string array;
  c_slots : slot array;
  c_clauses : clause array;
}

(* The id of [k] in [tbl], the next one for a new key. *)
let intern tbl k =
  match Hashtbl.find_opt tbl k with
  | Some i -> i
  | None ->
    let i = Hashtbl.length tbl in
    Hashtbl.add tbl k i;
    i

let compile (b : Ast.block) : compiled =
  let vars = Hashtbl.create 8 and aggs = Hashtbl.create 4 in
  let slots_rev = ref [] and n_slots = ref 0 in
  let rec operand : Ast.term -> operand = function
    | T_const c -> O_const (Graph.V c)
    | T_var v -> O_var (intern vars v, v)
    | T_skolem (f, args) -> O_term (slot f args)
    | T_agg (fn, _) ->
      O_fail (Ast.agg_name fn ^ "(...) may only appear as a LINK target")
  and slot f args =
    let t = Ast.T_skolem (f, args) in
    let rec find i = function
      | [] -> None
      | (t', _) :: rest ->
        if Pretty.term_equal t t' then Some i else find (i - 1) rest
    in
    match find (!n_slots - 1) !slots_rev with
    | Some i -> i
    | None ->
      let s_args = Array.of_list (List.map operand args) in
      let i = !n_slots in
      slots_rev := (t, { s_fn = Skolem.fn f; s_args }) :: !slots_rev;
      incr n_slots;
      i
  in
  let label : Ast.label_term -> label = function
    | L_const c -> Lab_const c
    | L_var v -> Lab_var (intern vars v, v)
  in
  let link ((x : Ast.term), lt, (y : Ast.term)) =
    match (x, y) with
    | T_skolem (f, args), T_agg (fn, inner) ->
      let src = slot f args in
      let lab = label lt in
      let agg =
        intern aggs (Ast.agg_name fn ^ "|" ^ Fmt.str "%a" Pretty.pp_term inner)
      in
      K_agg (src, lab, agg, fn, operand inner)
    | T_skolem (f, args), _ ->
      let src = slot f args in
      let lab = label lt in
      K_link (src, lab, operand y)
    | (T_var _ | T_const _ | T_agg _), _ ->
      K_fail
        "LINK may only add edges from newly created (Skolem) nodes; \
         existing nodes are immutable"
  in
  let creates = List.map (fun (f, args) -> K_create (slot f args)) b.create in
  let links = List.map link b.link in
  let collects = List.map (fun (c, t) -> K_collect (c, operand t)) b.collect in
  let c_vars = Array.make (Hashtbl.length vars) "" in
  Hashtbl.iter (fun v i -> c_vars.(i) <- v) vars;
  {
    c_vars;
    c_slots = Array.of_list (List.rev_map snd !slots_rev);
    c_clauses = Array.of_list (creates @ links @ collects);
  }

(* An aggregate group, keyed by (source, label, group id); its
   distinct values are keyed by [target_key]. *)
type gkey = { gk_src : int; gk_label : string; gk_agg : int }

type group = {
  g_src : Oid.t;
  g_label : string;
  g_fn : Ast.agg_fn;
  g_vals : (string, Graph.target) Hashtbl.t;
}

module Gtbl = Hashtbl.Make (struct
  type t = gkey

  let equal a b =
    a.gk_src = b.gk_src && a.gk_agg = b.gk_agg
    && String.equal a.gk_label b.gk_label

  let hash k = (k.gk_src * 65599) + (k.gk_agg * 31) + String.hash k.gk_label
end)

(* A binding no row holds: a variable the row leaves unbound reads as
   this one, told apart physically. *)
let unbound = B_label (String.make 1 '?')

(* One run of a compiled block: the row's variables, the memo slots
   (a slot is current when its stamp is the row's number), one
   argument buffer per slot, and the aggregate groups.  Per-run state,
   never shared between domains. *)
type builder = {
  sink : cons;
  code : compiled;
  vals : binding array;  (* [unbound] where the row binds none *)
  memo : Graph.target array;
  stamp : int array;
  mutable row_no : int;
  argbufs : Graph.target array array;
  groups : group Gtbl.t;
  mutable first_rows : group list;  (* newest first *)
}

let builder sink code =
  let n = Array.length code.c_slots in
  let unset = Graph.V Value.Null in
  {
    sink;
    code;
    vals = Array.make (Array.length code.c_vars) unbound;
    memo = Array.make n unset;
    stamp = Array.make n 0;
    row_no = 0;
    argbufs =
      Array.map (fun s -> Array.make (Array.length s.s_args) unset)
        code.c_slots;
    groups = Gtbl.create 8;
    first_rows = [];
  }

let rec operand_value bld = function
  | O_const t -> t
  | O_var (i, v) -> (
    match bld.vals.(i) with
    | b when b == unbound ->
      raise (Eval_error (Fmt.str "unbound variable %s in construction" v))
    | B_target tgt -> tgt
    | B_label l -> Graph.V (Value.String l))
  | O_term s -> term bld s
  | O_fail msg -> raise (Eval_error msg)

and term bld s =
  if bld.stamp.(s) = bld.row_no then bld.memo.(s)
  else begin
    let sl = bld.code.c_slots.(s) in
    let args = bld.argbufs.(s) in
    for k = 0 to Array.length args - 1 do
      args.(k) <- operand_value bld sl.s_args.(k)
    done;
    let o, _fresh = Skolem.apply bld.sink.scope sl.s_fn args in
    sink_node bld.sink o;
    let t = Graph.N o in
    bld.memo.(s) <- t;
    bld.stamp.(s) <- bld.row_no;
    t
  end

let source bld s =
  match term bld s with Graph.N o -> o | Graph.V _ -> assert false

let label_value bld = function
  | Lab_const l -> l
  | Lab_var (i, v) -> (
    match bld.vals.(i) with
    | b when b == unbound -> raise (Eval_error ("unbound arc variable " ^ v))
    | B_label l -> l
    | B_target (Graph.V v') -> Value.to_display_string v'
    | B_target (Graph.N _) ->
      raise (Eval_error ("arc variable " ^ v ^ " bound to a node")))

let clause bld = function
  | K_create s -> ignore (term bld s)
  | K_link (s, l, y) ->
    let src = source bld s in
    let lab = label_value bld l in
    sink_edge bld.sink src lab (operand_value bld y)
  | K_agg (s, l, agg, fn, inner) ->
    let src = source bld s in
    let lab = label_value bld l in
    let v = operand_value bld inner in
    let key = { gk_src = Oid.id src; gk_label = lab; gk_agg = agg } in
    let g =
      match Gtbl.find bld.groups key with
      | g -> g
      | exception Not_found ->
        let g =
          { g_src = src; g_label = lab; g_fn = fn; g_vals = Hashtbl.create 8 }
        in
        Gtbl.add bld.groups key g;
        bld.first_rows <- g :: bld.first_rows;
        g
    in
    Hashtbl.replace g.g_vals (target_key v) v
  | K_collect (c, t) -> (
    match operand_value bld t with
    | Graph.N o -> sink_coll bld.sink c o
    | Graph.V _ ->
      raise (Eval_error ("COLLECT " ^ c ^ " applied to an atomic value")))
  | K_fail msg -> raise (Eval_error msg)

let row bld env =
  bld.row_no <- bld.row_no + 1;
  let vars = bld.code.c_vars in
  for i = 0 to Array.length vars - 1 do
    bld.vals.(i) <-
      (match Env.find vars.(i) env with
       | b -> b
       | exception Not_found -> unbound)
  done;
  let clauses = bld.code.c_clauses in
  for i = 0 to Array.length clauses - 1 do
    clause bld clauses.(i)
  done

(* The groups fold in the order of their first rows: the keys carry oid
   numbers, so hash order would vary with how many oids the process
   allocated. *)
let flush bld =
  List.iter
    (fun g ->
      let values = Hashtbl.fold (fun _ v acc -> v :: acc) g.g_vals [] in
      sink_edge bld.sink g.g_src g.g_label (Graph.V (aggregate g.g_fn values)))
    (List.rev bld.first_rows);
  Gtbl.reset bld.groups;
  bld.first_rows <- []

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
