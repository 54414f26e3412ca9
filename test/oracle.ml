(* The reference StruQL evaluator: the naive two-stage semantics of §3,
   kept as the oracle the streaming engine (Struql.Exec) and its
   compiled construction are checked against; and, at the end, the
   reference HTML generator the render pool's wave loop is checked
   against.

   Stage 1 materializes a block's whole binding relation, applying one
   plan step at a time to every row; stage 2 interprets the block's
   construction clauses over the finished relation, row by row and term
   by term, building a Skolem term again at every use; nested blocks
   then run over the parent's relation, so their WHERE clauses are
   conjoined with their ancestors'.  Only the query stage's per-row
   step (Eval.exec_step) and the aggregate fold (Eval.aggregate) are
   shared with the engine, except for top-level path conditions: those
   run on the interpretive product BFS below ([eval_from]), the
   reference the compiled kernel in Path is checked against, over every
   node of the graph (no backward lane). *)

open Sgraph
open Struql

(* the largest relation stage 1 has materialized *)
type stats = { mutable max_intermediate : int }

let new_stats () = { max_intermediate = 0 }

(* --- the path reference --- *)

(* The interpretive product BFS: (state, object) pairs in FIFO order
   from the source's start closure, over each node's out-edges in
   insertion order and each state's transitions in order; an object is
   a result the first time it is dequeued in an accepting state. *)
let eval_from nfa g src =
  let key = function Graph.N o -> `N (Oid.id o) | Graph.V v -> `V v in
  let visited = Hashtbl.create 64 and seen = Hashtbl.create 16 in
  let results_rev = ref [] and queue = Queue.create () in
  let trans = Array.init (Path.nfa_states nfa) (Path.nfa_transitions nfa) in
  let push s t =
    if not (Hashtbl.mem visited (s, key t)) then begin
      Hashtbl.add visited (s, key t) ();
      Queue.add (s, t) queue
    end
  in
  List.iter (fun s -> push s (Graph.N src)) (Path.nfa_start_states nfa);
  while not (Queue.is_empty queue) do
    let s, t = Queue.pop queue in
    if Path.nfa_is_accepting nfa s && not (Hashtbl.mem seen (key t)) then begin
      Hashtbl.add seen (key t) ();
      results_rev := t :: !results_rev
    end;
    match t with
    | Graph.V _ -> ()
    | Graph.N o ->
      List.iter
        (fun (l, tgt) ->
          List.iter
            (fun (p, succ) ->
              if Path.edge_pred_matches p l then
                List.iter (fun s' -> push s' tgt) succ)
            trans.(s))
        (Graph.out_edges g o)
  done;
  List.rev !results_rev

(* [x -> r -> y] as Eval runs it, on the BFS: a bound source walks from
   itself, an unbound one from every node in [Graph.nodes] order, and a
   nullable expression also pairs each value target with itself. *)
let exec_path g env x r nfa y =
  let from src env =
    List.filter_map (fun t -> Eval.match_term env y t) (eval_from nfa g src)
  in
  match Eval.term_binding env x with
  | Some (Eval.B_target (Graph.N o)) -> from o env
  | Some (Eval.B_target (Graph.V v)) ->
    if Path.nullable r then Option.to_list (Eval.match_term env y (Graph.V v))
    else []
  | Some (Eval.B_label _) -> []
  | None ->
    let from_nodes =
      List.concat_map
        (fun src ->
          match Eval.match_term env x (Graph.N src) with
          | None -> []
          | Some env' -> from src env')
        (Graph.nodes g)
    in
    let value_pairs =
      if not (Path.nullable r) then []
      else
        Graph.fold_edges
          (fun _ _ tgt acc ->
            match tgt with
            | Graph.V _ -> (
              match Option.bind (Eval.match_term env x tgt) (fun env' ->
                  Eval.match_term env' y tgt) with
              | Some env'' -> env'' :: acc
              | None -> acc)
            | Graph.N _ -> acc)
          g []
        |> List.rev
    in
    from_nodes @ value_pairs

let exec_step g reg env = function
  | Plan.Exec (Plan.CC_path (x, r, nfa, y)) -> exec_path g env x r nfa y
  | step -> Eval.exec_step g reg env step

let exec_steps ?(stats = new_stats ()) g reg envs steps =
  List.fold_left
    (fun envs step ->
      let envs' =
        List.concat_map (fun env -> exec_step g reg env step) envs
      in
      stats.max_intermediate <- max stats.max_intermediate (List.length envs');
      envs')
    envs steps

let plan (options : Eval.options) g ~bound ~needed_obj ~needed_label conds =
  Plan.plan ~strategy:options.strategy ~registry:options.registry g ~bound
    ~needed_obj ~needed_label conds

(* --- the construction interpreter --- *)

(* The polymorphic hash and compare equate the two zeros, which a page
   prints apart ([-0] and [0]) and {!Value.equal} tells apart: a value
   keys with its negative-zero flag. *)
let neg_zero = function Value.Float f -> f = 0. && Float.sign_bit f | _ -> false

(* A reference Skolem scope, keyed as the engine keyed terms before its
   scopes went monomorphic: (function name, arguments) under the
   polymorphic hash and compare, an oid argument by its id.  It shares
   nothing with Sgraph.Skolem, so the engine's keying is checked, not
   assumed. *)
type key_arg = K_oid of int | K_val of Value.t * bool

type scope = {
  table : (string * key_arg list, Oid.t) Hashtbl.t;
  inverse : (string * Graph.target list) Oid.Tbl.t;
}

let new_scope () = { table = Hashtbl.create 64; inverse = Oid.Tbl.create 64 }
let scope_size s = Hashtbl.length s.table
let term_of s o = Oid.Tbl.find_opt s.inverse o

let term_name f args =
  let arg = function
    | Graph.N o -> Oid.name o
    | Graph.V v -> Value.to_display_string v
  in
  f ^ "(" ^ String.concat "," (List.map arg args) ^ ")"

let skolem s f args =
  let key =
    ( f,
      List.map
        (function
          | Graph.N o -> K_oid (Oid.id o) | Graph.V v -> K_val (v, neg_zero v))
        args )
  in
  match Hashtbl.find_opt s.table key with
  | Some o -> o
  | None ->
    let o = Oid.fresh (term_name f args) in
    Hashtbl.add s.table key o;
    Oid.Tbl.add s.inverse o (f, args);
    o

type sink = { out : Graph.t; scope : scope; emit : Eval.emitter option }

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
  | Ast.T_var v -> (
    match Eval.Env.find_opt v env with
    | Some (Eval.B_target tgt) -> tgt
    | Some (Eval.B_label l) -> Graph.V (Value.String l)
    | None ->
      raise
        (Eval.Eval_error (Fmt.str "unbound variable %s in construction" v)))
  | Ast.T_skolem (f, args) ->
    let o = skolem sink.scope f (List.map (cons_target sink env) args) in
    sink_node sink o;
    Graph.N o
  | Ast.T_agg (fn, _) ->
    raise
      (Eval.Eval_error
         (Ast.agg_name fn ^ "(...) may only appear as a LINK target"))

let cons_label env = function
  | Ast.L_const c -> c
  | Ast.L_var v -> (
    match Eval.Env.find_opt v env with
    | Some (Eval.B_label l) -> l
    | Some (Eval.B_target (Graph.V v')) -> Value.to_display_string v'
    | Some (Eval.B_target (Graph.N _)) ->
      raise (Eval.Eval_error ("arc variable " ^ v ^ " bound to a node"))
    | None -> raise (Eval.Eval_error ("unbound arc variable " ^ v)))

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
        (Eval.Eval_error
           "LINK may only add edges from newly created (Skolem) nodes; \
            existing nodes are immutable")
  in
  (src, cons_label env lt)

(* Aggregate groups of one block, keyed by (source node, label,
   aggregate expression), in the order of their first rows. *)
type agg_group =
  Oid.t * string * Ast.agg_fn * (string, Graph.target) Hashtbl.t

type agg_groups = {
  by_key : (string, agg_group) Hashtbl.t;
  mutable first_rows : agg_group list;  (* newest first *)
}

let new_groups () = { by_key = Hashtbl.create 8; first_rows = [] }

let construct_row sink groups (b : Ast.block) env =
  List.iter
    (fun (f, args) -> ignore (cons_target sink env (Ast.T_skolem (f, args))))
    b.create;
  List.iter
    (fun (x, lt, y) ->
      match y with
      | Ast.T_agg (fn, inner) ->
        let src, label = link_source sink env x lt in
        let v = cons_target sink env inner in
        let key =
          Printf.sprintf "%d|%s|%s|%s" (Oid.id src) label (Ast.agg_name fn)
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
        raise
          (Eval.Eval_error ("COLLECT " ^ c ^ " applied to an atomic value")))
    b.collect

let construct_flush sink groups =
  List.iter
    (fun (src, label, fn, vals) ->
      let values = Hashtbl.fold (fun _ v acc -> v :: acc) vals [] in
      sink_edge sink src label (Graph.V (Eval.aggregate fn values)))
    (List.rev groups.first_rows)

(* --- whole queries --- *)

let rec run_block options sink g bound envs (b : Ast.block) =
  let needed_obj, needed_label = Eval.construction_needs b in
  let steps = plan options g ~bound ~needed_obj ~needed_label b.where in
  let envs = exec_steps g options.Eval.registry envs steps in
  let groups = new_groups () in
  List.iter (construct_row sink groups b) envs;
  construct_flush sink groups;
  let bound = Ast.dedup (bound @ List.concat_map Plan.step_binds steps) in
  List.iter (run_block options sink g bound envs) b.nested

let run ?(options = Eval.default_options) ?scope ?into ?emit g (q : Ast.query)
    =
  if options.validate then Check.validate_exn q;
  let out =
    match into with Some o -> o | None -> Graph.create ~name:q.output ()
  in
  let scope = match scope with Some s -> s | None -> new_scope () in
  let sink = { out; scope; emit } in
  List.iter (run_block options sink g [] [ Eval.Env.empty ]) q.blocks;
  out

(* --- the reference event identity ---

   A construction event keyed structurally, as the differential engine
   keyed its event table before its events moved into a flat store: a
   node by oid id, an edge by (source id, label, {!Graph.tkey} of its
   target), a membership by (collection, member id).  The polymorphic
   hash and compare of a [tkey] equate what {!Value.equal} equates
   (every NaN) and tell apart what it does ([Int 1], [Float 1.0],
   [String "1"], [0.0] and [-0.0]). *)

type event_key =
  | K_node of int
  | K_edge of int * string * Graph.tkey
  | K_coll of string * int

(* The distinct construction events of a cold {!Exec.run_all} of
   [queries] over [g], an edge's endpoints counting as node events. *)
let distinct_events ?(options = Eval.default_options) g queries =
  let keys = Hashtbl.create 1024 in
  let add k = Hashtbl.replace keys k () in
  let node o = add (K_node (Oid.id o)) in
  let emit =
    {
      Eval.em_apply = true;
      em_node = node;
      em_edge =
        (fun s l tg ->
          node s;
          (match tg with Graph.N o -> node o | Graph.V _ -> ());
          add (K_edge (Oid.id s, l, Graph.tkey tg)));
      em_coll = (fun c o -> add (K_coll (c, Oid.id o)));
    }
  in
  ignore (Exec.run_all ~options ~emit ~name:"events" g queries);
  Hashtbl.length keys

(* stage 1 alone: the binding relation of a condition list *)
let bindings ?(options = Eval.default_options) g conds =
  let steps = plan options g ~bound:[] ~needed_obj:[] ~needed_label:[] conds in
  exec_steps g options.registry [ Eval.Env.empty ] steps

(* --- the page reference ---

   The HTML generator of §2.5 as one sequential queue: roots become
   pages up front, and a page's render, link by link, makes every
   object it links to a page.  A page gets its URL at its first
   reference (slug.html, or the first slug_N.html no page holds yet)
   and pages come out in that discovery order, each rendered with the
   hrefs assigned so far.  Under [~on_error:Degrade] a failed (or
   injected-faulty) render becomes a placeholder and its fault is
   recorded in [fault]; objects the failed render linked before it
   failed stay pages. *)
let generate ?(templates = Template.Generator.empty_templates)
    ?(on_error = Fault.Abort) ?fault g ~roots : Template.Generator.site =
  let module G = Template.Generator in
  let inject = Fault.inject fault in
  let compiled = G.new_compiled () in
  let urls = Oid.Tbl.create 64 and used = Hashtbl.create 64 in
  let queue = Queue.create () in
  let ensure_page o =
    match Oid.Tbl.find_opt urls o with
    | Some u -> u
    | None ->
      let base = G.slug (Oid.name o) in
      let rec uniq n =
        let candidate =
          if n = 0 then base ^ ".html" else Printf.sprintf "%s_%d.html" base n
        in
        if Hashtbl.mem used candidate then uniq (n + 1) else candidate
      in
      let u = uniq 0 in
      Hashtbl.add used u ();
      Oid.Tbl.add urls o u;
      Queue.add o queue;
      u
  in
  List.iter (fun o -> ignore (ensure_page o)) roots;
  let pages = ref [] in
  while not (Queue.is_empty queue) do
    let o = Queue.pop queue in
    let render () =
      Fault.Inject.fire inject (Fault.Inject.Render_page (Oid.name o));
      (G.render_page_full ~templates ~compiled ~href:ensure_page g o).G.r_page
    in
    let page =
      match on_error with
      | Fault.Abort -> render ()
      | Fault.Degrade -> (
        try render ()
        with e ->
          let page, report =
            G.degraded_page g o ~url:(Oid.Tbl.find urls o) e
          in
          Option.iter (fun c -> Fault.record c report) fault;
          page)
    in
    pages := page :: !pages
  done;
  { G.pages = List.rev !pages; graph = g }
