(** Query planning for the WHERE stage.

    A plan is an ordering of the block's conditions, each compiled to an
    access path, possibly interleaved with active-domain enumerators for
    variables that no positive condition binds (the paper's
    active-domain semantics: such queries are legal but range over all
    objects/labels of the input graph).

    Three strategies reproduce the system's evolution (§2.4): [Naive]
    keeps textual order, [Heuristic] greedily picks the executable
    condition with the smallest estimated output (the "simple
    heuristic-based optimizer" of the first implementation), and
    [Cost_based] enumerates orderings by dynamic programming over
    condition subsets with an index-aware cost model (the later
    optimizer of [FLO 97]). *)

open Sgraph

exception Plan_error of string

type strategy = Naive | Heuristic | Cost_based

(** Conditions compiled to resolved, NFA-carrying form. *)
type ccond =
  | CC_coll of string * Ast.term
  | CC_extern of string * Ast.term list
  | CC_edge of Ast.term * Ast.label_term * Ast.term
  | CC_path of Ast.term * Path.t * Path.nfa * Ast.term
  | CC_cmp of Ast.cmp_op * Ast.term * Ast.term
  | CC_in of Ast.term * Value.t list
  | CC_not of ccond

type step =
  | Exec of ccond
  | Domain_obj of Ast.var   (** bind the variable to every object *)
  | Domain_label of Ast.var (** bind the variable to every label *)

let rec compile registry cond =
  match cond with
  | Ast.C_atom (name, args) ->
    if Builtins.is_extern registry name then CC_extern (name, args)
    else (
      match args with
      | [ t ] -> CC_coll (name, t)
      | _ ->
        raise
          (Plan_error
             (Fmt.str
                "%s is neither a registered external predicate nor a \
                 unary collection atom"
                name)))
  | Ast.C_edge (x, l, y) -> CC_edge (x, l, y)
  | Ast.C_path (x, r, y) -> CC_path (x, r, Path.compile r, y)
  | Ast.C_cmp (op, a, b) -> CC_cmp (op, a, b)
  | Ast.C_in (t, vs) -> CC_in (t, vs)
  | Ast.C_not c -> CC_not (compile registry c)

let rec ccond_vars acc = function
  | CC_coll (_, t) -> Ast.term_vars acc t
  | CC_extern (_, ts) -> List.fold_left Ast.term_vars acc ts
  | CC_edge (x, l, y) ->
    Ast.label_vars (Ast.term_vars (Ast.term_vars acc x) y) l
  | CC_path (x, _, _, y) -> Ast.term_vars (Ast.term_vars acc x) y
  | CC_cmp (_, a, b) -> Ast.term_vars (Ast.term_vars acc a) b
  | CC_in (t, _) -> Ast.term_vars acc t
  | CC_not c -> ccond_vars acc c

(** Variables a condition binds when executed (positive bindings). *)
let ccond_binds = function
  | CC_coll (_, t) -> Ast.term_vars [] t
  | CC_edge (x, l, y) ->
    Ast.label_vars (Ast.term_vars (Ast.term_vars [] x) y) l
  | CC_path (x, _, _, y) -> Ast.term_vars (Ast.term_vars [] x) y
  | CC_cmp (Ast.Eq, a, b) -> Ast.term_vars (Ast.term_vars [] a) b
  | CC_in (t, _) -> Ast.term_vars [] t
  | CC_extern _ | CC_cmp _ | CC_not _ -> []

module VSet = Set.Make (String)

let term_bound bound = function
  | Ast.T_var v -> VSet.mem v bound
  | Ast.T_const _ -> true
  | Ast.T_skolem _ -> raise (Plan_error "Skolem term in WHERE clause")
  | Ast.T_agg _ -> raise (Plan_error "aggregate term in WHERE clause")

let label_bound bound = function
  | Ast.L_var v -> VSet.mem v bound
  | Ast.L_const _ -> true

(** Whether a condition can run given the bound set.  Generators can
    always run (worst case, a scan); pure filters need all their
    variables bound; an equality with one bound side can bind the
    other.  A negation runs once every inner variable that {e will ever}
    be bound in this plan ([universe]) is bound — inner variables
    outside the universe are existential within the [not] (negation as
    failure: [not(x -> "journal" -> j)] with [j] appearing nowhere else
    means "x has no journal attribute"). *)
let executable ?(limited = []) ?universe bound = function
  | CC_coll (name, t) ->
    (* a limited-access source can test membership of a bound object
       but cannot be enumerated (§2.4's limited access patterns) *)
    if List.mem name limited then term_bound bound t else true
  | CC_edge _ | CC_path _ | CC_in _ -> true
  | CC_extern (_, ts) -> List.for_all (term_bound bound) ts
  | CC_cmp (Ast.Eq, a, b) -> term_bound bound a || term_bound bound b
  | CC_cmp (_, a, b) -> term_bound bound a && term_bound bound b
  | CC_not c ->
    let relevant =
      match universe with
      | None -> ccond_vars [] c
      | Some u -> List.filter (fun v -> VSet.mem v u) (ccond_vars [] c)
    in
    List.for_all (fun v -> VSet.mem v bound) relevant

(* --- Cardinality and work estimation --- *)

type stats = {
  n_nodes : float;
  n_edges : float;
  n_labels : float;
  n_objects : float;
  avg_out : float;
  coll_size : string -> float;
  label_cnt : string -> float;
}

let stats_of_graph g =
  let n_nodes = float_of_int (max 1 (Graph.node_count g)) in
  let n_edges = float_of_int (max 1 (Graph.edge_count g)) in
  {
    n_nodes;
    n_edges;
    n_labels = float_of_int (max 1 (List.length (Graph.labels g)));
    n_objects = float_of_int (max 1 (Graph.node_count g + Graph.edge_count g));
    avg_out = n_edges /. n_nodes;
    coll_size = (fun c -> float_of_int (max 1 (Graph.collection_size g c)));
    label_cnt = (fun l -> float_of_int (max 0 (Graph.label_count g l)));
  }

(** [estimate st bound c] returns [(fanout, work)]: the expected number
    of output rows per input row, and the work per input row. *)
let rec estimate st bound c =
  match c with
  | CC_coll (_, t) when term_bound bound t -> (0.3, 1.)
  | CC_coll (name, _) -> (st.coll_size name, st.coll_size name)
  | CC_extern _ -> (0.5, 1.)
  | CC_edge (x, l, y) ->
    let bx = term_bound bound x
    and bl = label_bound bound l
    and by = term_bound bound y in
    let avg_out = st.n_edges /. st.n_nodes in
    let label_fanout lc = lc /. st.n_nodes in
    (match bx, bl, by with
     | true, true, true -> (0.2, avg_out)
     | true, true, false ->
       let lc = match l with
         | Ast.L_const s -> st.label_cnt s
         | Ast.L_var _ -> st.n_edges /. st.n_labels
       in
       (Float.max 0.2 (label_fanout lc), avg_out)
     | true, false, _ -> ((if by then 0.3 else avg_out), avg_out)
     | false, true, true ->
       let lc = match l with
         | Ast.L_const s -> st.label_cnt s
         | Ast.L_var _ -> st.n_edges /. st.n_labels
       in
       (Float.max 0.2 (label_fanout lc), Float.max 1. (label_fanout lc))
     | false, true, false ->
       let lc = match l with
         | Ast.L_const s -> st.label_cnt s
         | Ast.L_var _ -> st.n_edges /. st.n_labels
       in
       (Float.max 1. lc, Float.max 1. lc)
     | false, false, true -> (avg_out, avg_out)
     | false, false, false -> (st.n_edges, st.n_edges))
  | CC_path (x, _, _, y) ->
    let bx = term_bound bound x and by = term_bound bound y in
    (* work models the kernel's per-conjunct lanes: a forward product
       BFS from a bound source is degree-bounded (and memoized across
       rows); a bound target runs one backward sweep instead of an
       all-sources enumeration; fanouts are unchanged so heuristic
       plans — and the orderings every golden build depends on — do
       not move *)
    (match bx, by with
     | true, true -> (0.5, st.avg_out +. 1.)
     | true, false -> (st.n_nodes /. 2., st.avg_out +. 1.)
     | false, true -> (st.n_nodes /. 2., st.n_edges +. st.n_nodes)
     | false, false ->
       (st.n_nodes *. st.n_nodes /. 4., st.n_nodes *. (st.avg_out +. 1.)))
  | CC_cmp (Ast.Eq, a, b) when term_bound bound a && term_bound bound b ->
    (0.3, 1.)
  | CC_cmp (Ast.Eq, _, _) -> (1., 1.)  (* binder *)
  | CC_cmp (_, _, _) -> (0.4, 1.)
  | CC_in (t, _) when term_bound bound t -> (0.5, 1.)
  | CC_in (_, vs) -> (float_of_int (List.length vs), 1.)
  | CC_not c -> let _, w = estimate st bound c in (0.5, w)

(* --- Active-domain pre-pass --- *)

(** Fixpoint of variables bindable by positive conditions. *)
let bindable_vars ?limited conds bound0 =
  let rec fix bound =
    let bound' =
      List.fold_left
        (fun acc c ->
          if executable ?limited acc c then
            List.fold_left (fun s v -> VSet.add v s) acc (ccond_binds c)
          else acc)
        bound conds
    in
    if VSet.equal bound' bound then bound else fix bound'
  in
  fix bound0

(** Domain enumerators for variables needed but never positively bound.
    "Needed" means: used in construction clauses, or occurring in a
    positive (non-negated) condition.  A variable that occurs {e only}
    under a negation is existential inside the [not] and gets no domain
    enumerator. *)
let domain_steps ?limited conds ~bound0 ~needed_obj ~needed_label =
  let bindable = bindable_vars ?limited conds bound0 in
  let lim = match limited with Some l -> l | None -> [] in
  let cond_vars =
    Ast.dedup
      (List.concat_map
         (fun c ->
           match c with
           | CC_not _ -> []
           (* a variable whose only role is probing a limited source
              gets no active-domain enumerator: the source requires a
              genuinely bound input, not a fabricated one *)
           | CC_coll (name, _) when List.mem name lim -> []
           | c -> ccond_vars [] c)
         conds)
  in
  let label_positions =
    List.concat_map
      (fun c ->
        let rec lv acc = function
          | CC_edge (_, Ast.L_var v, _) -> v :: acc
          | CC_not c -> lv acc c
          | _ -> acc
        in
        lv [] c)
      conds
  in
  let needed = Ast.dedup (needed_obj @ needed_label @ cond_vars) in
  List.filter_map
    (fun v ->
      if VSet.mem v bindable then None
      else if List.mem v needed_label || List.mem v label_positions then
        Some (Domain_label v)
      else Some (Domain_obj v))
    needed

(* --- Collection/label footprint --- *)

type footprint = {
  fp_collections : string list;
  fp_labels : string list;
  fp_opaque : bool;
}

let empty_footprint = { fp_collections = []; fp_labels = []; fp_opaque = false }

let rec path_footprint acc = function
  | Path.Epsilon -> acc
  | Path.Edge (Path.Label l) -> { acc with fp_labels = l :: acc.fp_labels }
  | Path.Edge (Path.Any | Path.Named_pred _) -> { acc with fp_opaque = true }
  | Path.Seq (a, b) | Path.Alt (a, b) -> path_footprint (path_footprint acc a) b
  | Path.Star a | Path.Plus a | Path.Opt a -> path_footprint acc a

let rec ccond_footprint acc = function
  | CC_coll (name, _) -> { acc with fp_collections = name :: acc.fp_collections }
  | CC_extern _ -> { acc with fp_opaque = true }
  | CC_edge (_, Ast.L_const l, _) -> { acc with fp_labels = l :: acc.fp_labels }
  | CC_edge (_, Ast.L_var _, _) -> { acc with fp_opaque = true }
  | CC_path (_, r, _, _) -> path_footprint acc r
  | CC_cmp _ | CC_in _ -> acc
  | CC_not c -> ccond_footprint acc c

let step_footprint acc = function
  | Exec c -> ccond_footprint acc c
  | Domain_obj _ | Domain_label _ -> { acc with fp_opaque = true }

let footprint steps =
  let fp = List.fold_left step_footprint empty_footprint steps in
  {
    fp with
    fp_collections = Ast.dedup fp.fp_collections;
    fp_labels = Ast.dedup fp.fp_labels;
  }

let rec ccond_walks = function
  | CC_path _ -> true
  | CC_not c -> ccond_walks c
  | CC_coll _ | CC_extern _ | CC_edge _ | CC_cmp _ | CC_in _ -> false

let delta_footprint steps =
  let fp = footprint steps in
  if
    List.exists
      (function
        | Exec c -> ccond_walks c | Domain_obj _ | Domain_label _ -> false)
      steps
  then { fp with fp_opaque = true }
  else fp

let step_binds = function
  | Exec c -> ccond_binds c
  | Domain_obj v | Domain_label v -> [ v ]

let add_binds bound step =
  List.fold_left (fun s v -> VSet.add v s) bound (step_binds step)

(* --- Ordering strategies --- *)

let order_naive ?limited ~universe _st steps0 bound0 =
  (* textual order, postponing filters until their variables are bound *)
  let rec go bound pending acc =
    match pending with
    | [] -> List.rev acc
    | _ ->
      (match
         List.find_opt
           (fun s ->
             match s with
             | Exec c -> executable ?limited ~universe bound c
             | Domain_obj _ | Domain_label _ -> true)
           pending
       with
       | Some s ->
         let pending = List.filter (fun s' -> s' != s) pending in
         go (add_binds bound s) pending (s :: acc)
       | None ->
         (* cannot happen after the domain pre-pass, but stay total *)
         let s = List.hd pending in
         go (add_binds bound s) (List.tl pending) (s :: acc))
  in
  go bound0 steps0 []

let order_heuristic ?limited ~universe st steps0 bound0 =
  let rec go bound pending acc =
    match pending with
    | [] -> List.rev acc
    | _ ->
      let best = ref None in
      List.iter
        (fun s ->
          let cost =
            match s with
            | Exec c when executable ?limited ~universe bound c ->
              fst (estimate st bound c)
            | Exec _ -> Float.infinity
            | Domain_obj _ -> st.n_objects *. 4.  (* last resort *)
            | Domain_label _ -> st.n_labels *. 4.
          in
          match !best with
          | Some (_, bc) when bc <= cost -> ()
          | _ -> if cost < Float.infinity then best := Some (s, cost))
        pending;
      (match !best with
       | Some (s, _) ->
         let pending = List.filter (fun s' -> s' != s) pending in
         go (add_binds bound s) pending (s :: acc)
       | None ->
         let s = List.hd pending in
         go (add_binds bound s) (List.tl pending) (s :: acc))
  in
  go bound0 steps0 []

let order_cost_based ?limited ~universe st steps0 bound0 =
  let steps = Array.of_list steps0 in
  let n = Array.length steps in
  if n > 14 then order_heuristic ?limited ~universe st steps0 bound0
  else begin
    let full = (1 lsl n) - 1 in
    (* best.(mask) = (cost, cardinality, order as reversed index list) *)
    let best = Array.make (full + 1) None in
    best.(0) <- Some (0., 1., []);
    let bound_of_mask = Array.make (full + 1) bound0 in
    for mask = 1 to full do
      (* bound set = bound0 + binds of all steps in mask *)
      let b = ref bound0 in
      for i = 0 to n - 1 do
        if mask land (1 lsl i) <> 0 then b := add_binds !b steps.(i)
      done;
      bound_of_mask.(mask) <- !b
    done;
    for mask = 0 to full - 1 do
      match best.(mask) with
      | None -> ()
      | Some (cost, card, order) ->
        let bound = bound_of_mask.(mask) in
        for i = 0 to n - 1 do
          if mask land (1 lsl i) = 0 then begin
            let fanout, work =
              match steps.(i) with
              | Exec c ->
                if executable ?limited ~universe bound c then
                  estimate st bound c
                else (Float.infinity, Float.infinity)
              | Domain_obj _ -> (st.n_objects, st.n_objects)
              | Domain_label _ -> (st.n_labels, st.n_labels)
            in
            if fanout < Float.infinity then begin
              let card' = Float.max 0.01 (card *. fanout) in
              let cost' = cost +. (card *. work) +. card' in
              let mask' = mask lor (1 lsl i) in
              match best.(mask') with
              | Some (c0, _, _) when c0 <= cost' -> ()
              | _ -> best.(mask') <- Some (cost', card', i :: order)
            end
          end
        done
    done;
    match best.(full) with
    | Some (_, _, order_rev) ->
      List.rev_map (fun i -> steps.(i)) order_rev
    | None -> order_heuristic ?limited ~universe st steps0 bound0
  end

let pp_step ppf = function
  | Exec c ->
    let rec to_cond = function
      | CC_coll (n, t) -> Ast.C_atom (n, [ t ])
      | CC_extern (n, ts) -> Ast.C_atom (n, ts)
      | CC_edge (x, l, y) -> Ast.C_edge (x, l, y)
      | CC_path (x, r, _, y) -> Ast.C_path (x, r, y)
      | CC_cmp (o, a, b) -> Ast.C_cmp (o, a, b)
      | CC_in (t, vs) -> Ast.C_in (t, vs)
      | CC_not c -> Ast.C_not (to_cond c)
    in
    Pretty.pp_condition ppf (to_cond c)
  | Domain_obj v -> Fmt.pf ppf "domain(%s)" v
  | Domain_label v -> Fmt.pf ppf "label-domain(%s)" v

(** An unexecutable plan: some limited-access source can never be
    probed with bound arguments. *)
exception No_plan of string

let plan ?(strategy = Heuristic) ?(limited = []) ~registry g ~bound
    ~needed_obj ~needed_label conds =
  let ccs = List.map (compile registry) conds in
  let bound0 = List.fold_left (fun s v -> VSet.add v s) VSet.empty bound in
  let domains = domain_steps ~limited ccs ~bound0 ~needed_obj ~needed_label in
  let steps0 = List.map (fun c -> Exec c) ccs @ domains in
  (* the universe of variables this plan will ever bind: negated
     variables outside it stay existential within their [not] *)
  let universe =
    List.fold_left
      (fun u s -> List.fold_left (fun u v -> VSet.add v u) u (step_binds s))
      (bindable_vars ccs bound0)
      domains
  in
  let st = stats_of_graph g in
  let ordered =
    match strategy with
    | Naive -> order_naive ~limited ~universe st steps0 bound0
    | Heuristic -> order_heuristic ~limited ~universe st steps0 bound0
    | Cost_based -> order_cost_based ~limited ~universe st steps0 bound0
  in
  (* verify the ordering actually satisfies the access patterns: with a
     limited source whose probe variable nothing binds, the greedy
     fallbacks above may emit an unexecutable step *)
  let rec verify bound = function
    | [] -> ()
    | s :: rest ->
      (match s with
       | Exec c ->
         if not (executable ~limited ~universe bound c) then
           raise
             (No_plan
                (Fmt.str
                   "no executable plan: %a requires bound access" pp_step s))
       | Domain_obj _ | Domain_label _ -> ());
      verify
        (List.fold_left (fun b v -> VSet.add v b) bound (step_binds s))
        rest
  in
  verify bound0 ordered;
  ordered

(* --- differential-evaluation classification (Delta-StruQL) ---

   A top-level block is differentially evaluable when its plan opens
   with an unbound collection scan (the driver) and every later step is
   anchored: it only reads forward from already-bound objects, so the
   block's rows for one driver value are a function of that driver's
   forward neighbourhood.  Anything else — negation, active-domain
   enumerators, opaque externs, aggregate link targets, a second
   unbound scan (cross product) — makes per-driver re-derivation
   unsound or unbounded and falls back to full re-evaluation.

   A driven block also records its read depth: the most forward hops
   from the driver at which its subtree reads an out-bucket (an edge
   step) or a membership (a collection probe), [max_int] when a path
   condition reads arbitrarily far. *)

type delta_class =
  | D_static  (** no generators, and every nested block anchored *)
  | D_driven of string * string * int
      (** driving collection, driver var, read depth *)
  | D_fallback of string  (** reason the block cannot delta-evaluate *)

let unbounded_depth = max_int

module VMap = Map.Make (String)

let block_has_agg (b : Ast.block) =
  List.exists
    (fun (_, _, y) -> match y with Ast.T_agg _ -> true | _ -> false)
    b.Ast.link

(* The anchoring state threaded through a subtree's steps: the bound
   variables; the driver-derived ones, each at its hop distance from
   the driver; and the deepest read so far. *)
type anchoring = { a_bound : VSet.t; a_der : int VMap.t; a_reads : int }

let hop d = if d = unbounded_depth then d else d + 1

let anchored_step ~pure st (s : step) : (anchoring, string) result =
  (* [a_der] are the driver-derived variables: values reached only by
     forward reads from the driver, so backward closure from a touched
     object finds every driver whose reads it can invalidate.  A data
     read anchored on a bound-but-not-derived object (a constant, or a
     binding minted by a comparison with a literal) is a global filter
     the closure cannot see, and must fall back.  A variable an edge
     step binds sits one hop past the step's source; one a path binds,
     unboundedly far. *)
  let binds = step_binds s in
  let extend ?at ~reads () =
    let a_bound = List.fold_left (fun b v -> VSet.add v b) st.a_bound binds in
    (* [binds] names the step's bound variables too: an object reached
       twice keeps its fewest hops *)
    let a_der =
      match at with
      | Some d ->
        List.fold_left
          (fun m v ->
            VMap.update v
              (function Some d0 -> Some (min d0 d) | None -> Some d)
              m)
          st.a_der binds
      | None -> st.a_der
    in
    Ok { a_bound; a_der; a_reads = max st.a_reads reads }
  in
  let depth = function
    | Ast.T_var v -> VMap.find_opt v st.a_der
    | _ -> None
  in
  let bound = st.a_bound in
  match s with
  | Domain_obj _ | Domain_label _ -> Error "active-domain enumerator"
  | Exec c ->
    (match c with
     | CC_coll (name, t) -> (
       match depth t with
       | Some d -> extend ~at:d ~reads:d ()
       | None ->
         if term_bound bound t then
           Error ("collection " ^ name ^ " probed on a non-derived object")
         else Error ("unbound scan of collection " ^ name))
     | CC_edge (x, _, _) -> (
       match depth x with
       | Some d -> extend ~at:(hop d) ~reads:d ()
       | None ->
         if term_bound bound x then
           Error "edge condition anchored on a non-derived source"
         else Error "edge condition with unbound source")
     | CC_path (x, _, _, _) -> (
       match depth x with
       | Some _ -> extend ~at:unbounded_depth ~reads:unbounded_depth ()
       | None ->
         if term_bound bound x then
           Error "path condition anchored on a non-derived source"
         else Error "path condition with unbound source")
     | CC_cmp (_, a, b) ->
       (* pure value comparison: no graph read, so a constant anchor is
          fine — but a binding it mints is only derived if a compared
          side is, at that side's depth *)
       if term_bound bound a || term_bound bound b then
         let at =
           match depth a, depth b with
           | Some d, Some d' -> Some (min d d')
           | Some d, None | None, Some d -> Some d
           | None, None -> None
         in
         extend ?at ~reads:0 ()
       else Error "comparison over unbound variables"
     | CC_in (_, _) -> extend ~reads:0 ()
     | CC_extern (name, ts) ->
       if not (pure name) then Error ("opaque external predicate " ^ name)
       else if List.for_all (term_bound bound) ts then extend ~reads:0 ()
       else Error ("external predicate " ^ name ^ " binds its argument")
     | CC_not _ -> Error "negation")

let anchored_steps ~pure st steps =
  List.fold_left
    (fun acc s ->
      match acc with Error _ -> acc | Ok st -> anchored_step ~pure st s)
    (Ok st) steps

(* One top-level block with its whole nested subtree: driven only when
   the block's plan opens with an unbound driving-collection scan and
   every later step — every nested block's included, under the
   anchoring state threaded down the tree — anchors its data reads on
   driver-derived objects.  A block delta-evaluates with its subtree or
   not at all, since the engine replays a fallback block's nested
   blocks with it.  The read depth is the deepest read of the whole
   subtree. *)
let delta_class ~pure ~plan (b : Ast.block) : delta_class =
  let rec nested st bound (blk : Ast.block) =
    List.fold_left
      (fun acc (nb : Ast.block) ->
        match acc with
        | Error _ -> acc
        | Ok reads ->
          if block_has_agg nb then
            Error "aggregate link target in a nested block"
          else
            let steps = plan ~bound nb in
            match anchored_steps ~pure st steps with
            | Error e -> Error e
            | Ok st' ->
              let bound' =
                Ast.dedup (bound @ List.concat_map step_binds steps)
              in
              Result.map (max reads) (nested st' bound' nb))
      (Ok st.a_reads) blk.Ast.nested
  in
  if block_has_agg b then D_fallback "aggregate link target"
  else
    let steps = plan ~bound:[] b in
    let bound = Ast.dedup (List.concat_map step_binds steps) in
    let with_nested st cls =
      match nested st bound b with
      | Ok reads -> cls reads
      | Error e -> D_fallback e
    in
    match steps with
    | [] ->
      with_nested
        { a_bound = VSet.empty; a_der = VMap.empty; a_reads = 0 }
        (fun _ -> D_static)
    | Exec (CC_coll (cname, Ast.T_var v)) :: rest -> (
        let seed =
          {
            a_bound = VSet.singleton v;
            a_der = VMap.singleton v 0;
            a_reads = 0;
          }
        in
        match anchored_steps ~pure seed rest with
        | Ok st -> with_nested st (fun reads -> D_driven (cname, v, reads))
        | Error e -> D_fallback e)
    | _ -> D_fallback "no driving collection scan"
