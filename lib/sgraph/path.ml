type edge_pred =
  | Label of string
  | Any
  | Named_pred of string * (string -> bool)

type t =
  | Epsilon
  | Edge of edge_pred
  | Seq of t * t
  | Alt of t * t
  | Star of t
  | Plus of t
  | Opt of t

let any_path = Star (Edge Any)

let seq_all = function
  | [] -> Epsilon
  | r :: rest -> List.fold_left (fun acc r' -> Seq (acc, r')) r rest

let edge_pred_matches p l =
  match p with
  | Label l' -> l = l'
  | Any -> true
  | Named_pred (_, f) -> f l

let rec nullable = function
  | Epsilon -> true
  | Edge _ -> false
  | Seq (a, b) -> nullable a && nullable b
  | Alt (a, b) -> nullable a || nullable b
  | Star _ | Opt _ -> true
  | Plus a -> nullable a

(* --- NFA (Thompson construction) --- *)

type builder = {
  mutable next : int;
  mutable eps_edges : (int * int) list;
  mutable trans_edges : (int * edge_pred * int) list;
}

let new_state b =
  let s = b.next in
  b.next <- s + 1;
  s

let add_eps b s s' = b.eps_edges <- (s, s') :: b.eps_edges
let add_trans b s p s' = b.trans_edges <- (s, p, s') :: b.trans_edges

type nfa = {
  id : int;                       (* process-unique, keys snapshot caches *)
  n : int;
  start : int;
  closure : int list array;       (* eps-closure of each state, ascending *)
  accepting : bool array;         (* accept reachable via eps *)
  trans : (edge_pred * int) list array;
}

let rec build b r =
  (* returns (entry, exit) *)
  match r with
  | Epsilon ->
    let s = new_state b in
    (s, s)
  | Edge p ->
    let s = new_state b and e = new_state b in
    add_trans b s p e;
    (s, e)
  | Seq (a, c) ->
    let sa, ea = build b a in
    let sc, ec = build b c in
    add_eps b ea sc;
    (sa, ec)
  | Alt (a, c) ->
    let s = new_state b and e = new_state b in
    let sa, ea = build b a in
    let sc, ec = build b c in
    add_eps b s sa;
    add_eps b s sc;
    add_eps b ea e;
    add_eps b ec e;
    (s, e)
  | Star a ->
    let s = new_state b and e = new_state b in
    let sa, ea = build b a in
    add_eps b s sa;
    add_eps b s e;
    add_eps b ea sa;
    add_eps b ea e;
    (s, e)
  | Plus a -> build b (Seq (a, Star a))
  | Opt a -> build b (Alt (a, Epsilon))

let nfa_counter = Atomic.make 0

let compile r =
  let b = { next = 0; eps_edges = []; trans_edges = [] } in
  let start, accept = build b r in
  let n = b.next in
  let eps = Array.make n [] in
  List.iter (fun (s, s') -> eps.(s) <- s' :: eps.(s)) b.eps_edges;
  (* eps-closures: one DFS per state over a shared stamp array (no
     fresh n-array per state), collecting the visit list directly *)
  let closure = Array.make n [] in
  let stamp = Array.make n (-1) in
  for s = 0 to n - 1 do
    let acc = ref [] in
    let rec go x =
      if stamp.(x) <> s then begin
        stamp.(x) <- s;
        acc := x :: !acc;
        List.iter go eps.(x)
      end
    in
    go s;
    closure.(s) <- List.sort compare !acc
  done;
  (* accepting states in a single reverse-closure pass: everything that
     reaches [accept] over eps edges, instead of List.mem per state *)
  let reps = Array.make n [] in
  List.iter (fun (s, s') -> reps.(s') <- s :: reps.(s')) b.eps_edges;
  let accepting = Array.make n false in
  let rec mark x =
    if not accepting.(x) then begin
      accepting.(x) <- true;
      List.iter mark reps.(x)
    end
  in
  mark accept;
  let trans = Array.make n [] in
  List.iter (fun (s, p, s') -> trans.(s) <- (p, s') :: trans.(s)) b.trans_edges;
  { id = Atomic.fetch_and_add nfa_counter 1; n; start; closure; accepting; trans }

let nfa_states a = a.n
let nfa_id a = a.id
let nfa_start_states a = a.closure.(a.start)
let nfa_is_accepting a s = a.accepting.(s)
let nfa_transitions a s = List.map (fun (p, s') -> (p, a.closure.(s'))) a.trans.(s)

(* --- dense symbol dispatch ---

   [dispatch_rows a labels] compiles the NFA against a concrete label
   alphabet: row (q, l) lists the product successor states of automaton
   state [q] over an edge labeled [labels.(l)] — the order-preserving
   dedup of the concatenation, in chronological transition order, of
   the (ascending) eps-closures of each matching transition's target.
   That is exactly the push order of the interpretive product BFS, so a
   search driven by these rows enqueues pairs in the same sequence.
   [Named_pred] predicates run once per (state, label) here — the
   fallback lane — and never during the search itself. *)

let dispatch_rows a (labels : string array) : int array array array =
  let nl = Array.length labels in
  let stamp = Array.make (max 1 a.n) (-1) in
  Array.init a.n (fun q ->
      Array.init nl (fun l ->
          let rid = (q * nl) + l in
          let row = ref [] in
          List.iter
            (fun (p, q') ->
              if edge_pred_matches p labels.(l) then
                List.iter
                  (fun q'' ->
                    if stamp.(q'') <> rid then begin
                      stamp.(q'') <- rid;
                      row := q'' :: !row
                    end)
                  a.closure.(q'))
            a.trans.(q);
          Array.of_list (List.rev !row)))

(* --- matcher: walking the automaton against a foreign label alphabet
   (e.g. a DataGuide product) without per-step predicate calls --- *)

type matcher = {
  m_start : int array;
  m_accepting : bool array;
  m_rows : int array array array;
}

let matcher a ~labels =
  {
    m_start = Array.of_list a.closure.(a.start);
    m_accepting = Array.copy a.accepting;
    m_rows = dispatch_rows a labels;
  }

let matcher_start m = m.m_start
let matcher_accepting m q = m.m_accepting.(q)
let matcher_row m q l = m.m_rows.(q).(l)

(* --- compiled kernel engine over a frozen Csr snapshot --- *)

type prepared = {
  pcsr : Csr.t;
  nstates : int;
  start_states : int array;
  p_accepting : bool array;
  is_start : bool array;
  dispatch : int array array array;   (* state -> local label -> successors *)
  rdispatch : int array array array;  (* state -> local label -> predecessors *)
  visited : int array;                (* (tcode * nstates + state) -> epoch *)
  seen_t : int array;                 (* tcode -> epoch *)
  mutable epoch : int;
  mutable qbuf : int array;
  mutable qhead : int;
  mutable qtail : int;
  memo_fwd : (int, Graph.target list) Hashtbl.t;
  memo_bwd : (int list, Oid.t list) Hashtbl.t;
}

type Csr.cache += Prepared of prepared

let build_prepared (s : Csr.t) a =
  let dispatch = dispatch_rows a s.Csr.label_names in
  let rrows = Array.init a.n (fun _ -> Array.make (max 1 s.Csr.n_labels) []) in
  Array.iteri
    (fun q rows ->
      Array.iteri
        (fun l row ->
          Array.iter (fun q'' -> rrows.(q'').(l) <- q :: rrows.(q'').(l)) row)
        rows)
    dispatch;
  let is_start = Array.make a.n false in
  List.iter (fun q -> is_start.(q) <- true) a.closure.(a.start);
  let ntc = s.Csr.n_nodes + s.Csr.n_values in
  {
    pcsr = s;
    nstates = a.n;
    start_states = Array.of_list a.closure.(a.start);
    p_accepting = Array.copy a.accepting;
    is_start;
    dispatch;
    rdispatch = Array.map (Array.map (fun l -> Array.of_list l)) rrows;
    visited = Array.make (max 1 (a.n * ntc)) 0;
    seen_t = Array.make (max 1 ntc) 0;
    epoch = 0;
    qbuf = Array.make 256 0;
    qhead = 0;
    qtail = 0;
    memo_fwd = Hashtbl.create 64;
    memo_bwd = Hashtbl.create 16;
  }

let prepare (s : Csr.t) a =
  match Hashtbl.find_opt s.Csr.cache a.id with
  | Some (Prepared p) -> p
  | _ ->
    let p = build_prepared s a in
    Hashtbl.replace s.Csr.cache a.id (Prepared p);
    p

let q_reset p =
  p.qhead <- 0;
  p.qtail <- 0

let q_push p c =
  if p.qtail = Array.length p.qbuf then begin
    let bigger = Array.make (2 * Array.length p.qbuf) 0 in
    Array.blit p.qbuf 0 bigger 0 p.qtail;
    p.qbuf <- bigger
  end;
  p.qbuf.(p.qtail) <- c;
  p.qtail <- p.qtail + 1

(* Forward product BFS from one source node index.  Pair (tcode, state)
   enqueue order mirrors the interpretive BFS exactly (see
   [dispatch_rows]), accepting tcodes are recorded on dequeue, so the
   decoded result list is identical — order included — to the legacy
   [eval_from].  Results are memoized per source; the epoch-stamped
   visited/seen tables are shared across all sources of a conjunct. *)
let kernel_eval_from p src_i =
  match Hashtbl.find_opt p.memo_fwd src_i with
  | Some r ->
    Atomic.incr p.pcsr.Csr.stats.Csr.hits;
    r
  | None ->
    Atomic.incr p.pcsr.Csr.stats.Csr.misses;
    let s = p.pcsr in
    let ns = p.nstates in
    let nn = s.Csr.n_nodes in
    p.epoch <- p.epoch + 1;
    let ep = p.epoch in
    q_reset p;
    let push q tc =
      let c = (tc * ns) + q in
      if p.visited.(c) <> ep then begin
        p.visited.(c) <- ep;
        q_push p c
      end
    in
    Array.iter (fun q -> push q src_i) p.start_states;
    let out_rev = ref [] in
    while p.qhead < p.qtail do
      let c = p.qbuf.(p.qhead) in
      p.qhead <- p.qhead + 1;
      let q = c mod ns and tc = c / ns in
      if p.p_accepting.(q) && p.seen_t.(tc) <> ep then begin
        p.seen_t.(tc) <- ep;
        out_rev := tc :: !out_rev
      end;
      if tc < nn then
        for e = s.Csr.fwd_off.(tc) to s.Csr.fwd_off.(tc + 1) - 1 do
          let row = p.dispatch.(q).(s.Csr.fwd_lab.(e)) in
          if Array.length row > 0 then begin
            let t = s.Csr.fwd_tgt.(e) in
            for j = 0 to Array.length row - 1 do
              push row.(j) t
            done
          end
        done
    done;
    let res = List.rev_map (Graph.decode_tcode s) !out_rev in
    Hashtbl.add p.memo_fwd src_i res;
    res

(* Backward lane: all source nodes from which some probe tcode is
   reachable under the automaton — a complete candidate set (callers
   re-confirm forward, so a superset is safe; a subset never happens by
   reverse-reachability completeness).  Candidates come out in node
   index order, i.e. [Graph.nodes] order.  Degree statistics gate the
   search: probes with zero in-degree can only be their own witnesses
   (nullable case), no BFS needed. *)
let kernel_sources p probes =
  match Hashtbl.find_opt p.memo_bwd probes with
  | Some r ->
    Atomic.incr p.pcsr.Csr.stats.Csr.hits;
    r
  | None ->
    Atomic.incr p.pcsr.Csr.stats.Csr.misses;
    let s = p.pcsr in
    let ns = p.nstates in
    let nn = s.Csr.n_nodes in
    let res =
      let total_in =
        List.fold_left (fun acc tc -> acc + Csr.in_degree s tc) 0 probes
      in
      if total_in = 0 then
        if Array.exists (fun q -> p.p_accepting.(q)) p.start_states then
          (* nullable: each probe node is its own (only) source *)
          List.filter_map
            (fun tc -> if tc < nn then Some s.Csr.node_ids.(tc) else None)
            probes
        else []
      else begin
        p.epoch <- p.epoch + 1;
        let ep = p.epoch in
        q_reset p;
        let push q tc =
          let c = (tc * ns) + q in
          if p.visited.(c) <> ep then begin
            p.visited.(c) <- ep;
            q_push p c
          end
        in
        List.iter
          (fun tc ->
            for q = 0 to ns - 1 do
              if p.p_accepting.(q) then push q tc
            done)
          probes;
        let cand = Array.make (max 1 nn) false in
        while p.qhead < p.qtail do
          let c = p.qbuf.(p.qhead) in
          p.qhead <- p.qhead + 1;
          let q = c mod ns and tc = c / ns in
          if tc < nn && p.is_start.(q) then cand.(tc) <- true;
          for e = s.Csr.rev_off.(tc) to s.Csr.rev_off.(tc + 1) - 1 do
            let row = p.rdispatch.(q).(s.Csr.rev_lab.(e)) in
            if Array.length row > 0 then begin
              let i = s.Csr.rev_src.(e) in
              for j = 0 to Array.length row - 1 do
                push row.(j) i
              done
            end
          done
        done;
        let acc = ref [] in
        for i = nn - 1 downto 0 do
          if cand.(i) then acc := s.Csr.node_ids.(i) :: !acc
        done;
        !acc
      end
    in
    Hashtbl.add p.memo_bwd probes res;
    res

let kernel_for g a =
  match Graph.snapshot g with Some s -> Some (prepare s a) | None -> None

(* --- evaluation --- *)

let legacy_eval_from g a src =
  let visited = Hashtbl.create 64 in
  let results_seen = Hashtbl.create 16 in
  let results_rev = ref [] in
  let record t =
    let k = Graph.(match t with N o -> `N (Oid.id o) | V v -> `V v) in
    if not (Hashtbl.mem results_seen k) then begin
      Hashtbl.add results_seen k ();
      results_rev := t :: !results_rev
    end
  in
  let queue = Queue.create () in
  let push s t =
    let k =
      Graph.(match t with N o -> (s, `N (Oid.id o)) | V v -> (s, `V v))
    in
    if not (Hashtbl.mem visited k) then begin
      Hashtbl.add visited k ();
      Queue.add (s, t) queue
    end
  in
  List.iter (fun s -> push s (Graph.N src)) a.closure.(a.start);
  while not (Queue.is_empty queue) do
    let s, t = Queue.pop queue in
    if a.accepting.(s) then record t;
    match t with
    | Graph.V _ -> ()
    | Graph.N o ->
      List.iter
        (fun (l, tgt) ->
          List.iter
            (fun (p, s') ->
              if edge_pred_matches p l then
                List.iter (fun s'' -> push s'' tgt) a.closure.(s'))
            a.trans.(s))
        (Graph.out_edges g o)
  done;
  List.rev !results_rev

let eval_from ?nfa g r src =
  let a = match nfa with Some a -> a | None -> compile r in
  match kernel_for g a with
  | Some p -> (
      match Csr.node_index p.pcsr src with
      | Some i -> kernel_eval_from p i
      | None ->
        (* source unknown to the snapshot (not a node of the graph) *)
        legacy_eval_from g a src)
  | None -> legacy_eval_from g a src

let matches ?nfa g r src tgt =
  List.exists (Graph.target_equal tgt) (eval_from ?nfa g r src)

let eval_pairs ?nfa g r ~sources =
  let a = match nfa with Some a -> a | None -> compile r in
  List.concat_map
    (fun src -> List.map (fun t -> (src, t)) (eval_from ~nfa:a g r src))
    sources

type probe = Pnode of Oid.t | Pvalue of Value.t

let candidate_sources ?nfa g r ~towards =
  let a = match nfa with Some a -> a | None -> compile r in
  match kernel_for g a with
  | None -> None
  | Some p ->
    let s = p.pcsr in
    let nn = s.Csr.n_nodes in
    let probes =
      match towards with
      | Pnode o -> (
          match Csr.node_index s o with Some i -> [ i ] | None -> [])
      | Pvalue v ->
        let acc = ref [] in
        for k = s.Csr.n_values - 1 downto 0 do
          let v' = s.Csr.values.(k) in
          if Value.equal v v' || Value.coerce_equal v v' then
            acc := (nn + k) :: !acc
        done;
        !acc
    in
    Some (kernel_sources p probes)

(* --- Reference semantics (for tests) --- *)

module Pairs = struct
  type key = (int, Value.t) Either.t

  let key = function
    | Graph.N o -> Either.Left (Oid.id o)
    | Graph.V v -> Either.Right v

  type t = {
    tbl : (key * key, unit) Hashtbl.t;
    mutable list_rev : (Graph.target * Graph.target) list;
  }

  let create () = { tbl = Hashtbl.create 64; list_rev = [] }
  let mem p x y = Hashtbl.mem p.tbl (key x, key y)

  let add p x y =
    if not (mem p x y) then begin
      Hashtbl.add p.tbl (key x, key y) ();
      p.list_rev <- (x, y) :: p.list_rev
    end

  let to_list p = List.rev p.list_rev
  let of_list l =
    let p = create () in
    List.iter (fun (x, y) -> add p x y) l;
    p
end

let all_objects g =
  let p = Hashtbl.create 64 in
  let acc = ref [] in
  let record t =
    let k = Pairs.key t in
    if not (Hashtbl.mem p k) then begin
      Hashtbl.add p k ();
      acc := t :: !acc
    end
  in
  List.iter (fun o -> record (Graph.N o)) (Graph.nodes g);
  Graph.iter_edges (fun _ _ t -> record t) g;
  List.rev !acc

let rec eval_ref g r =
  match r with
  | Epsilon -> List.map (fun t -> (t, t)) (all_objects g)
  | Edge p ->
    Graph.fold_edges
      (fun src l tgt acc ->
        if edge_pred_matches p l then (Graph.N src, tgt) :: acc else acc)
      g []
    |> List.rev
  | Alt (a, b) ->
    let p = Pairs.of_list (eval_ref g a) in
    List.iter (fun (x, y) -> Pairs.add p x y) (eval_ref g b);
    Pairs.to_list p
  | Seq (a, b) ->
    let ra = eval_ref g a and rb = eval_ref g b in
    let p = Pairs.create () in
    List.iter
      (fun (x, y) ->
        List.iter
          (fun (y', z) -> if Graph.target_equal y y' then Pairs.add p x z)
          rb)
      ra;
    Pairs.to_list p
  | Opt a ->
    let p = Pairs.of_list (eval_ref g Epsilon) in
    List.iter (fun (x, y) -> Pairs.add p x y) (eval_ref g a);
    Pairs.to_list p
  | Plus a ->
    (* least fixpoint: A ∪ A;A ∪ ... *)
    let base = eval_ref g a in
    let p = Pairs.of_list base in
    let changed = ref true in
    while !changed do
      changed := false;
      let current = Pairs.to_list p in
      List.iter
        (fun (x, y) ->
          List.iter
            (fun (y', z) ->
              if Graph.target_equal y y' && not (Pairs.mem p x z) then begin
                Pairs.add p x z;
                changed := true
              end)
            base)
        current
    done;
    Pairs.to_list p
  | Star a ->
    let p = Pairs.of_list (eval_ref g Epsilon) in
    List.iter (fun (x, y) -> Pairs.add p x y) (eval_ref g (Plus a));
    Pairs.to_list p

let rec pp ppf = function
  | Epsilon -> Fmt.string ppf "()"
  | Edge (Label l) -> Fmt.pf ppf "%S" l
  | Edge Any -> Fmt.string ppf "true"
  | Edge (Named_pred (n, _)) -> Fmt.string ppf n
  | Seq (a, b) -> Fmt.pf ppf "%a.%a" pp_atom a pp_atom b
  | Alt (a, b) -> Fmt.pf ppf "(%a | %a)" pp a pp b
  | Star (Edge Any) -> Fmt.string ppf "*"
  | Star a -> Fmt.pf ppf "%a*" pp_atom a
  | Plus a -> Fmt.pf ppf "%a+" pp_atom a
  | Opt a -> Fmt.pf ppf "%a?" pp_atom a

and pp_atom ppf r =
  match r with
  | Seq _ | Alt _ -> Fmt.pf ppf "(%a)" pp r
  | _ -> pp ppf r
