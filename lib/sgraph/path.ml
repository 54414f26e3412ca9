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

(* The kernel's state for one automaton on one graph: dispatch rows
   over the graph's label ids, epoch-stamped (code, state) visited and
   seen tables, the BFS queue, and per-source memos.  A node's code is
   its slot, a value's is [slots + value id]: dense over the graph as of
   generation [p_gen], which the memos hold for. *)
type prepared = {
  nstates : int;
  start_states : int array;
  p_accepting : bool array;
  is_start : bool array;
  mutable p_gen : int;
  mutable slots : int;                (* slot count at [p_gen] *)
  mutable n_labels : int;             (* labels the rows cover *)
  mutable dispatch : int array array array;  (* state -> label -> succs *)
  mutable rdispatch : int array array array;  (* state -> label -> preds *)
  mutable visited : int array;        (* (code * nstates + state) -> epoch *)
  mutable seen_t : int array;         (* code -> epoch *)
  mutable epoch : int;
  mutable qbuf : int array;
  mutable qhead : int;
  mutable qtail : int;
  memo_fwd : (int, Graph.target list) Hashtbl.t;
  memo_bwd : (int list, Oid.t list) Hashtbl.t;
}

type nfa = {
  n : int;
  start : int;
  closure : int list array;       (* eps-closure of each state, ascending *)
  accepting : bool array;         (* accept reachable via eps *)
  trans : (edge_pred * int) list array;
  (* the kernel state for the graph last evaluated on, held only as
     long as that graph is alive *)
  mutable kernel : (Graph.t, prepared) Ephemeron.K1.t option;
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
  { n; start; closure; accepting; trans; kernel = None }

let nfa_states a = a.n
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

(* --- compiled kernel over the live slot adjacency --- *)

let reverse_rows a dispatch nl =
  let rrows = Array.init a.n (fun _ -> Array.make nl []) in
  Array.iteri
    (fun q rows ->
      Array.iteri
        (fun l row ->
          Array.iter (fun q'' -> rrows.(q'').(l) <- q :: rrows.(q'').(l)) row)
        rows)
    dispatch;
  Array.map (Array.map Array.of_list) rrows

let fresh_prepared a =
  let is_start = Array.make a.n false in
  List.iter (fun q -> is_start.(q) <- true) a.closure.(a.start);
  {
    nstates = a.n;
    start_states = Array.of_list a.closure.(a.start);
    p_accepting = Array.copy a.accepting;
    is_start;
    p_gen = -1;
    slots = 0;
    n_labels = -1;
    dispatch = [||];
    rdispatch = [||];
    visited = [||];
    seen_t = [||];
    epoch = 0;
    qbuf = Array.make 256 0;
    qhead = 0;
    qtail = 0;
    memo_fwd = Hashtbl.create 64;
    memo_bwd = Hashtbl.create 16;
  }

(* Bring [p] to generation [gen] of [g]: memos go, rows follow new
   labels, and the stamped tables grow to the code space (their stale
   stamps are older than any later epoch). *)
let refresh a p g gen =
  Hashtbl.reset p.memo_fwd;
  Hashtbl.reset p.memo_bwd;
  let nl = Graph.Slots.label_count g in
  if nl <> p.n_labels then begin
    p.dispatch <- dispatch_rows a (Array.init nl (Graph.Slots.label_name g));
    p.rdispatch <- reverse_rows a p.dispatch nl;
    p.n_labels <- nl
  end;
  p.slots <- Graph.Slots.count g;
  let codes = max 1 (p.slots + Graph.Slots.value_count g) in
  if Array.length p.seen_t < codes then begin
    let size = max codes (2 * Array.length p.seen_t) in
    p.seen_t <- Array.make size 0;
    p.visited <- Array.make (size * a.n) 0
  end;
  p.p_gen <- gen

(* The kernel state of [a] on [g], current with [g]'s generation. *)
let prepare g a =
  let gen = Graph.generation g in
  let p =
    match Option.bind a.kernel (fun k -> Ephemeron.K1.query k g) with
    | Some p -> p
    | None ->
      let p = fresh_prepared a in
      a.kernel <- Some (Ephemeron.K1.make g p);
      p
  in
  if p.p_gen <> gen then refresh a p g gen;
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

let push p ep q code =
  let c = (code * p.nstates) + q in
  if p.visited.(c) <> ep then begin
    p.visited.(c) <- ep;
    q_push p c
  end

let code_of p tk =
  let i = Graph.Slots.index tk in
  if Graph.Slots.is_node tk then i else p.slots + i

let key_of p code =
  if code < p.slots then Graph.Slots.node_key code
  else Graph.Slots.value_key (code - p.slots)

(* Forward product BFS from one source slot.  Pair (code, state)
   enqueue order is the interpretive BFS's exactly (see
   [dispatch_rows]: the out-bucket in insertion order, each edge's row
   in push order), and accepting codes are recorded on dequeue, so the
   result list is the BFS's, order included.  Results are memoized per
   source; the epoch-stamped tables serve every source. *)
let kernel_eval_from g p src =
  match Hashtbl.find_opt p.memo_fwd src with
  | Some r ->
    Graph.Slots.hit g;
    r
  | None ->
    Graph.Slots.miss g;
    let ns = p.nstates in
    p.epoch <- p.epoch + 1;
    let ep = p.epoch in
    q_reset p;
    Array.iter (fun q -> push p ep q src) p.start_states;
    let out_rev = ref [] in
    while p.qhead < p.qtail do
      let c = p.qbuf.(p.qhead) in
      p.qhead <- p.qhead + 1;
      let q = c mod ns and code = c / ns in
      if p.p_accepting.(q) && p.seen_t.(code) <> ep then begin
        p.seen_t.(code) <- ep;
        out_rev := code :: !out_rev
      end;
      if code < p.slots then begin
        let ids = Graph.Slots.out g code and rows = p.dispatch.(q) in
        for i = 0 to Graph.Slots.out_len g code - 1 do
          let e = ids.(i) in
          let lab = Graph.Slots.label g e in
          if lab >= 0 then begin
            let row = rows.(lab) in
            if Array.length row > 0 then begin
              let t = code_of p (Graph.Slots.target g e) in
              for j = 0 to Array.length row - 1 do
                push p ep row.(j) t
              done
            end
          end
        done
      end
    done;
    let res =
      List.rev_map (fun code -> Graph.Slots.decode g (key_of p code)) !out_rev
    in
    Hashtbl.add p.memo_fwd src res;
    res

(* Backward lane: every source slot from which some probe code is
   reachable under the automaton, over the incoming-edge buckets — a
   complete candidate set (callers re-confirm forward, so a superset is
   safe; reverse reachability misses no source).  Candidates come out
   in slot order, i.e. [Graph.nodes] order.  Probes with no incoming
   edge can only be their own witnesses (nullable case): no BFS. *)
let kernel_sources g p probes =
  match Hashtbl.find_opt p.memo_bwd probes with
  | Some r ->
    Graph.Slots.hit g;
    r
  | None ->
    Graph.Slots.miss g;
    let ns = p.nstates in
    let res =
      let total_in =
        List.fold_left
          (fun acc code -> acc + Graph.Slots.in_degree g (key_of p code))
          0 probes
      in
      if total_in = 0 then
        if Array.exists (fun q -> p.p_accepting.(q)) p.start_states then
          List.filter_map
            (fun code ->
              if code < p.slots then Some (Graph.Slots.oid g code) else None)
            probes
        else []
      else begin
        p.epoch <- p.epoch + 1;
        let ep = p.epoch in
        q_reset p;
        List.iter
          (fun code ->
            for q = 0 to ns - 1 do
              if p.p_accepting.(q) then push p ep q code
            done)
          probes;
        let cand = Array.make (max 1 p.slots) false in
        while p.qhead < p.qtail do
          let c = p.qbuf.(p.qhead) in
          p.qhead <- p.qhead + 1;
          let q = c mod ns and code = c / ns in
          if code < p.slots && p.is_start.(q) then cand.(code) <- true;
          let tk = key_of p code in
          let ids = Graph.Slots.incoming g tk and rows = p.rdispatch.(q) in
          for i = 0 to Graph.Slots.incoming_len g tk - 1 do
            let e = ids.(i) in
            let lab = Graph.Slots.label g e in
            if lab >= 0 then begin
              let row = rows.(lab) in
              if Array.length row > 0 then begin
                let src = Graph.Slots.source g e in
                for j = 0 to Array.length row - 1 do
                  push p ep row.(j) src
                done
              end
            end
          done
        done;
        let acc = ref [] in
        for s = p.slots - 1 downto 0 do
          if cand.(s) then acc := Graph.Slots.oid g s :: !acc
        done;
        !acc
      end
    in
    Hashtbl.add p.memo_bwd probes res;
    res

(* --- evaluation --- *)

let eval_from ?nfa g r src =
  let a = match nfa with Some a -> a | None -> compile r in
  let p = prepare g a in
  let s = Graph.Slots.find g src in
  if s >= 0 then kernel_eval_from g p s
  else if a.accepting.(a.start) then
    (* a node foreign to the graph reaches only itself *)
    [ Graph.N src ]
  else []

let matches ?nfa g r src tgt =
  List.exists (Graph.target_equal tgt) (eval_from ?nfa g r src)

let eval_pairs ?nfa g r ~sources =
  let a = match nfa with Some a -> a | None -> compile r in
  List.concat_map
    (fun src -> List.map (fun t -> (src, t)) (eval_from ~nfa:a g r src))
    sources

type probe = Pnode of Oid.t | Pvalue of Value.t

let candidate_sources ?nfa g r ~towards =
  if not (Graph.indexed g) then None
  else begin
    let a = match nfa with Some a -> a | None -> compile r in
    let p = prepare g a in
    let probes =
      match towards with
      | Pnode o ->
        let s = Graph.Slots.find g o in
        if s < 0 then [] else [ s ]
      | Pvalue v ->
        let acc = ref [] in
        for k = Graph.Slots.value_count g - 1 downto 0 do
          if Graph.Slots.value_live g k then begin
            let v' = Graph.Slots.value g k in
            if Value.equal v v' || Value.coerce_equal v v' then
              acc := (p.slots + k) :: !acc
          end
        done;
        !acc
    in
    Some (kernel_sources g p probes)
  end

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
