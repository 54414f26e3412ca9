type target =
  | N of Oid.t
  | V of Value.t

let target_equal a b =
  match a, b with
  | N x, N y -> Oid.equal x y
  | V x, V y -> Value.equal x y
  | N _, V _ | V _, N _ -> false

let target_compare a b =
  match a, b with
  | N x, N y -> Oid.compare x y
  | V x, V y -> Value.compare x y
  | N _, V _ -> -1
  | V _, N _ -> 1

let pp_target ppf = function
  | N o -> Oid.pp_name ppf o
  | V v -> Value.pp ppf v

type tkey = Knode of int | Kval of Value.t

let tkey = function N o -> Knode (Oid.id o) | V v -> Kval v

type coll = { mutable set : Oid.Set.t; mutable order_rev : Oid.t list }

type t = {
  gname : string;
  use_index : bool;
  mutable nodes : Oid.Set.t;
  mutable node_order_rev : Oid.t list;
  out_tbl : (string * target) list ref Oid.Tbl.t;  (* reversed order *)
  edge_set : (int * string * tkey, int) Hashtbl.t;
      (* edge -> its insertion sequence (a re-added edge counts anew) *)
  mutable edge_seq : int;
  colls : (string, coll) Hashtbl.t;
  mutable coll_order_rev : string list;
  names : (string, Oid.t) Hashtbl.t;
  (* indexes, maintained only when [use_index]; buckets are ordered bags
     so [remove_edge] is O(1) per bucket instead of a re-filter *)
  label_idx : (string, (int * tkey, Oid.t * target) Obag.t) Hashtbl.t;
  value_idx : (Value.t, (int * string, Oid.t * string) Obag.t) Hashtbl.t;
  in_idx : (int * string, Oid.t * string) Obag.t Oid.Tbl.t;
  mutable label_order_rev : string list;  (* labels in first-seen order *)
  label_seen : (string, unit) Hashtbl.t;
  mutable n_edges : int;
  (* kernel snapshot: bumped by every mutation the CSR reflects *)
  mutable generation : int;
  mutable frozen : Csr.t option;
  kstats : Csr.kstats;
  freeze_lock : Mutex.t;
  (* sanitizer identities: field 0 = the mutable structure (proxied by
     the generation bump every mutation performs), field 1 = [frozen];
     [dsan_frozen] is the publication point of the double-checked
     freeze (the unlocked fast-path read is an intended racy read,
     ordered by publish/consume, not by the freeze lock) *)
  dsan_obj : int;
  dsan_frozen : int;
  dsan_freeze_lock : int;
}

let create ?(indexed = true) ?(name = "g") () =
  {
    gname = name;
    use_index = indexed;
    nodes = Oid.Set.empty;
    node_order_rev = [];
    out_tbl = Oid.Tbl.create 64;
    edge_set = Hashtbl.create 128;
    edge_seq = 0;
    colls = Hashtbl.create 8;
    coll_order_rev = [];
    names = Hashtbl.create 64;
    label_idx = Hashtbl.create 32;
    value_idx = Hashtbl.create 128;
    in_idx = Oid.Tbl.create 64;
    label_order_rev = [];
    label_seen = Hashtbl.create 32;
    n_edges = 0;
    generation = 0;
    frozen = None;
    kstats = Csr.kstats_create ();
    freeze_lock = Mutex.create ();
    dsan_obj = Dsan.alloc ~name:("Graph(" ^ name ^ ")");
    dsan_frozen = Dsan.atomic_id ~name:("Graph(" ^ name ^ ").frozen");
    dsan_freeze_lock = Dsan.lock_id ~name:("Graph(" ^ name ^ ").freeze_lock");
  }

let name g = g.gname
let indexed g = g.use_index
let generation g = g.generation
let touch g =
  Dsan.write ~site:__POS__ g.dsan_obj 0;
  g.generation <- g.generation + 1

let add_node g o =
  if not (Oid.Set.mem o g.nodes) then begin
    touch g;
    g.nodes <- Oid.Set.add o g.nodes;
    g.node_order_rev <- o :: g.node_order_rev;
    if not (Hashtbl.mem g.names (Oid.name o)) then
      Hashtbl.add g.names (Oid.name o) o
  end

let new_node g hint =
  let o = Oid.fresh hint in
  add_node g o;
  o

let mem_node g o = Oid.Set.mem o g.nodes
let nodes g = List.rev g.node_order_rev
let node_set g = g.nodes
let node_count g = Oid.Set.cardinal g.nodes
let find_node g n = Hashtbl.find_opt g.names n

let note_label g l =
  if not (Hashtbl.mem g.label_seen l) then begin
    Hashtbl.add g.label_seen l ();
    g.label_order_rev <- l :: g.label_order_rev
  end

let bag_push tbl key k v =
  match Hashtbl.find_opt tbl key with
  | Some b -> Obag.add b k v
  | None ->
    let b = Obag.create () in
    Obag.add b k v;
    Hashtbl.add tbl key b

let bag_remove tbl key k =
  match Hashtbl.find_opt tbl key with
  | Some b -> Obag.remove b k
  | None -> ()

let has_edge g src l tgt = Hashtbl.mem g.edge_set (Oid.id src, l, tkey tgt)

let add_edge g src l tgt =
  if not (has_edge g src l tgt) then begin
    add_node g src;
    (match tgt with N o -> add_node g o | V _ -> ());
    touch g;
    Hashtbl.replace g.edge_set (Oid.id src, l, tkey tgt) g.edge_seq;
    g.edge_seq <- g.edge_seq + 1;
    (match Oid.Tbl.find_opt g.out_tbl src with
     | Some r -> r := (l, tgt) :: !r
     | None -> Oid.Tbl.add g.out_tbl src (ref [ (l, tgt) ]));
    note_label g l;
    g.n_edges <- g.n_edges + 1;
    if g.use_index then begin
      bag_push g.label_idx l (Oid.id src, tkey tgt) (src, tgt);
      match tgt with
      | V v -> bag_push g.value_idx v (Oid.id src, l) (src, l)
      | N o ->
        (match Oid.Tbl.find_opt g.in_idx o with
         | Some b -> Obag.add b (Oid.id src, l) (src, l)
         | None ->
           let b = Obag.create () in
           Obag.add b (Oid.id src, l) (src, l);
           Oid.Tbl.add g.in_idx o b)
    end
  end

let remove_assoc_edge r pred = r := List.filter (fun e -> not (pred e)) !r

let remove_edge g src l tgt =
  if has_edge g src l tgt then begin
    touch g;
    Hashtbl.remove g.edge_set (Oid.id src, l, tkey tgt);
    (match Oid.Tbl.find_opt g.out_tbl src with
     | Some r ->
       remove_assoc_edge r (fun (l', t') -> l' = l && target_equal t' tgt)
     | None -> ());
    g.n_edges <- g.n_edges - 1;
    if g.use_index then begin
      bag_remove g.label_idx l (Oid.id src, tkey tgt);
      match tgt with
      | V v -> bag_remove g.value_idx v (Oid.id src, l)
      | N o ->
        (match Oid.Tbl.find_opt g.in_idx o with
         | Some b -> Obag.remove b (Oid.id src, l)
         | None -> ())
    end
  end

let edge_count g = g.n_edges

let out_edges g o =
  match Oid.Tbl.find_opt g.out_tbl o with
  | Some r -> List.rev !r
  | None -> []

let iter_edges f g =
  List.iter
    (fun src -> List.iter (fun (l, tgt) -> f src l tgt) (out_edges g src))
    (nodes g)

let fold_edges f g init =
  List.fold_left
    (fun acc src ->
      List.fold_left (fun acc (l, tgt) -> f src l tgt acc) acc (out_edges g src))
    init (nodes g)

(* Every index bucket appends on insertion, so the live edges sorted by
   insertion sequence list each bucket in its own order. *)
let iter_edges_inserted f g =
  fold_edges
    (fun src l tgt acc ->
      (Hashtbl.find g.edge_set (Oid.id src, l, tkey tgt), src, l, tgt) :: acc)
    g []
  |> List.sort (fun (x, _, _, _) (y, _, _, _) -> Int.compare x y)
  |> List.iter (fun (_, src, l, tgt) -> f src l tgt)

let in_edges g tgt =
  if g.use_index then
    match tgt with
    | N o ->
      (match Oid.Tbl.find_opt g.in_idx o with
       | Some b -> Obag.to_list b
       | None -> [])
    | V v ->
      (match Hashtbl.find_opt g.value_idx v with
       | Some b -> Obag.to_list b
       | None -> [])
  else
    fold_edges
      (fun src l t acc -> if target_equal t tgt then (src, l) :: acc else acc)
      g []
    |> List.rev

(* --- kernel snapshot --- *)

let labels g = List.rev g.label_order_rev

let build_csr g : Csr.t =
  let node_ids = Array.of_list (nodes g) in
  let nn = Array.length node_ids in
  let idx_of_node = Hashtbl.create (max 16 (2 * nn)) in
  Array.iteri (fun i o -> Hashtbl.replace idx_of_node (Oid.id o) i) node_ids;
  let label_names = Array.of_list (labels g) in
  let nl = Array.length label_names in
  let label_syms = Array.map Sym.intern label_names in
  let local_of_sym = Hashtbl.create (2 * nl + 1) in
  let local_of_label = Hashtbl.create (2 * nl + 1) in
  Array.iteri (fun li s -> Hashtbl.replace local_of_sym s li) label_syms;
  Array.iteri (fun li l -> Hashtbl.replace local_of_label l li) label_names;
  let ne = g.n_edges in
  let fwd_off = Array.make (nn + 1) 0 in
  let fwd_lab = Array.make (max 1 ne) 0 in
  let fwd_tgt = Array.make (max 1 ne) 0 in
  (* values interned per snapshot in first-appearance order *)
  let val_tbl = Hashtbl.create 256 in
  let vals_rev = ref [] in
  let nv = ref 0 in
  let vcode v =
    match Hashtbl.find_opt val_tbl v with
    | Some c -> c
    | None ->
      let c = nn + !nv in
      incr nv;
      vals_rev := v :: !vals_rev;
      Hashtbl.add val_tbl v c;
      c
  in
  let e = ref 0 in
  Array.iteri
    (fun i o ->
      fwd_off.(i) <- !e;
      List.iter
        (fun (l, tgt) ->
          fwd_lab.(!e) <- Hashtbl.find local_of_label l;
          fwd_tgt.(!e) <-
            (match tgt with
             | N o' -> Hashtbl.find idx_of_node (Oid.id o')
             | V v -> vcode v);
          incr e)
        (out_edges g o))
    node_ids;
  fwd_off.(nn) <- !e;
  let values = Array.of_list (List.rev !vals_rev) in
  (* per-(node, label) segments, preserving per-label insertion order *)
  let seg = Hashtbl.create (2 * nn + 1) in
  let seg_tgt = Array.make (max 1 ne) 0 in
  let label_edges = Array.make (max 1 nl) 0 in
  let label_srcs = Array.make (max 1 nl) 0 in
  let counts = Array.make (max 1 nl) 0 in
  let cursor = Array.make (max 1 nl) 0 in
  let scur = ref 0 in
  for i = 0 to nn - 1 do
    let lo = fwd_off.(i) and hi = fwd_off.(i + 1) in
    if hi > lo then begin
      let touched = ref [] in
      for e = lo to hi - 1 do
        let l = fwd_lab.(e) in
        if counts.(l) = 0 then touched := l :: !touched;
        counts.(l) <- counts.(l) + 1
      done;
      List.iter
        (fun l ->
          Hashtbl.add seg ((i * nl) + l) (!scur, counts.(l));
          cursor.(l) <- !scur;
          scur := !scur + counts.(l);
          label_edges.(l) <- label_edges.(l) + counts.(l);
          label_srcs.(l) <- label_srcs.(l) + 1)
        (List.rev !touched);
      for e = lo to hi - 1 do
        let l = fwd_lab.(e) in
        seg_tgt.(cursor.(l)) <- fwd_tgt.(e);
        cursor.(l) <- cursor.(l) + 1
      done;
      List.iter (fun l -> counts.(l) <- 0) !touched
    end
  done;
  (* reverse CSR over all tcodes (node-major order, backward lane only) *)
  let ntc = nn + !nv in
  let rev_off = Array.make (ntc + 1) 0 in
  for e = 0 to ne - 1 do
    let t = fwd_tgt.(e) in
    rev_off.(t + 1) <- rev_off.(t + 1) + 1
  done;
  for t = 1 to ntc do
    rev_off.(t) <- rev_off.(t) + rev_off.(t - 1)
  done;
  let rev_src = Array.make (max 1 ne) 0 in
  let rev_lab = Array.make (max 1 ne) 0 in
  let rcur = Array.sub rev_off 0 ntc in
  for i = 0 to nn - 1 do
    for e = fwd_off.(i) to fwd_off.(i + 1) - 1 do
      let t = fwd_tgt.(e) in
      rev_src.(rcur.(t)) <- i;
      rev_lab.(rcur.(t)) <- fwd_lab.(e);
      rcur.(t) <- rcur.(t) + 1
    done
  done;
  {
    Csr.gen = g.generation;
    uid = Csr.fresh_uid ();
    stats = g.kstats;
    n_nodes = nn;
    node_ids;
    idx_of_node;
    n_values = !nv;
    values;
    n_labels = nl;
    label_syms;
    label_names;
    local_of_sym;
    local_of_label;
    fwd_off;
    fwd_lab;
    fwd_tgt;
    seg;
    seg_tgt;
    rev_off;
    rev_src;
    rev_lab;
    label_edges;
    label_srcs;
    cache = Hashtbl.create 8;
  }

(* The [frozen] field is an {e intended} racy read: the fast path
   checks it with no lock, ordered only by the publish below — so the
   sanitizer models it as a publication point (publish/consume), not a
   plain field.  The [generation] read (field 0) stays a plain read:
   mutating the graph while another domain freezes or snapshots it is
   a genuine protocol violation Dsan must flag. *)
let freeze g =
  Dsan.consume ~site:__POS__ g.dsan_frozen;
  Dsan.read ~site:__POS__ g.dsan_obj 0;
  match g.frozen with
  | Some s when s.Csr.gen = g.generation -> s
  | _ ->
    Mutex.lock g.freeze_lock;
    Dsan.acquire ~site:__POS__ g.dsan_freeze_lock;
    Fun.protect
      ~finally:(fun () ->
        Dsan.release ~site:__POS__ g.dsan_freeze_lock;
        Mutex.unlock g.freeze_lock)
      (fun () ->
        Dsan.consume ~site:__POS__ g.dsan_frozen;
        match g.frozen with
        | Some s when s.Csr.gen = g.generation -> s
        | _ ->
          let s = build_csr g in
          Atomic.incr g.kstats.freezes;
          g.frozen <- Some s;
          Dsan.publish ~site:__POS__ g.dsan_frozen;
          s)

let snapshot g =
  Dsan.consume ~site:__POS__ g.dsan_frozen;
  Dsan.read ~site:__POS__ g.dsan_obj 0;
  match g.frozen with
  | Some s when s.Csr.gen = g.generation -> Some s
  | _ -> None

type kernel_counters = { freezes : int; hits : int; misses : int }

let kernel_counters g =
  {
    freezes = Atomic.get g.kstats.Csr.freezes;
    hits = Atomic.get g.kstats.Csr.hits;
    misses = Atomic.get g.kstats.Csr.misses;
  }

let reset_kernel_counters g =
  Atomic.set g.kstats.Csr.freezes 0;
  Atomic.set g.kstats.Csr.hits 0;
  Atomic.set g.kstats.Csr.misses 0

let decode_tcode (s : Csr.t) tc =
  if tc < s.Csr.n_nodes then N s.Csr.node_ids.(tc)
  else V s.Csr.values.(tc - s.Csr.n_nodes)

(* --- attribute lookups: snapshot segment when valid, live scan else --- *)

let attr_slow g o l =
  List.filter_map
    (fun (l', tgt) -> if l' = l then Some tgt else None)
    (out_edges g o)

let attr g o l =
  match snapshot g with
  | None -> attr_slow g o l
  | Some s -> (
      match Csr.node_index s o, Csr.label_local s l with
      | Some i, Some li -> (
          match Csr.seg_range s i li with
          | None -> []
          | Some (off, len) ->
            List.init len (fun k -> decode_tcode s s.Csr.seg_tgt.(off + k)))
      | _ -> [])

let attr1 g o l =
  match snapshot g with
  | None ->
    let rec first = function
      | [] -> None
      | (l', tgt) :: rest -> if l' = l then Some tgt else first rest
    in
    first (out_edges g o)
  | Some s -> (
      match Csr.node_index s o, Csr.label_local s l with
      | Some i, Some li -> (
          match Csr.seg_range s i li with
          | None -> None
          | Some (off, _) -> Some (decode_tcode s s.Csr.seg_tgt.(off)))
      | _ -> None)

let attr_value g o l =
  match snapshot g with
  | None ->
    let rec first = function
      | [] -> None
      | (l', V v) :: _ when l' = l -> Some v
      | _ :: rest -> first rest
    in
    first (out_edges g o)
  | Some s -> (
      match Csr.node_index s o, Csr.label_local s l with
      | Some i, Some li -> (
          match Csr.seg_range s i li with
          | None -> None
          | Some (off, len) ->
            let rec scan k =
              if k >= len then None
              else
                let tc = s.Csr.seg_tgt.(off + k) in
                if tc >= s.Csr.n_nodes then
                  Some s.Csr.values.(tc - s.Csr.n_nodes)
                else scan (k + 1)
            in
            scan 0)
      | _ -> None)

let find_coll g c = Hashtbl.find_opt g.colls c

let declare_collection g c =
  if find_coll g c = None then begin
    Hashtbl.add g.colls c { set = Oid.Set.empty; order_rev = [] };
    g.coll_order_rev <- c :: g.coll_order_rev
  end

let add_to_collection g c o =
  add_node g o;
  match find_coll g c with
  | Some coll ->
    if not (Oid.Set.mem o coll.set) then begin
      coll.set <- Oid.Set.add o coll.set;
      coll.order_rev <- o :: coll.order_rev
    end
  | None ->
    Hashtbl.add g.colls c { set = Oid.Set.singleton o; order_rev = [ o ] };
    g.coll_order_rev <- c :: g.coll_order_rev

let remove_from_collection g c o =
  match find_coll g c with
  | Some coll when Oid.Set.mem o coll.set ->
    coll.set <- Oid.Set.remove o coll.set;
    coll.order_rev <- List.filter (fun x -> not (Oid.equal x o)) coll.order_rev
  | _ -> ()

let in_collection g c o =
  match find_coll g c with Some coll -> Oid.Set.mem o coll.set | None -> false

let collection g c =
  match find_coll g c with Some coll -> List.rev coll.order_rev | None -> []

let collection_size g c =
  match find_coll g c with Some coll -> Oid.Set.cardinal coll.set | None -> 0

let collections g = List.rev g.coll_order_rev

let collections_of g o =
  List.filter (fun c -> in_collection g c o) (collections g)

let label_extent g l =
  if g.use_index then
    match Hashtbl.find_opt g.label_idx l with
    | Some b -> Obag.to_list b
    | None -> []
  else
    fold_edges
      (fun src l' tgt acc -> if l' = l then (src, tgt) :: acc else acc)
      g []
    |> List.rev

let label_count g l =
  if g.use_index then
    match Hashtbl.find_opt g.label_idx l with
    | Some b -> Obag.length b
    | None -> 0
  else List.length (label_extent g l)

let value_index g v =
  if g.use_index then
    match Hashtbl.find_opt g.value_idx v with
    | Some b -> Obag.to_list b
    | None -> []
  else
    fold_edges
      (fun src l tgt acc ->
        match tgt with
        | V v' when Value.equal v v' -> (src, l) :: acc
        | _ -> acc)
      g []
    |> List.rev

let remove_node g o =
  if Oid.Set.mem o g.nodes then begin
    List.iter (fun (l, tgt) -> remove_edge g o l tgt) (out_edges g o);
    List.iter (fun (src, l) -> remove_edge g src l (N o)) (in_edges g (N o));
    List.iter (fun c -> remove_from_collection g c o) (collections_of g o);
    touch g;
    g.nodes <- Oid.Set.remove o g.nodes;
    g.node_order_rev <-
      List.filter (fun x -> not (Oid.equal x o)) g.node_order_rev;
    Oid.Tbl.remove g.out_tbl o;
    Oid.Tbl.remove g.in_idx o;
    match Hashtbl.find_opt g.names (Oid.name o) with
    | Some o' when Oid.equal o o' -> Hashtbl.remove g.names (Oid.name o)
    | _ -> ()
  end

let set_out_edges g o edges =
  List.iter (fun (l, tgt) -> remove_edge g o l tgt) (out_edges g o);
  List.iter (fun (l, tgt) -> add_edge g o l tgt) edges

let set_collection g c members =
  List.iter (fun o -> remove_from_collection g c o) (collection g c);
  List.iter (fun o -> add_to_collection g c o) members

let merge_into ~dst ~src =
  List.iter (fun o -> add_node dst o) (nodes src);
  iter_edges (fun s l t -> add_edge dst s l t) src;
  List.iter
    (fun c -> List.iter (fun o -> add_to_collection dst c o) (collection src c))
    (collections src)

let copy ?name g =
  let name = match name with Some n -> n | None -> g.gname in
  let g' = create ~indexed:g.use_index ~name () in
  merge_into ~dst:g' ~src:g;
  g'

let pp_stats ppf g =
  Fmt.pf ppf "graph %s: %d nodes, %d edges, %d collections, %d labels"
    g.gname (node_count g) g.n_edges
    (List.length (collections g))
    (List.length (labels g))
