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

type tkey = Knode of int | Kval of Value.t | Kneg_zero

let tkey = function
  | N o -> Knode (Oid.id o)
  | V (Value.Float f) when f = 0. && Float.sign_bit f -> Kneg_zero
  | V v -> Kval v

module Stbl = Hashtbl.Make (String)

module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* --- storage ---

   Everything lives in dense per-graph slots.  A node has a slot, in
   insertion order; a label and a collection have an id, in first-seen
   order; an atomic value has an id while some live edge points at it.
   Edges form one log in insertion order, and every bucket (out-edges,
   label extents, value index, incoming edges) is a vector of edge ids
   in that order.  Removing an edge marks it dead in the log and leaves
   its ids in the buckets as tombstones; a bucket is swept once its dead
   entries outnumber its live ones, and the whole graph is compacted
   (slots and edge ids renumbered, in order) once removed nodes and
   edges outnumber live ones.  Both keep order and cost O(1) amortized
   per removal. *)

(* An append-only int vector whose entries die in place: only its owner
   can tell a dead entry, and [dead] counts them. *)
type vec = { mutable a : int array; mutable n : int; mutable dead : int }

let vec () = { a = [||]; n = 0; dead = 0 }

(* Shared placeholders, never pushed to: [nil] is an empty bucket not
   yet allocated, [gone] marks the out-bucket of a removed node's slot. *)
let nil = vec ()
let gone = vec ()

let push v x =
  if v.n = Array.length v.a then begin
    let a = Array.make (max 2 (2 * v.n)) 0 in
    Array.blit v.a 0 a 0 v.n;
    v.a <- a
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

let own buckets i =
  let v = buckets.(i) in
  if v == nil then begin
    let v = vec () in
    buckets.(i) <- v;
    v
  end
  else v

let shrink v =
  if Array.length v.a > 4 * (v.n + 1) then v.a <- Array.sub v.a 0 (2 * v.n)

(* Keep the entries [keep] maps to a non-negative replacement, in order. *)
let sweep v keep =
  let j = ref 0 in
  for i = 0 to v.n - 1 do
    let x = keep v.a.(i) in
    if x >= 0 then begin
      v.a.(!j) <- x;
      incr j
    end
  done;
  v.n <- !j;
  v.dead <- 0;
  shrink v

(* A node's place in one collection: a member-vector entry is live
   exactly when its node holds the membership with that position. *)
type mem = { cid : int; mutable pos : int }

type t = {
  gname : string;
  use_index : bool;
  (* the node set, as the edge set: each live slot chained from
     [s_heads] by its oid id's low bits.  A lookup allocates and raises
     nothing (an [Oid.Tbl] allocates an option per hit), and ids are
     minted in sequence, so nodes added in order sit in order in the
     heads and in [s_id] *)
  mutable s_heads : int array;
  mutable s_next : int array;
  mutable s_id : int array;
  mutable s_oid : Oid.t array;
  mutable s_out : vec array;  (* edge ids; [gone] for a removed node *)
  mutable s_in : vec array;  (* incoming edge ids, when indexed *)
  mutable s_coll : mem list array;
  mutable n_slots : int;
  mutable n_nodes : int;
  names : Oid.t Stbl.t;
  mutable names_shared : bool;  (* a node was added under a held name *)
  label_id : int Stbl.t;
  mutable l_name : string array;
  mutable l_ext : vec array;  (* edge ids, when indexed *)
  mutable n_labels : int;
  value_id : int Vtbl.t;
  mutable v_val : Value.t array;
  mutable v_in : vec array;  (* edge ids, when indexed *)
  mutable v_refs : int array;  (* live edges pointing at the value *)
  mutable v_free : int list;
  mutable n_values : int;
  (* the edge log; an edge's target key [tk] is [slot lsl 1] for a node
     and [(value id lsl 1) lor 1] for a value; [e_lab] is -1 once dead *)
  mutable e_src : int array;
  mutable e_lab : int array;
  mutable e_tk : int array;
  mutable e_tgt : target array;
  mutable e_next : int array;  (* edge-set chain *)
  mutable n_log : int;
  mutable n_edges : int;
  mutable heads : int array;  (* edge set: live edges chained by key hash *)
  coll_id : int Stbl.t;
  mutable c_name : string array;
  mutable c_mem : vec array;  (* member slots *)
  mutable n_colls : int;
  (* bumped by every mutation; the path kernel's memos are tagged with it *)
  mutable generation : int;
  (* path-kernel memo hits and misses: atomic, as worker domains may
     evaluate paths on the graph while the main domain reads them *)
  k_hits : int Atomic.t;
  k_misses : int Atomic.t;
  (* sanitizer identity: field 0 = the mutable structure, written by
     every mutation (through [touch]) and read by every public read *)
  dsan_obj : int;
}

let no_target = V Value.Null

let create ?(indexed = true) ?(name = "g") () =
  {
    gname = name;
    use_index = indexed;
    s_heads = Array.make 16 (-1);
    s_next = [||];
    s_id = [||];
    s_oid = [||];
    s_out = [||];
    s_in = [||];
    s_coll = [||];
    n_slots = 0;
    n_nodes = 0;
    names = Stbl.create 64;
    names_shared = false;
    label_id = Stbl.create 16;
    l_name = [||];
    l_ext = [||];
    n_labels = 0;
    value_id = Vtbl.create 64;
    v_val = [||];
    v_in = [||];
    v_refs = [||];
    v_free = [];
    n_values = 0;
    e_src = [||];
    e_lab = [||];
    e_tk = [||];
    e_tgt = [||];
    e_next = [||];
    n_log = 0;
    n_edges = 0;
    heads = Array.make 16 (-1);
    coll_id = Stbl.create 8;
    c_name = [||];
    c_mem = [||];
    n_colls = 0;
    generation = 0;
    k_hits = Atomic.make 0;
    k_misses = Atomic.make 0;
    dsan_obj = Dsan.alloc ~name:("Graph(" ^ name ^ ")");
  }

let name g = g.gname
let indexed g = g.use_index

(* Every public read records one sanitizer read of the structure, so a
   mutation racing a reader on another domain is reported. *)
let observe g site = Dsan.read ~site g.dsan_obj 0

let generation g =
  observe g __POS__;
  g.generation

(* Every mutation comes through here, collection memberships too: an
   unmoved generation promises unchanged content. *)
let touch g =
  Dsan.write ~site:__POS__ g.dsan_obj 0;
  g.generation <- g.generation + 1

let grow a n fill =
  let b = Array.make (max 8 (2 * n)) fill in
  Array.blit a 0 b 0 n;
  b

(* --- nodes --- *)

let node_head g id = id land (Array.length g.s_heads - 1)

(* closed, so a probe allocates no closure *)
let rec slot_from g id s =
  if s < 0 || g.s_id.(s) = id then s else slot_from g id g.s_next.(s)

let slot_find g o =
  let id = Oid.id o in
  slot_from g id g.s_heads.(node_head g id)

let chain_node g s =
  let h = node_head g g.s_id.(s) in
  g.s_next.(s) <- g.s_heads.(h);
  g.s_heads.(h) <- s

let unchain_node g s =
  let h = node_head g g.s_id.(s) in
  if g.s_heads.(h) = s then g.s_heads.(h) <- g.s_next.(s)
  else begin
    let rec go p =
      let q = g.s_next.(p) in
      if q = s then g.s_next.(p) <- g.s_next.(s) else go q
    in
    go g.s_heads.(h)
  end

(* Chain every live slot again, into [size] heads. *)
let rehash_nodes g size =
  g.s_heads <- Array.make size (-1);
  for s = 0 to g.n_slots - 1 do
    if g.s_out.(s) != gone then chain_node g s
  done

let add_slot g o =
  touch g;
  let s = g.n_slots in
  if s = Array.length g.s_oid then begin
    g.s_oid <- grow g.s_oid s o;
    g.s_id <- grow g.s_id s 0;
    g.s_next <- grow g.s_next s 0;
    g.s_out <- grow g.s_out s nil;
    g.s_in <- grow g.s_in s nil;
    g.s_coll <- grow g.s_coll s []
  end;
  g.s_oid.(s) <- o;
  g.s_id.(s) <- Oid.id o;
  g.n_slots <- s + 1;
  g.n_nodes <- g.n_nodes + 1;
  if g.n_nodes > Array.length g.s_heads then
    rehash_nodes g (2 * Array.length g.s_heads)
  else chain_node g s;
  if Stbl.mem g.names (Oid.name o) then g.names_shared <- true
  else Stbl.add g.names (Oid.name o) o;
  s

let slot_of g o =
  let s = slot_find g o in
  if s >= 0 then s else add_slot g o

let add_node g o = ignore (slot_of g o)

let new_node g hint =
  let o = Oid.fresh hint in
  add_node g o;
  o

let mem_node g o =
  observe g __POS__;
  slot_find g o >= 0

let nodes g =
  observe g __POS__;
  let acc = ref [] in
  for s = g.n_slots - 1 downto 0 do
    if g.s_out.(s) != gone then acc := g.s_oid.(s) :: !acc
  done;
  !acc

let iter_nodes f g =
  observe g __POS__;
  for s = 0 to g.n_slots - 1 do
    if g.s_out.(s) != gone then f g.s_oid.(s)
  done

let node_count g =
  observe g __POS__;
  g.n_nodes

let find_node g n =
  observe g __POS__;
  Stbl.find_opt g.names n

let names_shared g =
  observe g __POS__;
  g.names_shared

(* --- labels and values --- *)

let label_find g l =
  match Stbl.find g.label_id l with i -> i | exception Not_found -> -1

let label_of g l =
  match Stbl.find_opt g.label_id l with
  | Some i -> i
  | None ->
    let i = g.n_labels in
    if i = Array.length g.l_name then begin
      g.l_name <- grow g.l_name i l;
      g.l_ext <- grow g.l_ext i nil
    end;
    g.l_name.(i) <- l;
    g.n_labels <- i + 1;
    Stbl.add g.label_id l i;
    i

let value_of g v =
  match Vtbl.find_opt g.value_id v with
  | Some i -> i
  | None ->
    let i =
      match g.v_free with
      | i :: rest ->
        g.v_free <- rest;
        i
      | [] ->
        let i = g.n_values in
        if i = Array.length g.v_val then begin
          g.v_val <- grow g.v_val i v;
          g.v_in <- grow g.v_in i nil;
          g.v_refs <- grow g.v_refs i 0
        end;
        g.n_values <- i + 1;
        i
    in
    g.v_val.(i) <- v;
    Vtbl.add g.value_id v i;
    i

(* A value no live edge points at any more gives up its id. *)
let release_value g i =
  g.v_refs.(i) <- g.v_refs.(i) - 1;
  if g.v_refs.(i) = 0 then begin
    Vtbl.remove g.value_id g.v_val.(i);
    g.v_val.(i) <- Value.Null;
    g.v_in.(i) <- nil;
    g.v_free <- i :: g.v_free
  end

(* The target key of an object, without adding it ([-1]: unknown). *)
let tk_find g = function
  | N o ->
    let s = slot_find g o in
    if s < 0 then -1 else s lsl 1
  | V v -> (
      match Vtbl.find_opt g.value_id v with
      | Some i -> (i lsl 1) lor 1
      | None -> -1)

let tk_of g = function
  | N o -> slot_of g o lsl 1
  | V v -> (value_of g v lsl 1) lor 1

(* --- edges --- *)

let hash s lab tk =
  let h = (s * 0x2f0b3a49) + (lab * 0x1b873593) + (tk * 0x5bd1e995) in
  h lxor (h lsr 23)

let head g s lab tk = hash s lab tk land (Array.length g.heads - 1)

let rec find_from g s lab tk e =
  if e < 0 then -1
  else if g.e_src.(e) = s && g.e_lab.(e) = lab && g.e_tk.(e) = tk then e
  else find_from g s lab tk g.e_next.(e)

let find_edge g s lab tk = find_from g s lab tk g.heads.(head g s lab tk)

let chain g e =
  let h = head g g.e_src.(e) g.e_lab.(e) g.e_tk.(e) in
  g.e_next.(e) <- g.heads.(h);
  g.heads.(h) <- e

let rehash g size =
  g.heads <- Array.make size (-1);
  for e = 0 to g.n_log - 1 do
    if g.e_lab.(e) >= 0 then chain g e
  done

let edge_id g src l tgt =
  let s = slot_find g src and lab = label_find g l and tk = tk_find g tgt in
  if s < 0 || lab < 0 || tk < 0 then -1 else find_edge g s lab tk

let has_edge g src l tgt =
  observe g __POS__;
  edge_id g src l tgt >= 0

(* Append an edge to the log and the edge set, leaving the buckets. *)
let log_edge g s lab tk tgt =
  touch g;
  let e = g.n_log in
  if e = Array.length g.e_src then begin
    g.e_src <- grow g.e_src e 0;
    g.e_lab <- grow g.e_lab e 0;
    g.e_tk <- grow g.e_tk e 0;
    g.e_tgt <- grow g.e_tgt e no_target;
    g.e_next <- grow g.e_next e 0
  end;
  g.e_src.(e) <- s;
  g.e_lab.(e) <- lab;
  g.e_tk.(e) <- tk;
  g.e_tgt.(e) <- tgt;
  g.n_log <- e + 1;
  g.n_edges <- g.n_edges + 1;
  if g.n_edges > Array.length g.heads then rehash g (2 * Array.length g.heads)
  else chain g e;
  if tk land 1 = 1 then g.v_refs.(tk lsr 1) <- g.v_refs.(tk lsr 1) + 1;
  e

let link_edge g s lab tk tgt =
  let e = log_edge g s lab tk tgt in
  push (own g.s_out s) e;
  if g.use_index then begin
    push (own g.l_ext lab) e;
    push (if tk land 1 = 1 then own g.v_in (tk lsr 1) else own g.s_in (tk lsr 1)) e
  end

(* The edge unless [g] has it, entered by [file] (into the log and
   the buckets, or the log alone while a loader runs). *)
let add_edge_with file g src l tgt =
  let s = slot_of g src in
  let lab = label_of g l in
  let tk = tk_of g tgt in
  if find_edge g s lab tk < 0 then file g s lab tk tgt

let add_edge g src l tgt = add_edge_with link_edge g src l tgt

let live_edge g e = if g.e_lab.(e) >= 0 then e else -1

let drop g v =
  v.dead <- v.dead + 1;
  if 2 * v.dead > v.n then sweep v (live_edge g)

let unchain g e =
  let h = head g g.e_src.(e) g.e_lab.(e) g.e_tk.(e) in
  if g.heads.(h) = e then g.heads.(h) <- g.e_next.(e)
  else begin
    let rec go p =
      let q = g.e_next.(p) in
      if q = e then g.e_next.(p) <- g.e_next.(e) else go q
    in
    go g.heads.(h)
  end

let kill_edge g e =
  touch g;
  unchain g e;
  let s = g.e_src.(e) and lab = g.e_lab.(e) and tk = g.e_tk.(e) in
  g.e_lab.(e) <- -1;
  g.e_tgt.(e) <- no_target;
  g.n_edges <- g.n_edges - 1;
  drop g g.s_out.(s);
  let value = tk land 1 = 1 in
  if g.use_index then begin
    drop g g.l_ext.(lab);
    drop g (if value then g.v_in.(tk lsr 1) else g.s_in.(tk lsr 1))
  end;
  if value then release_value g (tk lsr 1)

let live_ids g v =
  let acc = ref [] in
  for i = v.n - 1 downto 0 do
    let e = v.a.(i) in
    if g.e_lab.(e) >= 0 then acc := e :: !acc
  done;
  !acc

let membership g s cid = List.find_opt (fun m -> m.cid = cid) g.s_coll.(s)

let rec holds cid = function [] -> false | m :: ms -> m.cid = cid || holds cid ms
let is_member g s cid = holds cid g.s_coll.(s)

(* Drop a collection's dead member entries, in order, mapping each
   survivor's slot through [slot].  A node's live entry is its last one
   in the vector, so its membership can move as soon as it is found. *)
let sweep_members g cid slot =
  let v = g.c_mem.(cid) in
  let j = ref 0 in
  for i = 0 to v.n - 1 do
    let s = v.a.(i) in
    match membership g s cid with
    | Some m when m.pos = i ->
      m.pos <- !j;
      v.a.(!j) <- slot s;
      incr j
    | _ -> ()
  done;
  v.n <- !j;
  v.dead <- 0;
  shrink v

(* Renumber slots and edge ids over the live ones, in order, sweeping
   every bucket on the way. *)
let compact g =
  let snew = Array.make g.n_slots (-1) in
  let k = ref 0 in
  for s = 0 to g.n_slots - 1 do
    if g.s_out.(s) != gone then begin
      snew.(s) <- !k;
      incr k
    end
  done;
  for c = 0 to g.n_colls - 1 do
    sweep_members g c (fun s -> snew.(s))
  done;
  let enew = Array.make g.n_log (-1) in
  let m = ref 0 in
  for e = 0 to g.n_log - 1 do
    if g.e_lab.(e) >= 0 then begin
      let e' = !m in
      enew.(e) <- e';
      let tk = g.e_tk.(e) in
      g.e_src.(e') <- snew.(g.e_src.(e));
      g.e_lab.(e') <- g.e_lab.(e);
      g.e_tk.(e') <- (if tk land 1 = 1 then tk else snew.(tk lsr 1) lsl 1);
      g.e_tgt.(e') <- g.e_tgt.(e);
      incr m
    end
  done;
  Array.fill g.e_tgt !m (g.n_log - !m) no_target;
  g.n_log <- !m;
  let remap v = if v != nil && v != gone then sweep v (fun e -> enew.(e)) in
  for s = 0 to g.n_slots - 1 do
    let s' = snew.(s) in
    if s' >= 0 then begin
      remap g.s_out.(s);
      remap g.s_in.(s);
      if s' < s then begin
        g.s_oid.(s') <- g.s_oid.(s);
        g.s_id.(s') <- g.s_id.(s);
        g.s_out.(s') <- g.s_out.(s);
        g.s_in.(s') <- g.s_in.(s);
        g.s_coll.(s') <- g.s_coll.(s)
      end
    end
  done;
  let dead = g.n_slots - !k in
  Array.fill g.s_out !k dead nil;
  Array.fill g.s_in !k dead nil;
  Array.fill g.s_coll !k dead [];
  g.n_slots <- !k;
  for i = 0 to g.n_labels - 1 do
    remap g.l_ext.(i)
  done;
  for i = 0 to g.n_values - 1 do
    remap g.v_in.(i)
  done;
  rehash g (Array.length g.heads);
  rehash_nodes g (Array.length g.s_heads)

let maybe_compact g =
  let garbage = g.n_log - g.n_edges + (g.n_slots - g.n_nodes) in
  if garbage > g.n_edges + g.n_nodes then compact g

let remove_edge g src l tgt =
  let e = edge_id g src l tgt in
  if e >= 0 then begin
    kill_edge g e;
    maybe_compact g
  end

let edge_count g =
  observe g __POS__;
  g.n_edges

let out_edges g o =
  observe g __POS__;
  let s = slot_find g o in
  if s < 0 then []
  else begin
    let v = g.s_out.(s) and acc = ref [] in
    for i = v.n - 1 downto 0 do
      let e = v.a.(i) in
      let lab = g.e_lab.(e) in
      if lab >= 0 then acc := (g.l_name.(lab), g.e_tgt.(e)) :: !acc
    done;
    !acc
  end

let fold_out_edges g o f init =
  observe g __POS__;
  let s = slot_find g o and acc = ref init in
  if s >= 0 then begin
    let v = g.s_out.(s) in
    for i = 0 to v.n - 1 do
      let e = v.a.(i) in
      let lab = g.e_lab.(e) in
      if lab >= 0 then acc := f !acc g.l_name.(lab) g.e_tgt.(e)
    done
  end;
  !acc

let iter_edges f g =
  observe g __POS__;
  for s = 0 to g.n_slots - 1 do
    let v = g.s_out.(s) in
    if v != gone then
      for i = 0 to v.n - 1 do
        let e = v.a.(i) in
        let lab = g.e_lab.(e) in
        if lab >= 0 then f g.s_oid.(s) g.l_name.(lab) g.e_tgt.(e)
      done
  done

let fold_edges f g init =
  let acc = ref init in
  iter_edges (fun src l tgt -> acc := f src l tgt !acc) g;
  !acc

let iter_edges_inserted f g =
  observe g __POS__;
  for e = 0 to g.n_log - 1 do
    let lab = g.e_lab.(e) in
    if lab >= 0 then f g.s_oid.(g.e_src.(e)) g.l_name.(lab) g.e_tgt.(e)
  done

(* The edges of a bucket, or of the log when [keep] picks them, in
   insertion order. *)
let of_bucket g v f =
  let acc = ref [] in
  for i = v.n - 1 downto 0 do
    let e = v.a.(i) in
    if g.e_lab.(e) >= 0 then acc := f e :: !acc
  done;
  !acc

let of_log g keep f =
  let acc = ref [] in
  for e = g.n_log - 1 downto 0 do
    if g.e_lab.(e) >= 0 && keep e then acc := f e :: !acc
  done;
  !acc

let src_label g e = (g.s_oid.(g.e_src.(e)), g.l_name.(g.e_lab.(e)))

let in_edges g tgt =
  observe g __POS__;
  let tk = tk_find g tgt in
  if tk < 0 then []
  else if g.use_index then
    let v = if tk land 1 = 1 then g.v_in.(tk lsr 1) else g.s_in.(tk lsr 1) in
    of_bucket g v (src_label g)
  else of_log g (fun e -> g.e_tk.(e) = tk) (src_label g)

let labels g =
  observe g __POS__;
  Array.to_list (Array.sub g.l_name 0 g.n_labels)

(* --- attribute lookups --- *)

(* The out-bucket of [o] and the id of [l], if both are known. *)
let lookup g o l k none =
  let s = slot_find g o in
  let lab = if s < 0 then -1 else label_find g l in
  if lab < 0 then none else k g.s_out.(s) lab

let attr g o l =
  observe g __POS__;
  lookup g o l
    (fun v lab ->
      let acc = ref [] in
      for i = v.n - 1 downto 0 do
        let e = v.a.(i) in
        if g.e_lab.(e) = lab then acc := g.e_tgt.(e) :: !acc
      done;
      !acc)
    []

let fold_attr g o l f init =
  observe g __POS__;
  lookup g o l
    (fun v lab ->
      let acc = ref init in
      for i = 0 to v.n - 1 do
        let e = v.a.(i) in
        if g.e_lab.(e) = lab then acc := f !acc g.e_tgt.(e)
      done;
      !acc)
    init

(* The first live target of [lab] in [v] that [pick] accepts. *)
let first g v lab pick =
  let rec go i =
    if i >= v.n then None
    else
      let e = v.a.(i) in
      if g.e_lab.(e) = lab then
        match pick g.e_tgt.(e) with Some _ as r -> r | None -> go (i + 1)
      else go (i + 1)
  in
  go 0

let attr1 g o l =
  observe g __POS__;
  lookup g o l (fun v lab -> first g v lab Option.some) None

let attr_value g o l =
  observe g __POS__;
  lookup g o l
    (fun v lab -> first g v lab (function V x -> Some x | N _ -> None))
    None

(* --- collections --- *)

let coll_of g c =
  match Stbl.find_opt g.coll_id c with
  | Some i -> i
  | None ->
    let i = g.n_colls in
    if i = Array.length g.c_name then begin
      g.c_name <- grow g.c_name i c;
      g.c_mem <- grow g.c_mem i nil
    end;
    touch g;
    g.c_name.(i) <- c;
    g.c_mem.(i) <- vec ();
    g.n_colls <- i + 1;
    Stbl.add g.coll_id c i;
    i

let declare_collection g c = ignore (coll_of g c)

(* [o] joins [c] unless it is a member; [fill] stores its slot in the
   member vector, else only the vector's length counts it. *)
let join ~fill g c o =
  let s = slot_of g o in
  let cid = coll_of g c in
  if not (is_member g s cid) then begin
    touch g;
    let v = g.c_mem.(cid) in
    (* a node's memberships stay in collection id order *)
    let rec insert = function
      | m :: ms when m.cid < cid -> m :: insert ms
      | ms -> { cid; pos = v.n } :: ms
    in
    g.s_coll.(s) <- insert g.s_coll.(s);
    if fill then push v s else v.n <- v.n + 1
  end

let add_to_collection g c o = join ~fill:true g c o

let leave g s m =
  touch g;
  g.s_coll.(s) <- List.filter (fun m' -> m' != m) g.s_coll.(s);
  let v = g.c_mem.(m.cid) in
  v.dead <- v.dead + 1;
  if 2 * v.dead > v.n then sweep_members g m.cid Fun.id

let remove_from_collection g c o =
  match Stbl.find_opt g.coll_id c with
  | None -> ()
  | Some cid -> (
      let s = slot_find g o in
      if s >= 0 then
        match membership g s cid with Some m -> leave g s m | None -> ())

let in_collection g c o =
  observe g __POS__;
  match Stbl.find_opt g.coll_id c with
  | None -> false
  | Some cid ->
    let s = slot_find g o in
    s >= 0 && is_member g s cid

let collection g c =
  observe g __POS__;
  match Stbl.find_opt g.coll_id c with
  | None -> []
  | Some cid ->
    let v = g.c_mem.(cid) and acc = ref [] in
    for i = v.n - 1 downto 0 do
      let s = v.a.(i) in
      if v.dead = 0
         || (match membership g s cid with Some m -> m.pos = i | None -> false)
      then acc := g.s_oid.(s) :: !acc
    done;
    !acc

let collection_size g c =
  observe g __POS__;
  match Stbl.find_opt g.coll_id c with
  | None -> 0
  | Some cid -> g.c_mem.(cid).n - g.c_mem.(cid).dead

let collections g =
  observe g __POS__;
  Array.to_list (Array.sub g.c_name 0 g.n_colls)

let rec fold_colls g f acc = function
  | [] -> acc
  | m :: ms -> fold_colls g f (f acc g.c_name.(m.cid)) ms

let fold_collections_of g o f init =
  observe g __POS__;
  let s = slot_find g o in
  if s < 0 then init else fold_colls g f init g.s_coll.(s)

let collections_of g o =
  List.rev (fold_collections_of g o (fun acc c -> c :: acc) [])

(* --- label and value indexes --- *)

let src_tgt g e = (g.s_oid.(g.e_src.(e)), g.e_tgt.(e))

let label_extent g l =
  observe g __POS__;
  let lab = label_find g l in
  if lab < 0 then []
  else if g.use_index then of_bucket g g.l_ext.(lab) (src_tgt g)
  else of_log g (fun e -> g.e_lab.(e) = lab) (src_tgt g)

let label_count g l =
  observe g __POS__;
  let lab = label_find g l in
  if lab < 0 then 0
  else if g.use_index then g.l_ext.(lab).n - g.l_ext.(lab).dead
  else List.length (label_extent g l)

let value_index g v = in_edges g (V v)

(* --- comparing two graphs --- *)

(* Whether two edge-id buckets, [v1] of [g1] and [v2] of [g2], hold
   live edges [eq] pairs off one by one, in order. *)
let same_edges g1 v1 g2 v2 eq =
  let rec live g v i =
    if i < v.n && g.e_lab.(v.a.(i)) < 0 then live g v (i + 1) else i
  in
  let rec go i j =
    let i = live g1 v1 i and j = live g2 v2 j in
    if i = v1.n then j = v2.n
    else j < v2.n && eq v1.a.(i) v2.a.(j) && go (i + 1) (j + 1)
  in
  go 0 0

let same_target g1 e1 g2 e2 =
  let t1 = g1.e_tgt.(e1) and t2 = g2.e_tgt.(e2) in
  t1 == t2 || target_equal t1 t2

let same_out_edges g1 g2 o =
  observe g1 __POS__;
  observe g2 __POS__;
  let s1 = slot_find g1 o and s2 = slot_find g2 o in
  if s1 < 0 || s2 < 0 then s1 < 0 && s2 < 0
  else
    same_edges g1 g1.s_out.(s1) g2 g2.s_out.(s2) (fun e1 e2 ->
        String.equal g1.l_name.(g1.e_lab.(e1)) g2.l_name.(g2.e_lab.(e2))
        && same_target g1 e1 g2 e2)

let same_label_extent g1 g2 l =
  observe g1 __POS__;
  observe g2 __POS__;
  let l1 = label_find g1 l and l2 = label_find g2 l in
  if not (g1.use_index && g2.use_index) || l1 < 0 || l2 < 0 then
    List.equal
      (fun (o, t) (o', t') -> Oid.equal o o' && target_equal t t')
      (label_extent g1 l) (label_extent g2 l)
  else
    same_edges g1 g1.l_ext.(l1) g2 g2.l_ext.(l2) (fun e1 e2 ->
        Oid.equal g1.s_oid.(g1.e_src.(e1)) g2.s_oid.(g2.e_src.(e2))
        && same_target g1 e1 g2 e2)

(* A collection's member vector: entry [i] is live when its node's
   membership still sits at [i]. *)
let same_collection g1 g2 c =
  observe g1 __POS__;
  observe g2 __POS__;
  let members g =
    match Stbl.find_opt g.coll_id c with
    | Some cid -> (cid, g.c_mem.(cid))
    | None -> (-1, nil)
  in
  let c1, v1 = members g1 and c2, v2 = members g2 in
  let rec live g cid v i =
    if
      i < v.n && v.dead > 0
      && not
           (match membership g v.a.(i) cid with
            | Some m -> m.pos = i
            | None -> false)
    then live g cid v (i + 1)
    else i
  in
  let rec go i j =
    let i = live g1 c1 v1 i and j = live g2 c2 v2 j in
    if i = v1.n then j = v2.n
    else
      j < v2.n
      && Oid.equal g1.s_oid.(v1.a.(i)) g2.s_oid.(v2.a.(j))
      && go (i + 1) (j + 1)
  in
  go 0 0

(* --- whole-graph operations --- *)

let remove_node g o =
  let s = slot_find g o in
  if s >= 0 then begin
    List.iter (kill_edge g) (live_ids g g.s_out.(s));
    (if g.use_index then live_ids g g.s_in.(s)
     else of_log g (fun e -> g.e_tk.(e) = s lsl 1) Fun.id)
    |> List.iter (kill_edge g);
    List.iter (leave g s) g.s_coll.(s);
    touch g;
    g.s_out.(s) <- gone;
    g.s_in.(s) <- nil;
    unchain_node g s;
    g.n_nodes <- g.n_nodes - 1;
    (match Stbl.find_opt g.names (Oid.name o) with
     | Some o' when Oid.equal o o' -> Stbl.remove g.names (Oid.name o)
     | _ -> ());
    maybe_compact g
  end

let set_out_edges g o edges =
  let s = slot_find g o in
  if s >= 0 then List.iter (kill_edge g) (live_ids g g.s_out.(s));
  List.iter (fun (l, tgt) -> add_edge g o l tgt) edges;
  maybe_compact g

let set_collection g c members =
  List.iter (fun o -> remove_from_collection g c o) (collection g c);
  List.iter (fun o -> add_to_collection g c o) members

(* --- the bulk loader ---

   A graph that starts empty and is only written until it is returned
   is built in two phases.  Events assign slots, label ids and value
   ids and enter the edge log and edge set as [add_edge] does, and a
   membership takes its place in its node's list; no bucket is touched.
   [finish] then sizes every bucket exactly from the log and fills each
   in log order, which is the order one-at-a-time insertion gives. *)

module Loader = struct
  type graph = t
  type nonrec t = { lg : graph; mutable spent : bool }

  let create ?indexed ?name () = { lg = create ?indexed ?name (); spent = false }

  let live ld =
    if ld.spent then invalid_arg "Graph.Loader: used after finish";
    ld.lg

  let add_node ld o = add_node (live ld) o

  let log g s lab tk tgt = ignore (log_edge g s lab tk tgt)
  let add_edge ld src l tgt = add_edge_with log (live ld) src l tgt

  let declare_collection ld c = declare_collection (live ld) c
  let add_to_collection ld c o = join ~fill:false (live ld) c o

  (* [f bs i e] for every bucket [bs.(i)] log entry [e] belongs to *)
  let buckets g f e =
    f g.s_out g.e_src.(e) e;
    if g.use_index then begin
      f g.l_ext g.e_lab.(e) e;
      let tk = g.e_tk.(e) in
      f (if tk land 1 = 1 then g.v_in else g.s_in) (tk lsr 1) e
    end

  let count bs i _ =
    let v = bs.(i) in
    if v == nil then bs.(i) <- { a = [||]; n = 1; dead = 0 } else v.n <- v.n + 1

  (* a counted bucket gets its array at its first entry *)
  let fill bs i e =
    let v = bs.(i) in
    if Array.length v.a = 0 then begin
      v.a <- Array.make v.n 0;
      v.n <- 0
    end;
    v.a.(v.n) <- e;
    v.n <- v.n + 1

  let finish ld =
    let g = live ld in
    ld.spent <- true;
    for e = 0 to g.n_log - 1 do
      buckets g count e
    done;
    for e = 0 to g.n_log - 1 do
      buckets g fill e
    done;
    for c = 0 to g.n_colls - 1 do
      let v = g.c_mem.(c) in
      v.a <- Array.make v.n 0
    done;
    for s = 0 to g.n_slots - 1 do
      List.iter (fun m -> g.c_mem.(m.cid).a.(m.pos) <- s) g.s_coll.(s)
    done;
    g

  (* [src]'s nodes in order, its edges in log order, then its
     collections in order with their members. *)
  let replay ld src =
    let g = live ld in
    let smap = Array.make src.n_slots (-1) in
    for s = 0 to src.n_slots - 1 do
      if src.s_out.(s) != gone then smap.(s) <- slot_of g src.s_oid.(s)
    done;
    let lmap = Array.make src.n_labels (-1)
    and vmap = Array.make src.n_values (-1) in
    for e = 0 to src.n_log - 1 do
      let l = src.e_lab.(e) in
      if l >= 0 then begin
        if lmap.(l) < 0 then lmap.(l) <- label_of g src.l_name.(l);
        let tk = src.e_tk.(e) and tgt = src.e_tgt.(e) in
        let i = tk lsr 1 in
        let tk =
          if tk land 1 = 0 then smap.(i) lsl 1
          else begin
            if vmap.(i) < 0 then vmap.(i) <- tk_of g tgt lsr 1;
            (vmap.(i) lsl 1) lor 1
          end
        in
        let s = smap.(src.e_src.(e)) in
        if find_edge g s lmap.(l) tk < 0 then log g s lmap.(l) tk tgt
      end
    done;
    List.iter
      (fun c ->
        declare_collection ld c;
        List.iter (add_to_collection ld c) (collection src c))
      (collections src)
end

let union ~name gs =
  let indexed = match gs with g :: _ -> g.use_index | [] -> true in
  let ld = Loader.create ~indexed ~name () in
  List.iter (Loader.replay ld) gs;
  Loader.finish ld

let copy ?name g = union ~name:(Option.value name ~default:g.gname) [ g ]

let pp_stats ppf g =
  observe g __POS__;
  Fmt.pf ppf "graph %s: %d nodes, %d edges, %d collections, %d labels"
    g.gname (node_count g) g.n_edges g.n_colls g.n_labels

(* --- the slot layout, read in place --- *)

type kernel_counters = { hits : int; misses : int }

let kernel_counters g =
  { hits = Atomic.get g.k_hits; misses = Atomic.get g.k_misses }

let reset_kernel_counters g =
  Atomic.set g.k_hits 0;
  Atomic.set g.k_misses 0

module Slots = struct
  let is_node tk = tk land 1 = 0
  let index tk = tk lsr 1
  let node_key s = s lsl 1
  let value_key i = (i lsl 1) lor 1
  let count g = g.n_slots
  let find = slot_find
  let live g s = g.s_out.(s) != gone
  let oid g s = g.s_oid.(s)
  let out g s = g.s_out.(s).a
  let out_len g s = g.s_out.(s).n
  let label g e = g.e_lab.(e)
  let target g e = g.e_tk.(e)
  let source g e = g.e_src.(e)

  let in_bucket g tk =
    if is_node tk then g.s_in.(index tk) else g.v_in.(index tk)

  let incoming g tk = (in_bucket g tk).a
  let incoming_len g tk = (in_bucket g tk).n

  let in_degree g tk =
    let v = in_bucket g tk in
    v.n - v.dead

  let label_count g = g.n_labels
  let label_name g l = g.l_name.(l)
  let value_count g = g.n_values
  let value_live g i = g.v_refs.(i) > 0
  let value g i = g.v_val.(i)

  let decode g tk =
    if is_node tk then N g.s_oid.(index tk) else V g.v_val.(index tk)

  let hit g = Atomic.incr g.k_hits
  let miss g = Atomic.incr g.k_misses
end
