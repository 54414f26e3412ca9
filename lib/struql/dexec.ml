(** Differential (semi-naive) evaluation of StruQL site queries.

    The streaming evaluator ({!Exec}) recomputes a site graph from
    scratch; this engine {e maintains} one under a {!Sgraph.Delta}.
    The observation it rests on: the binding relation of a
    delta-evaluable block ({!Plan.delta_class}) is partitioned by its
    {e driver} — the member of the driving collection its opening scan
    binds — and every later plan step only reads forward from
    driver-derived objects, so one driver's partition is a function of
    the out-buckets and memberships within the block's read depth of
    the driver.  A data delta therefore only moves the partitions of
    drivers that reach a touched object in that many hops, and those
    are found by the distance-recording backward closure
    {!Sgraph.Delta.closure} — walked over the incoming-edge index,
    the one the path kernel's backward lane reads.

    Construction events (node creates, edge adds, collection adds —
    observed through {!Eval.emitter}) are recorded per
    (block, driver) and {e support-counted}: a site edge exists while
    any driver's derivation emits it, and its canonical position in
    its out-bucket is the {e minimum} (block, driver-rank, sequence)
    over its supporters — exactly the first mutation that would have
    created it in a cold build.  Retracting an affected driver's
    events, re-deriving just that driver, then re-sorting only the
    touched buckets by canonical position keeps the maintained site
    graph byte-identical to a cold full build at O(change) cost.

    Every live event has a dense int id, handed out the first time a
    derivation emits it, and its fields (identity, support, cached
    minimum position, stamps) live in one flat int array at that id,
    found through a chained index that allocates nothing per probe; a
    derivation is the array of its event ids.  Recording an event
    allocates nothing but the store's growth.

    Blocks that cannot delta-evaluate — aggregates, negation,
    active-domain enumerators, opaque externs, constant-anchored data
    reads, cross products — are replayed in full (as one ⊥ driver),
    with the reason recorded, on every cycle whose delta can change
    what the block's subtree reads ({!reaches}); otherwise their
    recorded events stand as they are.  Every derivation, primed, per
    driver or replayed, steps rows through {!Exec}'s operators
    ({!Exec.stepper}), so the maintained graph and a cold {!Exec.run}
    share one evaluator, and the prime builds its site graph through
    the bulk loader, as a cold build does.  The {!Exec.delta_enabled}
    kill switch turns every cycle into a full re-derivation through the
    same machinery. *)

open Sgraph

(* int-keyed tables: keys are oid ids, minted in sequence, or packed
   from them, so their low bits spread as they are *)
module IT = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k land max_int
end)
module Stbl = Hashtbl.Make (String)

(* --- the event store ---

   Construction events are node creations, edge additions and
   collection additions.  A live event holds a dense int id, and the
   fields of id [i] sit in [ev] at [i * stride + f]: an event costs no
   heap block of its own.  Its identity is the graph's: a node by oid
   id, an edge by (source id, label, target) with values compared by
   {!Value.equal}, a membership by (collection, member id).  Labels and
   collections are interned to name ids, and a target has an int key:
   [oid id lsl 1] for a node, [(Value.hash v lsl 1) lor 1] for a value,
   whose value is compared in [tgts] on a hit. *)

let k_node = 0
let k_edge = 1
let k_coll = 2

let f_key = 0 (* [name lsl 2 lor kind]; -1 for a free id *)
let f_src = 1 (* the node's, edge source's or member's oid id *)
let f_tk = 2 (* the edge target's key; 0 for the other kinds *)
let f_next = 3 (* the index chain; the free-id chain for a free id *)

(* Support: which (block, driver) derivations emit the event, at what
   minimum sequence number.  Retraction always removes a (block,
   driver)'s events wholesale, so per-pair multiplicity is irrelevant
   and only the pair's minimum sequence, its canonical position, is
   kept.  A single supporter, by far the common case, sits in the
   fields; an event with several (shared endpoints like a site's root
   node) keeps them in a side table, so per-driver retraction is O(1),
   not O(supporters).  A drained table leaves the event unsupported. *)
let f_sup = 4 (* the supporter, as a pair key; [none] or [several] *)
let f_sq = 5 (* its minimum sequence *)

(* The canonical position of a supported event is the minimum
   (block, driver rank, sequence) over its supporters.  A single
   supporter's position is its own, with its driver's rank cached in
   [f_rank]; several supporters' minimum is cached in their side
   record.  Either cache is current while [f_epoch] equals the engine's
   rank epoch: a new supporter lowers a current minimum in place,
   retracting the supporter that held it invalidates it, and any rank
   change invalidates every cache at once by bumping the epoch. *)
let f_rank = 6
let f_epoch = 7
let f_emitted = 8 (* serial of the last derivation emitting it *)
let f_recorded = 9 (* serial of the last cycle recording its position *)
let stride = 10

let none = -1
let several = -2

type several = {
  sups : int IT.t;  (* pair key -> min seq *)
  mutable m_k : int;  (* the pair holding the cached minimum *)
  mutable m_b : int;
  mutable m_r : int;
  mutable m_s : int;
}

let no_target = Graph.V Value.Null

let tkey = function
  | Graph.N o -> Oid.id o lsl 1
  | Graph.V v -> (Value.hash v lsl 1) lor 1

(* --- block-tree state --- *)

type bstate = {
  bs_id : int;  (* global preorder id — the major canonical-order key *)
  bs_path : string;  (* "q2.1.3" display path *)
  bs_block : Ast.block;
  bs_cons : Eval.compiled;  (* its construction clauses, compiled once *)
  bs_bound : string list ref;  (* bindings entering the block *)
  mutable bs_steps : Plan.step list;
  mutable bs_fp : string;  (* plan fingerprint *)
  bs_nested : bstate list;
}

type tstate = {
  ts_bs : bstate;
  mutable ts_class : Plan.delta_class;
  (* spaced driver ranks in extent order, so mid-extent insertions
     order without renumbering *)
  ts_ranks : int IT.t;  (* driver oid id -> rank *)
}

type qstate = { qs_query : Ast.query; qs_tops : tstate list }

type counters = {
  mutable c_cycles : int;
  mutable c_drivers : int;  (** drivers (re-)derived *)
  mutable c_rows : int;  (** binding rows (re-)derived *)
  mutable c_events_added : int;
  mutable c_events_removed : int;
  mutable c_events_live : int;  (** events holding an id *)
  mutable c_event_ids : int;  (** ids handed out, live or free *)
  mutable c_fallback_replays : int;  (** ⊥-driver full block replays *)
  mutable c_full_rederives : int;  (** whole-block re-derivations *)
}

type t = {
  options : Eval.options;
  queries : qstate list;
  ranks : int IT.t array;
  (* block id -> the driver ranks of its top-level ancestor *)
  mutable sg : Graph.t;  (* the maintained site graph *)
  scope : Skolem.t;
  mutable data : Graph.t;
  derivs : int array IT.t array;
  (* block id -> driver key -> its event ids, first-emission order;
     driver key -1 = ⊥ *)
  (* the event store: ids [0, hw) are live or free *)
  mutable ev : int array;  (* [stride] fields per id *)
  mutable oids : Oid.t array;  (* the oid behind [f_src] *)
  mutable tgts : Graph.target array;  (* an edge's target *)
  mutable heads : int array;  (* the index: live ids chained by key hash *)
  mutable hw : int;
  mutable live : int;
  mutable free : int;  (* the first free id, -1 when none *)
  multi : several IT.t;  (* id -> its supporters, when several *)
  names : int Stbl.t;  (* label or collection -> name id *)
  mutable name_of : string array;
  mutable epoch : int;  (* rank epoch: bumped by every rank change *)
  mutable serial : int;  (* derivation and cycle stamps *)
  ctr : counters;
  (* the derivations awaiting commit: their ids, one after another, in
     [buf], and per derivation (block id, driver key, start in [buf])
     in [pend] *)
  mutable buf : int array;
  mutable buf_n : int;
  mutable pend : int array;
  mutable pend_n : int;
}

let counters t = t.ctr
let site_graph t = t.sg
let scope t = t.scope
let data_graph t = t.data
let site_queries t = List.map (fun qs -> qs.qs_query) t.queries

let class_string = function
  | Plan.D_static -> "static"
  | Plan.D_driven (c, v, depth) ->
    Printf.sprintf "driven by %s(%s), read depth %s" c v
      (if depth = Plan.unbounded_depth then "unbounded"
       else string_of_int depth)
  | Plan.D_fallback why -> "fallback: " ^ why

let classes t =
  List.concat_map
    (fun qs ->
      List.map
        (fun ts -> (ts.ts_bs.bs_path, class_string ts.ts_class))
        qs.qs_tops)
    t.queries

let fallbacks t =
  List.concat_map
    (fun qs ->
      List.filter_map
        (fun ts ->
          match ts.ts_class with
          | Plan.D_fallback why -> Some (ts.ts_bs.bs_path, why)
          | Plan.D_static | Plan.D_driven _ -> None)
        qs.qs_tops)
    t.queries

(* --- the pending derivations --- *)

(* [a], or a copy at least twice as long, so that index [n] fits *)
let room a n =
  if n < Array.length a then a
  else begin
    let b = Array.make (max 256 (2 * n)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* The next derivation is (block [bid], driver [dk])'s. *)
let open_derivation t bid dk =
  t.serial <- t.serial + 1;
  t.pend <- room t.pend (t.pend_n + 2);
  t.pend.(t.pend_n) <- bid;
  t.pend.(t.pend_n + 1) <- dk;
  t.pend.(t.pend_n + 2) <- t.buf_n;
  t.pend_n <- t.pend_n + 3

(* The derivation in flight emitted [id]. *)
let buffer t id =
  if t.buf_n = Array.length t.buf then t.buf <- room t.buf t.buf_n;
  t.buf.(t.buf_n) <- id;
  t.buf_n <- t.buf_n + 1

(* The pending derivations' ids, in derivation and emission order. *)
let iter_pending t f =
  for k = 0 to t.buf_n - 1 do
    f t.buf.(k)
  done

(* --- names --- *)

let name_id t s =
  match Stbl.find t.names s with
  | i -> i
  | exception Not_found ->
    let i = Stbl.length t.names in
    if i = Array.length t.name_of then begin
      let a = Array.make (max 16 (2 * i)) s in
      Array.blit t.name_of 0 a 0 i;
      t.name_of <- a
    end;
    t.name_of.(i) <- s;
    Stbl.add t.names s i;
    i

let name_find t s =
  match Stbl.find t.names s with i -> i | exception Not_found -> -1

(* --- the index --- *)

let hash key src tk =
  let h = (src * 0x2f0b3a49) + (key * 0x1b873593) + (tk * 0x5bd1e995) in
  h lxor (h lsr 23)

let head t id =
  let i = id * stride in
  let ev = t.ev in
  hash ev.(i + f_key) ev.(i + f_src) ev.(i + f_tk)
  land (Array.length t.heads - 1)

(* closed, so a probe allocates no closure *)
let rec find_from t key src tk tgt id =
  if id < 0 then -1
  else
    let ev = t.ev and i = id * stride in
    if
      ev.(i + f_src) = src
      && ev.(i + f_tk) = tk
      && ev.(i + f_key) = key
      && (tk land 1 = 0 || Graph.target_equal t.tgts.(id) tgt)
    then id
    else find_from t key src tk tgt ev.(i + f_next)

(* The id of an event, -1 when it holds none. *)
let find t kind src name tk tgt =
  let key = (name lsl 2) lor kind in
  find_from t key src tk tgt
    t.heads.(hash key src tk land (Array.length t.heads - 1))

let chain t id =
  let h = head t id in
  t.ev.((id * stride) + f_next) <- t.heads.(h);
  t.heads.(h) <- id

let unchain t id =
  let h = head t id in
  let ev = t.ev in
  if t.heads.(h) = id then t.heads.(h) <- ev.((id * stride) + f_next)
  else begin
    let rec go p =
      let q = ev.((p * stride) + f_next) in
      if q = id then ev.((p * stride) + f_next) <- ev.((id * stride) + f_next)
      else go q
    in
    go t.heads.(h)
  end

let rehash t size =
  t.heads <- Array.make size (-1);
  for id = 0 to t.hw - 1 do
    if t.ev.((id * stride) + f_key) >= 0 then chain t id
  done

(* --- event ids --- *)

let grow t o =
  let n = t.hw in
  let cap = max 1024 (2 * n) in
  let ev = Array.make (cap * stride) 0 in
  Array.blit t.ev 0 ev 0 (n * stride);
  t.ev <- ev;
  let oids = Array.make cap o in
  Array.blit t.oids 0 oids 0 n;
  t.oids <- oids;
  let tgts = Array.make cap no_target in
  Array.blit t.tgts 0 tgts 0 n;
  t.tgts <- tgts

(* The id of an event, handing out a free one, or a new one, the first
   time a derivation emits it. *)
let intern t kind src name tk o tgt =
  let id = find t kind src name tk tgt in
  if id >= 0 then id
  else begin
    let id =
      if t.free >= 0 then begin
        let id = t.free in
        t.free <- t.ev.((id * stride) + f_next);
        id
      end
      else begin
        let id = t.hw in
        if id = Array.length t.oids then grow t o;
        t.hw <- id + 1;
        id
      end
    in
    let ev = t.ev and i = id * stride in
    ev.(i + f_key) <- (name lsl 2) lor kind;
    ev.(i + f_src) <- src;
    ev.(i + f_tk) <- tk;
    ev.(i + f_sup) <- none;
    ev.(i + f_epoch) <- -1;
    ev.(i + f_emitted) <- -1;
    ev.(i + f_recorded) <- -1;
    t.oids.(id) <- o;
    t.tgts.(id) <- tgt;
    t.live <- t.live + 1;
    if t.live > Array.length t.heads then rehash t (2 * Array.length t.heads)
    else chain t id;
    id
  end

(* A drained id leaves the index, so the index holds exactly the live
   events.  Its oid stays until the id is handed out again. *)
let release t id =
  unchain t id;
  let i = id * stride in
  t.ev.(i + f_key) <- -1;
  t.ev.(i + f_next) <- t.free;
  t.free <- id;
  t.tgts.(id) <- no_target;
  t.live <- t.live - 1

let kind t id = t.ev.((id * stride) + f_key) land 3
let name t id = t.name_of.(t.ev.((id * stride) + f_key) lsr 2)
let supported t id = t.ev.((id * stride) + f_sup) <> none

(* --- canonical positions --- *)

let rank_of t bid dk =
  if dk = -1 then 0
  else
    match IT.find t.ranks.(bid) dk with
    | r -> r
    | exception Not_found -> max_int

let ranks_changed t = t.epoch <- t.epoch + 1

(* A (block, driver) pair as one int key, and back: a driver key is
   -1 (⊥) or an oid id, and oid ids are minted in sequence from 1. *)
let pair t bid dk = ((dk + 1) * Array.length t.derivs) + bid
let pair_block t k = k mod Array.length t.derivs
let pair_driver t k = (k / Array.length t.derivs) - 1

(* (b, r, q) strictly before the side record's cached minimum *)
let before b r q m =
  b < m.m_b || (b = m.m_b && (r < m.m_r || (r = m.m_r && q < m.m_s)))

let set_min m k b r q =
  m.m_k <- k;
  m.m_b <- b;
  m.m_r <- r;
  m.m_s <- q

(* Make the id's cached position current. *)
let minpos t id =
  let i = id * stride in
  if t.ev.(i + f_epoch) <> t.epoch then begin
    let k = t.ev.(i + f_sup) in
    if k >= 0 then
      t.ev.(i + f_rank) <- rank_of t (pair_block t k) (pair_driver t k)
    else if k = several then begin
      let m = IT.find t.multi id in
      set_min m none max_int 0 0;
      IT.iter
        (fun k q ->
          let b = pair_block t k in
          let r = rank_of t b (pair_driver t k) in
          if before b r q m then set_min m k b r q)
        m.sups
    end;
    t.ev.(i + f_epoch) <- t.epoch
  end

(* The id's canonical position; an unsupported event sits at
   (max_int, 0, 0). *)
let position t id =
  minpos t id;
  let i = id * stride in
  let k = t.ev.(i + f_sup) in
  if k >= 0 then (pair_block t k, t.ev.(i + f_rank), t.ev.(i + f_sq))
  else if k = none then (max_int, 0, 0)
  else
    let m = IT.find t.multi id in
    (m.m_b, m.m_r, m.m_s)

(* --- support --- *)

(* Add supporter (bid, dk) at sequence [q]; [r] is the driver's rank.
   True when the event had no support. *)
let sup_add t id bid dk r q =
  let ev = t.ev and i = id * stride in
  let k0 = ev.(i + f_sup) and k = pair t bid dk in
  if k0 = none then begin
    ev.(i + f_sup) <- k;
    ev.(i + f_sq) <- q;
    ev.(i + f_rank) <- r;
    ev.(i + f_epoch) <- t.epoch;
    true
  end
  else begin
    if k0 = k then begin
      if q < ev.(i + f_sq) then ev.(i + f_sq) <- q
    end
    else if k0 >= 0 then begin
      let q0 = ev.(i + f_sq) in
      let sups = IT.create 4 in
      IT.replace sups k0 q0;
      IT.replace sups k q;
      (* the cached rank, and so this minimum, is as current as
         [f_epoch] says *)
      let m =
        {
          sups;
          m_k = k0;
          m_b = pair_block t k0;
          m_r = ev.(i + f_rank);
          m_s = q0;
        }
      in
      if before bid r q m then set_min m k bid r q;
      IT.replace t.multi id m;
      ev.(i + f_sup) <- several
    end
    else begin
      let m = IT.find t.multi id in
      (match IT.find_opt m.sups k with
       | Some q0 when q0 <= q -> ()
       | _ -> IT.replace m.sups k q);
      if ev.(i + f_epoch) = t.epoch && before bid r q m then set_min m k bid r q
    end;
    false
  end

(* Drop supporter (bid, dk); true when that drained the support. *)
let sup_retract t id bid dk =
  let ev = t.ev and i = id * stride in
  let k0 = ev.(i + f_sup) and k = pair t bid dk in
  if k0 >= 0 then begin
    if k0 = k then ev.(i + f_sup) <- none;
    k0 = k
  end
  else if k0 = none then false
  else begin
    let m = IT.find t.multi id in
    IT.remove m.sups k;
    if m.m_k = k then ev.(i + f_epoch) <- -1;
    if IT.length m.sups = 0 then begin
      IT.remove t.multi id;
      ev.(i + f_sup) <- none;
      true
    end
    else false
  end

(* --- planning and classification --- *)

let fingerprint steps =
  String.concat ";" (List.map (fun s -> Fmt.str "%a" Plan.pp_step s) steps)

let plan_block t bs =
  let needed_obj, needed_label = Eval.construction_needs bs.bs_block in
  Plan.plan ~strategy:t.options.Eval.strategy
    ~registry:t.options.Eval.registry t.data ~bound:!(bs.bs_bound)
    ~needed_obj ~needed_label bs.bs_block.Ast.where

(* (Re)plan a block subtree top-down, propagating the bound sets a cold
   {!Exec.run} computes; returns whether any plan changed
   shape (a shape change invalidates every stored derivation of the
   subtree, because row order depends on step order). *)
let rec replan t bs =
  let steps = plan_block t bs in
  let fp = fingerprint steps in
  let changed = fp <> bs.bs_fp in
  bs.bs_steps <- steps;
  bs.bs_fp <- fp;
  let bound' =
    Ast.dedup
      (!(bs.bs_bound) @ List.concat_map (fun s -> Plan.step_binds s) steps)
  in
  List.fold_left
    (fun acc nb ->
      nb.bs_bound := bound';
      let c = replan t nb in
      acc || c)
    changed bs.bs_nested

(* Classification of a whole top-level subtree ({!Plan.delta_class}),
   answered from the plans [replan] just stored. *)
let classify ts =
  let rec find bs ~bound b =
    if bs.bs_block == b && !(bs.bs_bound) = bound then Some bs.bs_steps
    else List.find_map (fun nb -> find nb ~bound b) bs.bs_nested
  in
  Plan.delta_class ~pure:Builtins.pure_extern
    ~plan:(fun ~bound b -> Option.get (find ts.ts_bs ~bound b))
    ts.ts_bs.bs_block

(* --- event recording --- *)

(* A derivation records each event once, at its first emission: a
   repeat cannot lower the derivation's minimum sequence, and skipping
   it spares the commit and the stored array. *)
let emitter t ~apply =
  let push id =
    let i = (id * stride) + f_emitted in
    if t.ev.(i) <> t.serial then begin
      t.ev.(i) <- t.serial;
      buffer t id
    end
  in
  let node o = push (intern t k_node (Oid.id o) 0 0 o no_target) in
  {
    Eval.em_apply = apply;
    em_node = node;
    em_edge =
      (fun s l tg ->
        (* a LINK's source is a Skolem term, which the row built, and
           so recorded, before the edge; a node target may be a data
           node, whose existence rides the edge event, so data nodes
           pulled into the site graph are support-counted too *)
        (match tg with Graph.N o -> node o | Graph.V _ -> ());
        push (intern t k_edge (Oid.id s) (name_id t l) (tkey tg) s tg));
    em_coll =
      (fun c o ->
        push (intern t k_coll (Oid.id o) (name_id t c) 0 o no_target));
  }

(* The driver key of a row of a block driven through [v], and of a row
   of a block that is not ([bottom]: ⊥). *)
let driver_of v row =
  match Eval.Env.find v row with
  | Eval.B_target (Graph.N d) -> Oid.id d
  | Eval.B_target (Graph.V _) | Eval.B_label _ -> assert false

let bottom (_ : Eval.env) = -1

(* The input row of driver [d]. *)
let driver_env v d =
  Eval.Env.add v (Eval.B_target (Graph.N d)) Eval.Env.empty

(* Evaluate one block over its input rows, driver-major, and construct
   into [sink], in cold block-major order: all of this block's rows
   (drivers in extent order) construct before any nested block runs —
   the exact cold mutation order, since a cold block's relation is
   driver-major (its opening scan enumerates the extent in order).
   Each run of rows of one driver ([driver]) is one derivation. *)
let rec blockmajor t sink ~driver bs (inputs : Eval.env list) =
  let bld = Eval.builder sink bs.bs_cons in
  let rows =
    Exec.stepper t.data t.options.Eval.registry ~bound:!(bs.bs_bound)
      bs.bs_steps inputs
  in
  t.ctr.c_rows <- t.ctr.c_rows + List.length rows;
  let cur = ref min_int in
  List.iter
    (fun row ->
      let dk = driver row in
      if dk <> !cur then begin
        if !cur <> min_int then Eval.flush bld;
        open_derivation t bs.bs_id dk;
        cur := dk
      end;
      Eval.row bld row)
    rows;
  if !cur <> min_int then Eval.flush bld;
  List.iter (fun nb -> blockmajor t sink ~driver nb rows) bs.bs_nested

(* --- driver ranks --- *)

let rank_gap = 1024

exception Rank_overflow

(* Assign spaced ranks to extent members missing one, preserving the
   extent's order relative to already-ranked survivors.  Raises
   [Rank_overflow] when a gap is exhausted (the caller re-derives the
   whole block, which renumbers). *)
let assign_ranks ts extent =
  let arr = Array.of_list extent in
  let n = Array.length arr in
  let rank_of i = IT.find_opt ts.ts_ranks (Oid.id arr.(i)) in
  let last = ref 0 in
  let i = ref 0 in
  while !i < n do
    match rank_of !i with
    | Some r ->
      last := r;
      incr i
    | None ->
      (* run of unranked members [!i .. !j-1] before the next ranked *)
      let j = ref !i in
      while !j < n && rank_of !j = None do
        incr j
      done;
      let run = !j - !i in
      let hi =
        if !j < n then
          match rank_of !j with Some r -> r | None -> assert false
        else !last + ((run + 1) * rank_gap)
      in
      if hi - !last <= run then raise Rank_overflow;
      let step = max 1 ((hi - !last) / (run + 1)) in
      for k = !i to !j - 1 do
        last := !last + step;
        IT.replace ts.ts_ranks (Oid.id arr.(k)) !last
      done;
      i := !j
  done

let renumber_ranks ts extent =
  IT.reset ts.ts_ranks;
  List.iteri
    (fun i o -> IT.replace ts.ts_ranks (Oid.id o) ((i + 1) * rank_gap))
    extent

(* --- engine construction --- *)

let create ?(options = Eval.default_options) ~queries data =
  if options.Eval.validate then List.iter Check.validate_exn queries;
  let next_id = ref 0 in
  let rec mk path (b : Ast.block) =
    let id = !next_id in
    incr next_id;
    {
      bs_id = id;
      bs_path = path;
      bs_block = b;
      bs_cons = Eval.compile b;
      bs_bound = ref [];
      bs_steps = [];
      bs_fp = "";
      bs_nested =
        List.mapi
          (fun i nb -> mk (path ^ "." ^ string_of_int (i + 1)) nb)
          b.Ast.nested;
    }
  in
  let queries =
    List.mapi
      (fun qi q ->
        let qs_tops =
          List.mapi
            (fun bi b ->
              let bs = mk (Printf.sprintf "q%d.%d" (qi + 1) (bi + 1)) b in
              {
                ts_bs = bs;
                ts_class = Plan.D_static;
                ts_ranks = IT.create 64;
              })
            q.Ast.blocks
        in
        { qs_query = q; qs_tops })
      queries
  in
  let ranks = Array.make !next_id (IT.create 0) in
  List.iter
    (fun qs ->
      List.iter
        (fun ts ->
          let rec reg bs =
            ranks.(bs.bs_id) <- ts.ts_ranks;
            List.iter reg bs.bs_nested
          in
          reg ts.ts_bs)
        qs.qs_tops)
    queries;
  {
    options;
    queries;
    ranks;
    sg = Graph.create ~name:"site" ();
    scope = Skolem.create ();
    data;
    derivs = Array.init !next_id (fun _ -> IT.create 16);
    ev = [||];
    oids = [||];
    tgts = [||];
    heads = Array.make 1024 (-1);
    hw = 0;
    live = 0;
    free = -1;
    multi = IT.create 64;
    names = Stbl.create 64;
    name_of = [||];
    epoch = 0;
    serial = 0;
    ctr =
      {
        c_cycles = 0;
        c_drivers = 0;
        c_rows = 0;
        c_events_added = 0;
        c_events_removed = 0;
        c_events_live = 0;
        c_event_ids = 0;
        c_fallback_replays = 0;
        c_full_rederives = 0;
      };
    buf = [||];
    buf_n = 0;
    pend = [||];
    pend_n = 0;
  }

(* Commit the pending derivations, in derivation order: store their id
   arrays and add support.  [announce] sees ids whose support went
   0 -> 1. *)
let commit t ~announce =
  let n = t.pend_n / 3 in
  for k = 0 to n - 1 do
    let bid = t.pend.(3 * k) and dk = t.pend.((3 * k) + 1) in
    let start = t.pend.((3 * k) + 2) in
    let stop = if k + 1 < n then t.pend.((3 * k) + 5) else t.buf_n in
    let tbl = t.derivs.(bid) in
    if stop = start then IT.remove tbl dk
    else IT.replace tbl dk (Array.sub t.buf start (stop - start));
    t.ctr.c_events_added <- t.ctr.c_events_added + (stop - start);
    let r = rank_of t bid dk in
    for q = 0 to stop - start - 1 do
      let id = t.buf.(start + q) in
      if sup_add t id bid dk r q then announce id
    done
  done;
  t.pend_n <- 0;
  t.buf_n <- 0

(* Retract the derivations of (block list x driver): drop support; ids
   whose support drains to zero are pushed onto [drained]. *)
let retract t ~drained bs_ids dk =
  List.iter
    (fun bid ->
      let tbl = t.derivs.(bid) in
      match IT.find_opt tbl dk with
      | None -> ()
      | Some ids ->
        IT.remove tbl dk;
        t.ctr.c_events_removed <- t.ctr.c_events_removed + Array.length ids;
        Array.iter
          (fun id -> if sup_retract t id bid dk then drained := id :: !drained)
          ids)
    bs_ids

let subtree_ids bs =
  let rec go acc bs = List.fold_left go (bs.bs_id :: acc) bs.bs_nested in
  List.rev (go [] bs)

let rec subtree_steps bs =
  bs.bs_steps @ List.concat_map subtree_steps bs.bs_nested

(* Whether the delta can change what a subtree with footprint [fp]
   reads: its rows are a function of its collections' extents and its
   labels' extents in order ({!Plan.delta_footprint}), so only a member
   gained or lost, an edge added or removed, or one of those orders
   moving can change them.  [g] is the post-change graph; a
   resequenced node keeps its edge set, so its bucket there tells
   whether it holds a footprint label. *)
let reaches g (d : Delta.t) (fp : Plan.footprint) =
  let coll c = List.mem c fp.Plan.fp_collections
  and lab l = List.mem l fp.Plan.fp_labels in
  fp.Plan.fp_opaque
  || List.exists (fun (c, _) -> coll c) d.Delta.coll_added
  || List.exists (fun (c, _) -> coll c) d.Delta.coll_removed
  || List.exists coll d.Delta.reordered
  || List.exists (fun (_, l, _) -> lab l) d.Delta.edges_added
  || List.exists (fun (_, l, _) -> lab l) d.Delta.edges_removed
  || List.exists lab d.Delta.label_reordered
  || List.exists
       (fun o -> List.exists (fun (l, _) -> lab l) (Graph.out_edges g o))
       d.Delta.resequenced

let drivers_of_derivs t bs_ids =
  List.sort_uniq compare
    (List.fold_left
       (fun acc bid ->
         IT.fold (fun dk _ acc -> if dk <> -1 then dk :: acc else acc)
           t.derivs.(bid) acc)
       [] bs_ids)

(** Cold-prime the engine: plan, classify, and construct the site graph
    with a cold build's exact mutation sequence, through the bulk
    loader as {!Exec.run_all} does, recording every construction event.
    The result is byte-identical to {!Exec.run} of the same queries over
    the same data graph. *)
let prime t =
  let ld = Graph.Loader.create ~name:"site" () in
  let sink =
    { Eval.out = Eval.Fresh ld; scope = t.scope;
      emit = Some (emitter t ~apply:true) }
  in
  List.iter
    (fun qs ->
      List.iter
        (fun ts ->
          ignore (replan t ts.ts_bs);
          ts.ts_class <- classify ts;
          (match ts.ts_class with
           | Plan.D_driven (coll, v, _) ->
             let extent = Graph.collection t.data coll in
             renumber_ranks ts extent;
             ranks_changed t;
             t.ctr.c_drivers <- t.ctr.c_drivers + List.length extent;
             blockmajor t sink ~driver:(driver_of v) ts.ts_bs
               (List.map (driver_env v) extent)
           | Plan.D_static | Plan.D_fallback _ ->
             blockmajor t sink ~driver:bottom ts.ts_bs [ Eval.Env.empty ]);
          commit t ~announce:ignore)
        qs.qs_tops)
    t.queries;
  t.sg <- Graph.Loader.finish ld;
  (* the buffers grew to the largest block's events: a cycle needs
     only its change's *)
  t.buf <- [||];
  t.pend <- [||];
  t.ctr.c_events_live <- t.live;
  t.ctr.c_event_ids <- t.hw

(* --- the delta cycle --- *)

type site_change = {
  sc_touched : Oid.t list;
      (** site nodes created, or whose ordered out-edges or collection
          list changed *)
  sc_removed : Oid.t list;  (** site nodes that no longer exist *)
  sc_drivers : int;  (** drivers re-derived this cycle *)
  sc_rows : int;  (** binding rows re-derived this cycle *)
  sc_fallbacks : (string * string) list;
      (** (block path, reason) of full block replays this cycle *)
  sc_structural : bool;
      (** a site node, or an edge to a node, was net added or removed *)
  sc_labels : string list;
      (** labels of the value edges net added or removed, and of every
          edge in an out-bucket the cycle re-sorted *)
}

module SS = Set.Make (String)

let apply ?data t (delta : Delta.t) : site_change =
  (match data with Some g -> t.data <- g | None -> ());
  let g = t.data in
  t.ctr.c_cycles <- t.ctr.c_cycles + 1;
  t.serial <- t.serial + 1;
  let cycle = t.serial in
  let c_drivers0 = t.ctr.c_drivers and c_rows0 = t.ctr.c_rows in
  (* plan and classify every top-level block first, so one backward
     walk, as deep as the deepest driven block reads, serves them all *)
  let tops =
    List.concat_map
      (fun qs ->
        List.map
          (fun ts ->
            let plan_changed = replan t ts.ts_bs in
            (ts, plan_changed, classify ts))
          qs.qs_tops)
      t.queries
  in
  let reach_depth =
    List.fold_left
      (fun acc (_, _, cls) ->
        match cls with Plan.D_driven (_, _, d) -> max acc d | _ -> acc)
      0 tops
  in
  let closure = lazy (Delta.closure ~depth:reach_depth g delta) in
  let drained = ref [] in
  let announced = ref [] in
  let touched_srcs = ref Oid.Set.empty in
  let touched_colls = ref SS.empty in
  (* every node an event of this cycle mentions: the candidates for the
     touched set, which the state comparison below settles *)
  let noted = ref Oid.Set.empty in
  let fallbacks_run = ref [] in
  let note id =
    let o = t.oids.(id) in
    noted := Oid.Set.add o !noted;
    let k = kind t id in
    if k = k_edge then touched_srcs := Oid.Set.add o !touched_srcs
    else if k = k_coll then touched_colls := SS.add (name t id) !touched_colls
  in
  (* Position-diff noting for the incremental path: record the
     canonical position of every event a re-derived driver previously
     emitted — and of every event buffered this cycle — BEFORE the
     commit, then note only the events whose position or existence
     actually changed.  An event retracted and re-derived identically
     (the overwhelming majority under a small delta) leaves its bucket
     untouched, so the canonical re-sorts below stay O(change) instead
     of O(collection).  Node events are existence-only and never drive
     a sort: new ones are noted at announce time, dead ones by the
     removal loop.  Recording happens before the block's rank changes
     and retractions, so a shared event's first recording always
     captures its true pre-cycle position. *)
  let prepos = ref [] in
  let record_prepos id =
    let i = (id * stride) + f_recorded in
    if kind t id <> k_node && t.ev.(i) <> cycle then begin
      t.ev.(i) <- cycle;
      prepos := (id, position t id) :: !prepos
    end
  in
  let sink =
    { Eval.out = Eval.Live t.sg; scope = t.scope;
      emit = Some (emitter t ~apply:false) }
  in
  let disabled = not !Exec.delta_enabled in
  List.iter
    (fun (ts, plan_changed, cls) ->
      let bs = ts.ts_bs in
      let ids = subtree_ids bs in
      let class_changed = cls <> ts.ts_class in
      ts.ts_class <- cls;
      let old_evs_iter f dk =
        List.iter
          (fun bid ->
            match IT.find_opt t.derivs.(bid) dk with
            | None -> ()
            | Some ids -> Array.iter f ids)
          ids
      in
      (* full replays note the buckets of a driver's OLD events
         unconditionally (whole-block rank renumbering can reorder
         survivors); the incremental path records positions instead
         and lets the post-commit diff decide *)
      let note_old_and_retract dk =
        old_evs_iter note dk;
        retract t ~drained ids dk
      in
      let replay_whole () =
        List.iter note_old_and_retract (-1 :: drivers_of_derivs t ids);
        blockmajor t sink ~driver:bottom bs [ Eval.Env.empty ]
      in
      match cls with
      | Plan.D_static ->
        (* data-independent: only a plan/class change can move it *)
        if disabled || plan_changed || class_changed then begin
          t.ctr.c_full_rederives <- t.ctr.c_full_rederives + 1;
          replay_whole ()
        end
      | Plan.D_fallback why ->
        (* replayed only when the delta can change what it reads *)
        if
          disabled || plan_changed || class_changed
          || reaches g delta (Plan.delta_footprint (subtree_steps bs))
        then begin
          t.ctr.c_fallback_replays <- t.ctr.c_fallback_replays + 1;
          fallbacks_run := (bs.bs_path, why) :: !fallbacks_run;
          replay_whole ()
        end
      | Plan.D_driven (coll, v, depth) ->
        let full =
          disabled || plan_changed || class_changed
          || List.mem coll delta.Delta.reordered
        in
        (* [oid_of] resolves affected driver keys to their nodes; a
           key is a live driver iff it holds a rank (ranks track
           extent membership exactly).  The incremental branch
           builds it from the delta's closure and membership
           changes alone — O(change), never O(extent). *)
        let affected_dks, oid_of =
          if full then begin
            t.ctr.c_full_rederives <- t.ctr.c_full_rederives + 1;
            let extent = Graph.collection g coll in
            renumber_ranks ts extent;
            ranks_changed t;
            let old = drivers_of_derivs t ids in
            let now = List.map (fun o -> Oid.id o) extent in
            let h = Hashtbl.create ((2 * List.length extent) + 1) in
            List.iter (fun o -> Hashtbl.replace h (Oid.id o) o) extent;
            (List.sort_uniq compare (old @ now), h)
          end
          else begin
            (* membership changes of the driving collection *)
            let member_pairs =
              List.filter
                (fun (c, _) -> c = coll)
                (delta.Delta.coll_added @ delta.Delta.coll_removed)
            in
            let member_dks =
              List.map (fun (_, o) -> Oid.id o) member_pairs
            in
            let h = Hashtbl.create 64 in
            List.iter
              (fun (_, o) -> Hashtbl.replace h (Oid.id o) o)
              member_pairs;
            (* drivers whose neighbourhood, as far as the block
               reads, the delta touches *)
            let reach =
              Oid.Map.fold
                (fun o hops acc ->
                  let dk = Oid.id o in
                  if hops > depth then acc
                  else begin
                    Hashtbl.replace h dk o;
                    if IT.mem ts.ts_ranks dk
                       || IT.mem t.derivs.(bs.bs_id) dk
                    then dk :: acc
                    else acc
                  end)
                (Lazy.force closure) []
            in
            let affected = List.sort_uniq compare (member_dks @ reach) in
            (* positions are recorded under the pre-cycle ranks: a
               removed driver that held a shared event's minimum
               must still hold it in the recording, or the event's
               move to its next supporter goes unnoticed *)
            List.iter (old_evs_iter record_prepos) affected;
            List.iter
              (fun (c, o) ->
                if c = coll then IT.remove ts.ts_ranks (Oid.id o))
              delta.Delta.coll_removed;
            (if List.exists (fun (c, _) -> c = coll) delta.Delta.coll_added
             then
               let extent = Graph.collection g coll in
               try assign_ranks ts extent
               with Rank_overflow -> renumber_ranks ts extent);
            if member_pairs <> [] then ranks_changed t;
            (affected, h)
          end
        in
        (* also retract any stale ⊥ events from an earlier
           classification of this block *)
        if full then note_old_and_retract (-1);
        let per_driver =
          List.filter_map
            (fun dk ->
              (if full then note_old_and_retract dk
               else retract t ~drained ids dk);
              match Hashtbl.find_opt oid_of dk with
              | Some d when IT.mem ts.ts_ranks dk ->
                t.ctr.c_drivers <- t.ctr.c_drivers + 1;
                Some (dk, driver_env v d)
              | _ -> None (* removed driver: retraction only *))
            affected_dks
        in
        (* derive in extent (rank) order, matching cold row order *)
        let per_driver =
          List.sort
            (fun (a, _) (b, _) ->
              compare
                (IT.find_opt ts.ts_ranks a)
                (IT.find_opt ts.ts_ranks b))
            per_driver
        in
        if per_driver <> [] then
          blockmajor t sink ~driver:(driver_of v) bs
            (List.map snd per_driver))
    tops;
  (* buffered events record their pre-commit position: genuinely new
     events (and events whose support was just drained) read max_int,
     so the diff below notes them; re-derivations at an unchanged
     position cancel out *)
  iter_pending t record_prepos;
  commit t ~announce:(fun id ->
      announced := id :: !announced;
      if kind t id = k_node then note id);
  (* position diff: note exactly the events whose canonical position
     moved or whose existence flipped *)
  List.iter (fun (id, p) -> if position t id <> p then note id) !prepos;
  (* net removals: drained and not re-supported *)
  let net_removed = List.filter (fun id -> not (supported t id)) !drained in
  List.iter note net_removed;
  (* what a render can read of each noted node, before the graph moves:
     its ordered out-edges and its collection list ([None]: not in the
     site graph yet) *)
  let before =
    Oid.Set.fold
      (fun o acc ->
        Oid.Map.add o
          (if Graph.mem_node t.sg o then
             Some (Graph.out_edges t.sg o, Graph.collections_of t.sg o)
           else None)
          acc)
      !noted Oid.Map.empty
  in
  (* what the constraint checks can see move: nodes and node edges
     coming or going, and the labels whose extents change.  A node is
     new when the graph lacks it before any addition: adding an edge
     or a membership creates its endpoints, so its own event, applied
     after them, could not tell. *)
  let structural =
    ref
      (List.exists
         (fun id ->
           kind t id = k_node && not (Graph.mem_node t.sg t.oids.(id)))
         !announced)
  and labels = ref SS.empty in
  let edge_moved l = function
    | Graph.N _ -> structural := true
    | Graph.V _ -> labels := SS.add l !labels
  in
  (* apply the removals; their ids are freed *)
  let removed_nodes = ref [] in
  List.iter
    (fun id ->
      let k = kind t id and o = t.oids.(id) and tg = t.tgts.(id) in
      let l = if k = k_node then "" else name t id in
      release t id;
      if k = k_node then begin
        structural := true;
        removed_nodes := o :: !removed_nodes
      end
      else if k = k_edge then begin
        edge_moved l tg;
        Graph.remove_edge t.sg o l tg
      end
      else Graph.remove_from_collection t.sg l o)
    net_removed;
  (* nodes go last: their dangling edges and memberships are gone
     (construction emits a node event for every endpoint it mentions,
     so node support always outlives edge support) *)
  List.iter (Graph.remove_node t.sg) !removed_nodes;
  (* net additions (add_edge recreates endpoints as needed); bucket and
     extent order is canonicalized below, so application order is free.
     An announced event re-supported after draining is still there. *)
  List.iter
    (fun id ->
      let k = kind t id and o = t.oids.(id) in
      if k = k_node then Graph.add_node t.sg o
      else if k = k_edge then begin
        let l = name t id and tg = t.tgts.(id) in
        if not (Graph.has_edge t.sg o l tg) then edge_moved l tg;
        Graph.add_edge t.sg o l tg
      end
      else Graph.add_to_collection t.sg (name t id) o)
    !announced;
  (* canonical re-sort of every touched bucket and collection, each
     element decorated once with its event's minimum position *)
  let sort_by_minpos find items =
    List.map
      (fun x ->
        let id = find x in
        ((if id >= 0 then position t id else (max_int, 0, 0)), x))
      items
    |> List.stable_sort (fun (a, _) (b, _) -> compare (a : int * int * int) b)
    |> List.map snd
  in
  Oid.Set.iter
    (fun src ->
      if Graph.mem_node t.sg src then begin
        let cur = Graph.out_edges t.sg src in
        let sorted =
          sort_by_minpos
            (fun (l, tg) ->
              find t k_edge (Oid.id src) (name_find t l) (tkey tg) tg)
            cur
        in
        if sorted <> cur then begin
          (* re-added edges go last in their labels' extents *)
          List.iter (fun (l, _) -> labels := SS.add l !labels) sorted;
          Graph.set_out_edges t.sg src sorted
        end
      end)
    !touched_srcs;
  SS.iter
    (fun c ->
      let cur = Graph.collection t.sg c in
      let cid = name_find t c in
      let sorted =
        sort_by_minpos (fun o -> find t k_coll (Oid.id o) cid 0 no_target) cur
      in
      if sorted <> cur then Graph.set_collection t.sg c sorted)
    !touched_colls;
  t.ctr.c_events_live <- t.live;
  t.ctr.c_event_ids <- t.hw;
  (* touched: the noted nodes a render would now read differently *)
  let same_edges a b =
    List.equal
      (fun (l, x) (l', y) -> String.equal l l' && Graph.target_equal x y)
      a b
  in
  let touched =
    Oid.Map.fold
      (fun o was acc ->
        if not (Graph.mem_node t.sg o) then acc
        else
          match was with
          | None -> o :: acc
          | Some (edges, colls) ->
            if
              same_edges edges (Graph.out_edges t.sg o)
              && List.equal String.equal colls (Graph.collections_of t.sg o)
            then acc
            else o :: acc)
      before []
  in
  {
    sc_touched = List.rev touched;
    sc_removed = List.sort_uniq Oid.compare !removed_nodes;
    sc_drivers = t.ctr.c_drivers - c_drivers0;
    sc_rows = t.ctr.c_rows - c_rows0;
    sc_fallbacks = List.rev !fallbacks_run;
    sc_structural = !structural;
    sc_labels = SS.elements !labels;
  }

let pp_counters ppf c =
  Fmt.pf ppf
    "cycles=%d drivers=%d rows=%d events +%d/-%d live=%d ids=%d \
     fallback-replays=%d full-rederives=%d"
    c.c_cycles c.c_drivers c.c_rows c.c_events_added c.c_events_removed
    c.c_events_live c.c_event_ids c.c_fallback_replays c.c_full_rederives
