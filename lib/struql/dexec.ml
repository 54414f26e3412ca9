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
    derivation emits it; a derivation is the array of its event ids,
    and an event's support and cached minimum position live in its id's
    slot, so the per-cycle bookkeeping indexes arrays instead of hashing
    event keys.

    Blocks that cannot delta-evaluate — aggregates, negation,
    active-domain enumerators, opaque externs, constant-anchored data
    reads, cross products — are replayed in full (as one ⊥ driver),
    with the reason recorded, on every cycle whose delta can change
    what the block's subtree reads ({!reaches}); otherwise their
    recorded events stand as they are.  Every derivation, primed, per
    driver or replayed, steps rows through {!Exec}'s operators
    ({!Exec.stepper}), so the maintained graph and a cold {!Exec.run}
    share one evaluator.  The {!Exec.delta_enabled} kill switch turns
    every cycle into a full re-derivation through the same machinery. *)

open Sgraph

(* --- construction events and their identities --- *)

type ev =
  | E_node of Oid.t
  | E_edge of Oid.t * string * Graph.target
  | E_coll of string * Oid.t

(* An event's identity.  Edges are keyed as {!Graph}'s own edge set
   keys them (source id, label, target key), so values hash
   structurally and are never printed. *)
type ekey =
  | K_node of int
  | K_edge of int * string * Graph.tkey
  | K_coll of string * int

let key_of = function
  | E_node o -> K_node (Oid.id o)
  | E_edge (s, l, tg) -> K_edge (Oid.id s, l, Graph.tkey tg)
  | E_coll (c, o) -> K_coll (c, Oid.id o)

(* Support of an event: which (block, driver) derivations emit it, at
   what minimum sequence number.  Retraction always removes a
   (block, driver)'s events wholesale, so per-pair multiplicity is
   irrelevant and only the pair's minimum sequence — its canonical
   position — is kept.  Single support is by far the common case and
   gets an immediate representation; events emitted by many drivers
   (shared endpoints like a site's root node) are promoted to a table
   so per-driver retraction is O(1), not O(supporters).  A drained
   table reverts to [S0]. *)
type sups =
  | S0
  | S1 of int * int * int  (* block id, driver key, min seq *)
  | SM of (int * int, int) Hashtbl.t  (* (block, driver) -> min seq *)

(* An event id's slot.  The minimum canonical position over its
   supporters — (mp_b, mp_r, mp_s) = (block, driver rank, sequence),
   held by driver mp_d — is cached while [mp_epoch] equals the engine's
   rank epoch: a new supporter lowers it in place, retracting the
   supporter that held it invalidates it, and any rank change
   invalidates every slot at once by bumping the epoch. *)
type slot = {
  mutable ev : ev;
  mutable sup : sups;
  mutable emitted : int;  (* serial of the last derivation emitting it *)
  mutable recorded : int;  (* serial of the last cycle recording it *)
  mutable mp_epoch : int;
  mutable mp_b : int;
  mutable mp_d : int;
  mutable mp_r : int;
  mutable mp_s : int;
}

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
  ts_ranks : (int, int) Hashtbl.t;  (* driver oid id -> rank *)
}

type qstate = { qs_query : Ast.query; qs_tops : tstate list }

type counters = {
  mutable c_cycles : int;
  mutable c_drivers : int;  (** drivers (re-)derived *)
  mutable c_rows : int;  (** binding rows (re-)derived *)
  mutable c_events_added : int;
  mutable c_events_removed : int;
  mutable c_events_live : int;  (** events holding an id *)
  mutable c_fallback_replays : int;  (** ⊥-driver full block replays *)
  mutable c_full_rederives : int;  (** whole-block re-derivations *)
}

type t = {
  options : Eval.options;
  queries : qstate list;
  ranks : (int, int) Hashtbl.t array;
  (* block id -> the driver ranks of its top-level ancestor *)
  sg : Graph.t;  (* the maintained site graph *)
  scope : Skolem.t;
  mutable data : Graph.t;
  derivs : (int * int, int array) Hashtbl.t;
  (* (block id, driver key) -> its event ids, first-emission order;
     driver key -1 = ⊥ *)
  ids : (ekey, int) Hashtbl.t;  (* live event -> id *)
  mutable slots : slot array;  (* ids [0, hw) in use or free *)
  mutable hw : int;
  mutable free : int list;  (* drained ids, reused before [hw] grows *)
  mutable epoch : int;  (* rank epoch: bumped by every rank change *)
  mutable serial : int;  (* derivation and cycle stamps *)
  ctr : counters;
  (* the derivation in flight, and those awaiting commit *)
  mutable cur : int list;
  mutable pending : (int * int * int list) list;
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

(* --- event ids --- *)

(* The id of event [e], handing out a fresh (or recycled) one the first
   time a derivation emits it. *)
let intern t e =
  let k = key_of e in
  match Hashtbl.find_opt t.ids k with
  | Some id -> id
  | None ->
    let id =
      match t.free with
      | id :: rest ->
        t.free <- rest;
        let s = t.slots.(id) in
        s.ev <- e;
        s.sup <- S0;
        s.mp_epoch <- -1;
        id
      | [] ->
        let s =
          {
            ev = e;
            sup = S0;
            emitted = -1;
            recorded = -1;
            mp_epoch = -1;
            mp_b = 0;
            mp_d = 0;
            mp_r = 0;
            mp_s = 0;
          }
        in
        let id = t.hw in
        if id = Array.length t.slots then begin
          let a = Array.make (max 1024 (2 * id)) s in
          Array.blit t.slots 0 a 0 id;
          t.slots <- a
        end;
        t.slots.(id) <- s;
        t.hw <- id + 1;
        id
    in
    Hashtbl.add t.ids k id;
    id

(* A drained id leaves the key table, so the table holds exactly the
   live events. *)
let release t id =
  Hashtbl.remove t.ids (key_of t.slots.(id).ev);
  t.free <- id :: t.free

(* --- canonical positions --- *)

let rank_of t bid dk =
  if dk = -1 then 0
  else
    match Hashtbl.find_opt t.ranks.(bid) dk with
    | Some r -> r
    | None -> max_int

let ranks_changed t = t.epoch <- t.epoch + 1

(* (b, r, q) strictly before the slot's cached position *)
let before b r q s =
  b < s.mp_b || (b = s.mp_b && (r < s.mp_r || (r = s.mp_r && q < s.mp_s)))

let set_min s b d r q =
  s.mp_b <- b;
  s.mp_d <- d;
  s.mp_r <- r;
  s.mp_s <- q

(* Make the slot's cached minimum position current; an unsupported
   event sits at (max_int, 0, 0). *)
let minpos t s =
  if s.mp_epoch <> t.epoch then begin
    set_min s max_int 0 0 0;
    (match s.sup with
     | S0 -> ()
     | S1 (b, d, q) -> set_min s b d (rank_of t b d) q
     | SM h ->
       Hashtbl.iter
         (fun (b, d) q ->
           let r = rank_of t b d in
           if before b r q s then set_min s b d r q)
         h);
    s.mp_epoch <- t.epoch
  end

(* --- support --- *)

(* Add supporter (bid, dk) at sequence [q]; [r] is the driver's rank. *)
let sup_add t s bid dk r q =
  (match s.sup with
   | S0 -> s.sup <- S1 (bid, dk, q)
   | S1 (b, d, q0) ->
     if b = bid && d = dk then begin
       if q < q0 then s.sup <- S1 (b, d, q)
     end
     else begin
       let h = Hashtbl.create 4 in
       Hashtbl.replace h (b, d) q0;
       Hashtbl.replace h (bid, dk) q;
       s.sup <- SM h
     end
   | SM h -> (
     match Hashtbl.find_opt h (bid, dk) with
     | Some q0 when q0 <= q -> ()
     | _ -> Hashtbl.replace h (bid, dk) q));
  if s.mp_epoch = t.epoch && before bid r q s then set_min s bid dk r q

(* Drop supporter (bid, dk); true when that drained the support (an
   [SM] table is never empty, so emptying it drains). *)
let sup_retract s bid dk =
  if s.mp_b = bid && s.mp_d = dk then s.mp_epoch <- -1;
  let drained =
    match s.sup with
    | S0 -> false
    | S1 (b, d, _) -> b = bid && d = dk
    | SM h ->
      Hashtbl.remove h (bid, dk);
      Hashtbl.length h = 0
  in
  if drained then s.sup <- S0;
  drained

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
  let push e =
    let id = intern t e in
    let s = t.slots.(id) in
    if s.emitted <> t.serial then begin
      s.emitted <- t.serial;
      t.cur <- id :: t.cur
    end
  in
  {
    Eval.em_apply = apply;
    em_node = (fun o -> push (E_node o));
    em_edge =
      (fun s l tg ->
        (* implicit endpoint existence rides the edge event, so data
           nodes pulled into the site graph are support-counted too *)
        push (E_node s);
        (match tg with Graph.N o -> push (E_node o) | Graph.V _ -> ());
        push (E_edge (s, l, tg)));
    em_coll = (fun c o -> push (E_coll (c, o)));
  }

let sink t ~apply =
  { Eval.out = Eval.Live t.sg; scope = t.scope; emit = Some (emitter t ~apply) }

(* Evaluate one block over per-driver input rows and construct, in
   cold block-major order: all of this block's rows (drivers in extent
   order) construct before any nested block runs — the exact cold
   mutation order, since a cold block's relation is driver-major (its
   opening scan enumerates the extent in order). *)
let rec blockmajor t ~apply bs (per_driver : (int * Eval.env list) list) =
  let bld = Eval.builder (sink t ~apply) bs.bs_cons in
  let step =
    Exec.stepper t.data t.options.Eval.registry ~bound:!(bs.bs_bound)
      bs.bs_steps
  in
  let per_rows =
    List.map
      (fun (dk, envs) ->
        let rows = step envs in
        t.ctr.c_rows <- t.ctr.c_rows + List.length rows;
        (dk, rows))
      per_driver
  in
  List.iter
    (fun (dk, rows) ->
      t.serial <- t.serial + 1;
      t.cur <- [];
      List.iter (Eval.row bld) rows;
      Eval.flush bld;
      t.pending <- (bs.bs_id, dk, t.cur) :: t.pending)
    per_rows;
  List.iter (fun nb -> blockmajor t ~apply nb per_rows) bs.bs_nested

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
  let rank_of i = Hashtbl.find_opt ts.ts_ranks (Oid.id arr.(i)) in
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
        Hashtbl.replace ts.ts_ranks (Oid.id arr.(k)) !last
      done;
      i := !j
  done

let renumber_ranks ts extent =
  Hashtbl.reset ts.ts_ranks;
  List.iteri
    (fun i o -> Hashtbl.replace ts.ts_ranks (Oid.id o) ((i + 1) * rank_gap))
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
                ts_ranks = Hashtbl.create 64;
              })
            q.Ast.blocks
        in
        { qs_query = q; qs_tops })
      queries
  in
  let ranks = Array.make !next_id (Hashtbl.create 0) in
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
    derivs = Hashtbl.create 4096;
    ids = Hashtbl.create 8192;
    slots = [||];
    hw = 0;
    free = [];
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
        c_fallback_replays = 0;
        c_full_rederives = 0;
      };
    cur = [];
    pending = [];
  }

(* Commit the pending derivations, in derivation order: store their id
   arrays and add support.  [announce] sees ids whose support went
   0 -> 1. *)
let commit t ~announce =
  List.iter
    (fun (bid, dk, rev_ids) ->
      let ids = Array.of_list (List.rev rev_ids) in
      if Array.length ids = 0 then Hashtbl.remove t.derivs (bid, dk)
      else Hashtbl.replace t.derivs (bid, dk) ids;
      t.ctr.c_events_added <- t.ctr.c_events_added + Array.length ids;
      let r = rank_of t bid dk in
      Array.iteri
        (fun q id ->
          let s = t.slots.(id) in
          (match s.sup with S0 -> announce id | S1 _ | SM _ -> ());
          sup_add t s bid dk r q)
        ids)
    (List.rev t.pending);
  t.pending <- []

(* Retract the derivations of (block list x driver): drop support; ids
   whose support drains to zero are pushed onto [drained]. *)
let retract t ~drained bs_ids dk =
  List.iter
    (fun bid ->
      match Hashtbl.find_opt t.derivs (bid, dk) with
      | None -> ()
      | Some ids ->
        Hashtbl.remove t.derivs (bid, dk);
        t.ctr.c_events_removed <- t.ctr.c_events_removed + Array.length ids;
        Array.iter
          (fun id ->
            if sup_retract t.slots.(id) bid dk then drained := id :: !drained)
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
    (Hashtbl.fold
       (fun (bid, dk) _ acc ->
         if dk <> -1 && List.mem bid bs_ids then dk :: acc else acc)
       t.derivs [])

(** Cold-prime the engine: plan, classify, and construct the site graph
    with a cold build's exact mutation sequence, recording every
    construction event.  The result is byte-identical to {!Exec.run} of
    the same queries over the same data graph. *)
let prime t =
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
             let per_driver =
               List.map
                 (fun d ->
                   ( Oid.id d,
                     [
                       Eval.Env.add v
                         (Eval.B_target (Graph.N d))
                         Eval.Env.empty;
                     ] ))
                 extent
             in
             t.ctr.c_drivers <- t.ctr.c_drivers + List.length extent;
             blockmajor t ~apply:true ts.ts_bs per_driver
           | Plan.D_static | Plan.D_fallback _ ->
             blockmajor t ~apply:true ts.ts_bs [ (-1, [ Eval.Env.empty ]) ]);
          commit t ~announce:ignore)
        qs.qs_tops)
    t.queries;
  t.ctr.c_events_live <- Hashtbl.length t.ids

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
  let note_ev e =
    match e with
    | E_node o -> noted := Oid.Set.add o !noted
    | E_edge (s, _, _) ->
      touched_srcs := Oid.Set.add s !touched_srcs;
      noted := Oid.Set.add s !noted
    | E_coll (c, o) ->
      touched_colls := SS.add c !touched_colls;
      noted := Oid.Set.add o !noted
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
    let s = t.slots.(id) in
    match s.ev with
    | E_node _ -> ()
    | E_edge _ | E_coll _ ->
      if s.recorded <> cycle then begin
        s.recorded <- cycle;
        minpos t s;
        prepos := (s, s.mp_b, s.mp_r, s.mp_s) :: !prepos
      end
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
            match Hashtbl.find_opt t.derivs (bid, dk) with
            | None -> ()
            | Some evs -> Array.iter f evs)
          ids
      in
      (* full replays note the buckets of a driver's OLD events
         unconditionally (whole-block rank renumbering can reorder
         survivors); the incremental path records positions instead
         and lets the post-commit diff decide *)
      let note_old_and_retract dk =
        old_evs_iter (fun id -> note_ev t.slots.(id).ev) dk;
        retract t ~drained ids dk
      in
      let replay_whole () =
        List.iter note_old_and_retract (-1 :: drivers_of_derivs t ids);
        blockmajor t ~apply:false bs [ (-1, [ Eval.Env.empty ]) ]
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
                    if Hashtbl.mem ts.ts_ranks dk
                       || Hashtbl.mem t.derivs (bs.bs_id, dk)
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
                if c = coll then Hashtbl.remove ts.ts_ranks (Oid.id o))
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
              | Some d when Hashtbl.mem ts.ts_ranks dk ->
                t.ctr.c_drivers <- t.ctr.c_drivers + 1;
                Some
                  ( dk,
                    [
                      Eval.Env.add v
                        (Eval.B_target (Graph.N d))
                        Eval.Env.empty;
                    ] )
              | _ -> None (* removed driver: retraction only *))
            affected_dks
        in
        (* derive in extent (rank) order, matching cold row order *)
        let per_driver =
          List.sort
            (fun (a, _) (b, _) ->
              compare
                (Hashtbl.find_opt ts.ts_ranks a)
                (Hashtbl.find_opt ts.ts_ranks b))
            per_driver
        in
        if per_driver <> [] then blockmajor t ~apply:false bs per_driver)
    tops;
  (* buffered events record their pre-commit position: genuinely new
     events (and events whose support was just drained) read max_int,
     so the diff below notes them; re-derivations at an unchanged
     position cancel out *)
  List.iter (fun (_, _, ids) -> List.iter record_prepos ids) t.pending;
  commit t ~announce:(fun id ->
      announced := id :: !announced;
      match t.slots.(id).ev with
      | E_node _ as e -> note_ev e
      | E_edge _ | E_coll _ -> ());
  (* position diff: note exactly the events whose canonical position
     moved or whose existence flipped *)
  List.iter
    (fun (s, b, r, q) ->
      minpos t s;
      if s.mp_b <> b || s.mp_r <> r || s.mp_s <> q then note_ev s.ev)
    !prepos;
  (* net removals: drained and not re-supported *)
  let net_removed =
    List.filter
      (fun id -> match t.slots.(id).sup with S0 -> true | S1 _ | SM _ -> false)
      !drained
  in
  List.iter (fun id -> note_ev t.slots.(id).ev) net_removed;
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
           match t.slots.(id).ev with
           | E_node o -> not (Graph.mem_node t.sg o)
           | E_edge _ | E_coll _ -> false)
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
      let e = t.slots.(id).ev in
      release t id;
      match e with
      | E_coll (c, o) -> Graph.remove_from_collection t.sg c o
      | E_edge (src, l, tg) ->
        edge_moved l tg;
        Graph.remove_edge t.sg src l tg
      | E_node o ->
        structural := true;
        removed_nodes := o :: !removed_nodes)
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
      match t.slots.(id).ev with
      | E_node o -> Graph.add_node t.sg o
      | E_edge (s, l, tg) ->
        if not (Graph.has_edge t.sg s l tg) then edge_moved l tg;
        Graph.add_edge t.sg s l tg
      | E_coll (c, o) -> Graph.add_to_collection t.sg c o)
    !announced;
  (* canonical re-sort of every touched bucket and collection, each
     element decorated once with its event's minimum position *)
  let sort_by_minpos key items =
    List.map
      (fun x ->
        match Hashtbl.find_opt t.ids (key x) with
        | Some id ->
          let s = t.slots.(id) in
          minpos t s;
          ((s.mp_b, s.mp_r, s.mp_s), x)
        | None -> ((max_int, 0, 0), x))
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
            (fun (l, tg) -> K_edge (Oid.id src, l, Graph.tkey tg))
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
      let sorted = sort_by_minpos (fun o -> K_coll (c, Oid.id o)) cur in
      if sorted <> cur then Graph.set_collection t.sg c sorted)
    !touched_colls;
  t.ctr.c_events_live <- Hashtbl.length t.ids;
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
    "cycles=%d drivers=%d rows=%d events +%d/-%d live=%d fallback-replays=%d \
     full-rederives=%d"
    c.c_cycles c.c_drivers c.c_rows c.c_events_added c.c_events_removed
    c.c_events_live c.c_fallback_replays c.c_full_rederives
