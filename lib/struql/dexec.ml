(** Differential (semi-naive) evaluation of StruQL site queries.

    The streaming evaluator ({!Exec}) recomputes a site graph from
    scratch; this engine {e maintains} one under a {!Sgraph.Delta}.
    The observation it rests on: the binding relation of a
    delta-evaluable block ({!Plan.delta_class}) is partitioned by its
    {e driver} — the member of the driving collection its opening scan
    binds — and every later plan step only reads forward from
    driver-derived objects, so one driver's partition is a function of
    the driver's forward neighbourhood.  A data delta therefore only
    moves the partitions of drivers that can reach a touched object,
    and those are found by the backward closure
    {!Sgraph.Delta.closure} — walked over the incoming-edge index,
    which on a frozen graph the CSR kernel's reverse-adjacency lane
    feeds.

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

    Blocks that cannot delta-evaluate — aggregates, negation,
    active-domain enumerators, opaque externs, constant-anchored data
    reads, cross products — are replayed in full each cycle (as one ⊥
    driver), with the reason recorded.  Every derivation, primed, per
    driver or replayed, steps rows through {!Exec}'s operators
    ({!Exec.stepper}), so the maintained graph and a cold {!Exec.run}
    share one evaluator.  The {!Exec.delta_enabled} kill switch turns
    every cycle into a full re-derivation through the same machinery. *)

open Sgraph

(* --- construction events and their identity keys --- *)

type ev =
  | E_node of Oid.t
  | E_edge of Oid.t * string * Graph.target
  | E_coll of string * Oid.t

let tgt_key = function
  | Graph.N o -> "n" ^ string_of_int (Oid.id o)
  | Graph.V v -> "v" ^ Value.to_string v

let ev_key = function
  | E_node o -> "N|" ^ string_of_int (Oid.id o)
  | E_edge (s, l, t) ->
    "E|" ^ string_of_int (Oid.id s) ^ "|" ^ l ^ "|" ^ tgt_key t
  | E_coll (c, o) -> "C|" ^ c ^ "|" ^ string_of_int (Oid.id o)

(* --- block-tree state --- *)

type bstate = {
  bs_id : int;  (* global preorder id — the major canonical-order key *)
  bs_top : int;  (* id of the top-level ancestor *)
  bs_path : string;  (* "q2.1.3" display path *)
  bs_block : Ast.block;
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
  mutable c_fallback_replays : int;  (** ⊥-driver full block replays *)
  mutable c_full_rederives : int;  (** whole-block re-derivations *)
}

(* Support of an event key: which (block, driver) derivations emit it,
   at what minimum sequence number (driver key -1 = ⊥).  Retraction
   always removes a (block, driver)'s events wholesale, so per-pair
   multiplicity is irrelevant and only the pair's minimum sequence —
   its canonical position — is kept.  Single support is by far the
   common case and gets an immediate representation; keys emitted by
   many drivers (shared endpoints like a site's root node) are promoted
   to a table so per-driver retraction is O(1), not O(supporters). *)
type sups =
  | S0
  | S1 of int * int * int  (* block id, driver key, min seq *)
  | SM of (int * int, int) Hashtbl.t  (* (block, driver) -> min seq *)

type supp = { mutable sup : sups }

let sup_is_empty s =
  match s.sup with S0 -> true | S1 _ -> false | SM h -> Hashtbl.length h = 0

let sup_add s bid dk seq =
  match s.sup with
  | S0 -> s.sup <- S1 (bid, dk, seq)
  | S1 (b, d, s0) ->
    if b = bid && d = dk then begin
      if seq < s0 then s.sup <- S1 (b, d, seq)
    end
    else begin
      let h = Hashtbl.create 4 in
      Hashtbl.replace h (b, d) s0;
      Hashtbl.replace h (bid, dk) seq;
      s.sup <- SM h
    end
  | SM h -> (
    match Hashtbl.find_opt h (bid, dk) with
    | Some s0 when s0 <= seq -> ()
    | _ -> Hashtbl.replace h (bid, dk) seq)

let sup_retract s bid dk =
  match s.sup with
  | S0 -> ()
  | S1 (b, d, _) -> if b = bid && d = dk then s.sup <- S0
  | SM h -> Hashtbl.remove h (bid, dk)

type t = {
  options : Eval.options;
  queries : qstate list;
  blocks : (int, bstate) Hashtbl.t;  (* every block by preorder id *)
  tops : (int, tstate) Hashtbl.t;  (* top block id -> its state *)
  sg : Graph.t;  (* the maintained site graph *)
  scope : Skolem.t;
  mutable data : Graph.t;
  events : (int * int, ev array) Hashtbl.t;
  (* (block id, driver key) -> its recorded events, derivation order *)
  support : (string, ev * supp) Hashtbl.t;
  ctr : counters;
  (* recording buffers of the pass in flight *)
  mutable cur_buf : ev list ref;
  bufs : (int * int, ev list ref) Hashtbl.t;
}

let counters t = t.ctr
let site_graph t = t.sg
let scope t = t.scope
let data_graph t = t.data
let site_queries t = List.map (fun qs -> qs.qs_query) t.queries

let class_string = function
  | Plan.D_static -> "static"
  | Plan.D_driven (c, v) -> Printf.sprintf "driven by %s(%s)" c v
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

let buf_for t key =
  match Hashtbl.find_opt t.bufs key with
  | Some r -> r
  | None ->
    let r = ref [] in
    Hashtbl.add t.bufs key r;
    r

let emitter t ~apply =
  let push e = t.cur_buf := e :: !(t.cur_buf) in
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
  { Eval.out = t.sg; scope = t.scope; emit = Some (emitter t ~apply) }

(* Evaluate one block over per-driver input rows and construct, in
   cold block-major order: all of this block's rows (drivers in extent
   order) construct before any nested block runs — the exact cold
   mutation order, since a cold block's relation is driver-major (its
   opening scan enumerates the extent in order). *)
let rec blockmajor t ~apply bs (per_driver : (int * Eval.env list) list) =
  let snk = sink t ~apply in
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
      t.cur_buf <- buf_for t (bs.bs_id, dk);
      let groups = Eval.new_groups () in
      List.iter (fun env -> Eval.construct_row snk groups bs.bs_block env) rows;
      Eval.construct_flush snk groups)
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

(* canonical position of a supporter: (block preorder, driver rank,
   sequence within the driver's derivation) *)
let pos_of t (bid, dk, seq) =
  let rank =
    if dk = -1 then 0
    else
      let bs = Hashtbl.find t.blocks bid in
      let ts = Hashtbl.find t.tops bs.bs_top in
      match Hashtbl.find_opt ts.ts_ranks dk with
      | Some r -> r
      | None -> max_int
  in
  (bid, rank, seq)

(* minimum canonical position over an event key's supporters — the
   event's sort position in its bucket or collection *)
let minpos t k =
  match Hashtbl.find_opt t.support k with
  | None -> (max_int, 0, 0)
  | Some (_, s) -> (
    match s.sup with
    | S0 -> (max_int, 0, 0)
    | S1 (b, d, sq) -> pos_of t (b, d, sq)
    | SM h ->
      Hashtbl.fold
        (fun (b, d) sq acc ->
          let p = pos_of t (b, d, sq) in
          if p < acc then p else acc)
        h (max_int, 0, 0))

(* --- engine construction --- *)

let create ?(options = Eval.default_options) ~queries data =
  if options.Eval.validate then List.iter Check.validate_exn queries;
  let blocks = Hashtbl.create 32 in
  let tops = Hashtbl.create 8 in
  let next_id = ref 0 in
  let rec mk top path (b : Ast.block) =
    let id = !next_id in
    incr next_id;
    let top = match top with Some i -> i | None -> id in
    {
      bs_id = id;
      bs_top = top;
      bs_path = path;
      bs_block = b;
      bs_bound = ref [];
      bs_steps = [];
      bs_fp = "";
      bs_nested =
        List.mapi
          (fun i nb -> mk (Some top) (path ^ "." ^ string_of_int (i + 1)) nb)
          b.Ast.nested;
    }
  in
  let queries =
    List.mapi
      (fun qi q ->
        let qs_tops =
          List.mapi
            (fun bi b ->
              let bs = mk None (Printf.sprintf "q%d.%d" (qi + 1) (bi + 1)) b in
              let rec reg bs =
                Hashtbl.replace blocks bs.bs_id bs;
                List.iter reg bs.bs_nested
              in
              reg bs;
              let ts =
                {
                  ts_bs = bs;
                  ts_class = Plan.D_static;
                  ts_ranks = Hashtbl.create 64;
                }
              in
              Hashtbl.replace tops bs.bs_id ts;
              ts)
            q.Ast.blocks
        in
        { qs_query = q; qs_tops })
      queries
  in
  {
    options;
    queries;
    blocks;
    tops;
    sg = Graph.create ~name:"site" ();
    scope = Skolem.create ();
    data;
    events = Hashtbl.create 4096;
    support = Hashtbl.create 8192;
    ctr =
      {
        c_cycles = 0;
        c_drivers = 0;
        c_rows = 0;
        c_events_added = 0;
        c_events_removed = 0;
        c_fallback_replays = 0;
        c_full_rederives = 0;
      };
    cur_buf = ref [];
    bufs = Hashtbl.create 64;
  }

(* Commit the recorded buffers: store event arrays and add support.
   [announce] sees events whose support went 0 -> 1. *)
let commit_bufs t ~announce =
  Hashtbl.iter
    (fun (bid, dk) buf ->
      let evs = Array.of_list (List.rev !buf) in
      if Array.length evs = 0 then Hashtbl.remove t.events (bid, dk)
      else Hashtbl.replace t.events (bid, dk) evs;
      Array.iteri
        (fun seq e ->
          let k = ev_key e in
          t.ctr.c_events_added <- t.ctr.c_events_added + 1;
          match Hashtbl.find_opt t.support k with
          | Some (_, s) ->
            if sup_is_empty s then announce e;
            sup_add s bid dk seq
          | None ->
            announce e;
            Hashtbl.replace t.support k (e, { sup = S1 (bid, dk, seq) }))
        evs)
    t.bufs;
  Hashtbl.reset t.bufs

(* Retract the events of (block list x driver): drop support; keys
   whose support drains to zero are collected into [drained]. *)
let retract t ~drained bs_ids dk =
  List.iter
    (fun bid ->
      match Hashtbl.find_opt t.events (bid, dk) with
      | None -> ()
      | Some evs ->
        Hashtbl.remove t.events (bid, dk);
        Array.iter
          (fun e ->
            let k = ev_key e in
            t.ctr.c_events_removed <- t.ctr.c_events_removed + 1;
            match Hashtbl.find_opt t.support k with
            | None -> ()
            | Some (_, s) ->
              sup_retract s bid dk;
              if sup_is_empty s then Hashtbl.replace drained k e)
          evs)
    bs_ids

let subtree_ids bs =
  let rec go acc bs = List.fold_left go (bs.bs_id :: acc) bs.bs_nested in
  List.rev (go [] bs)

let drivers_of_events t bs_ids =
  List.sort_uniq compare
    (Hashtbl.fold
       (fun (bid, dk) _ acc ->
         if dk <> -1 && List.mem bid bs_ids then dk :: acc else acc)
       t.events [])

(** Cold-prime the engine: plan, classify, and construct the site graph
    with a cold build's exact mutation sequence, recording every
    construction event.  The result is byte-identical to {!Exec.run} of
    the same queries over the same data graph. *)
let prime t =
  ignore (Graph.freeze t.data);
  List.iter
    (fun qs ->
      List.iter
        (fun ts ->
          ignore (replan t ts.ts_bs);
          ts.ts_class <- classify ts;
          (match ts.ts_class with
           | Plan.D_driven (coll, v) ->
             let extent = Graph.collection t.data coll in
             renumber_ranks ts extent;
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
          commit_bufs t ~announce:(fun _ -> ()))
        qs.qs_tops)
    t.queries

(* --- the delta cycle --- *)

type site_change = {
  sc_touched : string list;
      (** site-node names whose rendered bytes may have changed *)
  sc_removed : string list;  (** site nodes that no longer exist *)
  sc_drivers : int;  (** drivers re-derived this cycle *)
  sc_rows : int;  (** binding rows re-derived this cycle *)
  sc_fallbacks : (string * string) list;
      (** (block path, reason) of full block replays this cycle *)
}

module SS = Set.Make (String)

let apply ?data t (delta : Delta.t) : site_change =
  (match data with Some g -> t.data <- g | None -> ());
  let g = t.data in
  (* no whole-graph refreeze here: a small delta re-derives a handful
     of drivers, whose reads run fine against the live graph.  Full
     replays freeze on their own (below) before scanning the extent. *)
  t.ctr.c_cycles <- t.ctr.c_cycles + 1;
  let c_drivers0 = t.ctr.c_drivers and c_rows0 = t.ctr.c_rows in
  let closure = lazy (Delta.closure g delta) in
  let drained : (string, ev) Hashtbl.t = Hashtbl.create 64 in
  let announced : (string, ev) Hashtbl.t = Hashtbl.create 64 in
  let touched_srcs = ref Oid.Set.empty in
  let touched_colls = ref SS.empty in
  let touched_names = ref SS.empty in
  let fallbacks_run = ref [] in
  let note_ev e =
    match e with
    | E_node o -> touched_names := SS.add (Oid.name o) !touched_names
    | E_edge (s, _, _) -> touched_srcs := Oid.Set.add s !touched_srcs
    | E_coll (c, o) ->
      touched_colls := SS.add c !touched_colls;
      touched_names := SS.add (Oid.name o) !touched_names
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
     removal loop.  Recording happens before the recorder's own
     retraction, so a shared key's first recording always captures its
     true pre-cycle position. *)
  let prepos : (string, ev * (int * int * int)) Hashtbl.t =
    Hashtbl.create 256
  in
  let record_prepos e =
    match e with
    | E_node _ -> ()
    | E_edge _ | E_coll _ ->
      let k = ev_key e in
      if not (Hashtbl.mem prepos k) then Hashtbl.add prepos k (e, minpos t k)
  in
  let disabled = not !Exec.delta_enabled in
  List.iter
    (fun qs ->
      List.iter
        (fun ts ->
          let bs = ts.ts_bs in
          let ids = subtree_ids bs in
          let plan_changed = replan t bs in
          let cls = classify ts in
          let class_changed = cls <> ts.ts_class in
          ts.ts_class <- cls;
          let old_evs_iter f dk =
            List.iter
              (fun bid ->
                match Hashtbl.find_opt t.events (bid, dk) with
                | None -> ()
                | Some evs -> Array.iter f evs)
              ids
          in
          (* full replays note the buckets of a driver's OLD events
             unconditionally (whole-block rank renumbering can reorder
             survivors); the incremental path records positions instead
             and lets the post-commit diff decide *)
          let note_old_and_retract dk =
            old_evs_iter note_ev dk;
            retract t ~drained ids dk
          in
          let prepos_and_retract dk =
            old_evs_iter record_prepos dk;
            retract t ~drained ids dk
          in
          let replay_whole () =
            ignore (Graph.freeze g);
            List.iter note_old_and_retract (-1 :: drivers_of_events t ids);
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
            t.ctr.c_fallback_replays <- t.ctr.c_fallback_replays + 1;
            fallbacks_run := (bs.bs_path, why) :: !fallbacks_run;
            replay_whole ()
          | Plan.D_driven (coll, v) ->
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
                ignore (Graph.freeze g);
                let extent = Graph.collection g coll in
                renumber_ranks ts extent;
                let old = drivers_of_events t ids in
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
                List.iter
                  (fun (c, o) ->
                    if c = coll then Hashtbl.remove ts.ts_ranks (Oid.id o))
                  delta.Delta.coll_removed;
                (if List.exists (fun (c, _) -> c = coll) delta.Delta.coll_added
                 then
                   let extent = Graph.collection g coll in
                   try assign_ranks ts extent
                   with Rank_overflow -> renumber_ranks ts extent);
                let h = Hashtbl.create 64 in
                List.iter
                  (fun (_, o) -> Hashtbl.replace h (Oid.id o) o)
                  member_pairs;
                (* drivers whose forward neighbourhood the delta touches *)
                let reach =
                  Oid.Set.fold
                    (fun o acc ->
                      let dk = Oid.id o in
                      Hashtbl.replace h dk o;
                      if Hashtbl.mem ts.ts_ranks dk
                         || Hashtbl.mem t.events (bs.bs_id, dk)
                      then dk :: acc
                      else acc)
                    (Lazy.force closure) []
                in
                (List.sort_uniq compare (member_dks @ reach), h)
              end
            in
            (* also retract any stale ⊥ events from an earlier
               classification of this block *)
            if full then note_old_and_retract (-1);
            let per_driver =
              List.filter_map
                (fun dk ->
                  (if full then note_old_and_retract else prepos_and_retract)
                    dk;
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
        qs.qs_tops)
    t.queries;
  (* buffered events record their pre-commit position: genuinely new
     keys (and keys whose support was just drained) read max_int, so
     the diff below notes them; re-derivations at an unchanged position
     cancel out *)
  Hashtbl.iter (fun _ buf -> List.iter record_prepos !buf) t.bufs;
  commit_bufs t ~announce:(fun e ->
      Hashtbl.replace announced (ev_key e) e;
      match e with E_node _ -> note_ev e | E_edge _ | E_coll _ -> ());
  (* position diff: note exactly the events whose canonical position
     moved or whose existence flipped *)
  Hashtbl.iter
    (fun k (e, oldpos) -> if minpos t k <> oldpos then note_ev e)
    prepos;
  (* net removals: drained and not re-supported *)
  let removed_nodes = ref [] in
  Hashtbl.iter
    (fun k e ->
      match Hashtbl.find_opt t.support k with
      | Some (_, s) when not (sup_is_empty s) -> ()
      | _ ->
        Hashtbl.remove t.support k;
        note_ev e;
        (match e with
         | E_coll (c, o) -> Graph.remove_from_collection t.sg c o
         | E_edge (s, l, tg) -> Graph.remove_edge t.sg s l tg
         | E_node _ -> removed_nodes := e :: !removed_nodes))
    drained;
  (* nodes go last: their dangling edges and memberships are gone
     (construction emits a node event for every endpoint it mentions,
     so node support always outlives edge support) *)
  let removed_names =
    List.filter_map
      (function
        | E_node o ->
          Graph.remove_node t.sg o;
          Some (Oid.name o)
        | E_edge _ | E_coll _ -> None)
      !removed_nodes
  in
  (* net additions (add_edge recreates endpoints as needed); bucket and
     extent order is canonicalized below, so application order is free *)
  Hashtbl.iter
    (fun _ e ->
      match Hashtbl.find_opt t.support (ev_key e) with
      | Some (_, s) when not (sup_is_empty s) -> (
          match e with
          | E_node o -> Graph.add_node t.sg o
          | E_edge (s', l, tg) -> Graph.add_edge t.sg s' l tg
          | E_coll (c, o) -> Graph.add_to_collection t.sg c o)
      | _ -> ())
    announced;
  (* canonical re-sort of every touched bucket and collection;
     decorate–sort–undecorate: [minpos] walks the support table, so
     compute it once per element, not once per comparison *)
  let sort_by_minpos key items =
    List.map (fun x -> (minpos t (key x), x)) items
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  Oid.Set.iter
    (fun src ->
      if Graph.mem_node t.sg src then begin
        let cur = Graph.out_edges t.sg src in
        let sorted =
          sort_by_minpos (fun (l, tg) -> ev_key (E_edge (src, l, tg))) cur
        in
        if sorted <> cur then Graph.set_out_edges t.sg src sorted;
        touched_names := SS.add (Oid.name src) !touched_names
      end)
    !touched_srcs;
  SS.iter
    (fun c ->
      let cur = Graph.collection t.sg c in
      let sorted = sort_by_minpos (fun o -> ev_key (E_coll (c, o))) cur in
      if sorted <> cur then Graph.set_collection t.sg c sorted)
    !touched_colls;
  {
    sc_touched = SS.elements !touched_names;
    sc_removed = List.sort_uniq String.compare removed_names;
    sc_drivers = t.ctr.c_drivers - c_drivers0;
    sc_rows = t.ctr.c_rows - c_rows0;
    sc_fallbacks = List.rev !fallbacks_run;
  }

let pp_counters ppf c =
  Fmt.pf ppf
    "cycles=%d drivers=%d rows=%d events +%d/-%d fallback-replays=%d \
     full-rederives=%d"
    c.c_cycles c.c_drivers c.c_rows c.c_events_added c.c_events_removed
    c.c_fallback_replays c.c_full_rederives
