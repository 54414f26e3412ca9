(** Data-graph deltas — the change currency of differential site
    maintenance.

    A delta is a set of node / edge / collection additions and
    removals between two states of a graph, together with three order
    signals the byte-identity contract needs: nodes whose out-edge
    bucket kept its edge set but changed order ([resequenced]),
    collections whose surviving members changed relative order
    ([reordered]), and labels whose surviving edges changed relative
    order in the label's extent ([label_reordered]) — the order a scan
    of the label delivers its rows in.  Deltas come from two producers:

    - {!Rec}, a recorder wrapped around a live graph: mutations are
      applied and logged, so the delta is exact and O(change) — the
      path [strudel watch] uses for direct (un-mediated) data.  A live
      graph appends what it gains, so its surviving edges and members
      never change relative order: [Rec] reports no [reordered] or
      [label_reordered] signal.
    - {!diff}, an oid-keyed structural diff of two graphs that share
      oids — the path {!Mediator.Warehouse} uses between two
      integrations, whose oids already agree: each source reload is
      {!rebase}d onto the source's previous graph (nodes matched by
      name), and the integration reuses the previous Skolem scope's
      oids. *)

type edge = Oid.t * string * Graph.target

type t = {
  nodes_added : Oid.t list;
  nodes_removed : Oid.t list;
  edges_added : edge list;
  edges_removed : edge list;
  coll_added : (string * Oid.t) list;
  coll_removed : (string * Oid.t) list;
  resequenced : Oid.t list;
      (** out-bucket kept its edge set but changed order *)
  reordered : string list;
      (** collections whose surviving members changed relative order *)
  label_reordered : string list;
      (** labels whose surviving edges changed relative order in the
          label's extent *)
}

let empty =
  {
    nodes_added = [];
    nodes_removed = [];
    edges_added = [];
    edges_removed = [];
    coll_added = [];
    coll_removed = [];
    resequenced = [];
    reordered = [];
    label_reordered = [];
  }

let is_empty d =
  d.nodes_added = [] && d.nodes_removed = [] && d.edges_added = []
  && d.edges_removed = [] && d.coll_added = [] && d.coll_removed = []
  && d.resequenced = [] && d.reordered = [] && d.label_reordered = []

let card d =
  List.length d.nodes_added + List.length d.nodes_removed
  + List.length d.edges_added + List.length d.edges_removed
  + List.length d.coll_added + List.length d.coll_removed
  + List.length d.resequenced + List.length d.reordered
  + List.length d.label_reordered

let union a b =
  {
    nodes_added = a.nodes_added @ b.nodes_added;
    nodes_removed = a.nodes_removed @ b.nodes_removed;
    edges_added = a.edges_added @ b.edges_added;
    edges_removed = a.edges_removed @ b.edges_removed;
    coll_added = a.coll_added @ b.coll_added;
    coll_removed = a.coll_removed @ b.coll_removed;
    resequenced = a.resequenced @ b.resequenced;
    reordered = a.reordered @ b.reordered;
    label_reordered = a.label_reordered @ b.label_reordered;
  }

(* Seeds of dependency propagation: every oid whose local
   neighbourhood (out-bucket, existence, or collection membership) the
   delta touches.  Value-edge changes seed their source node; a
   membership change seeds the member. *)
let touched d =
  let add s o = Oid.Set.add o s in
  let s = Oid.Set.empty in
  let s = List.fold_left add s d.nodes_added in
  let s = List.fold_left add s d.nodes_removed in
  let s = List.fold_left add s d.resequenced in
  let s =
    List.fold_left
      (fun s (src, _, tgt) ->
        let s = add s src in
        match tgt with Graph.N o -> add s o | Graph.V _ -> s)
      s
      (d.edges_added @ d.edges_removed)
  in
  List.fold_left (fun s (_, o) -> add s o) s (d.coll_added @ d.coll_removed)

(** Backward closure of the touched set, by hop distance: every node
    that can {e reach} a touched element along forward edges within
    [depth] hops ([max_int]: any number), mapped to its fewest hops — the
    candidate drivers of differential re-evaluation.  One breadth-first
    walk over the incoming-edge index (the one the path kernel's
    backward lane reads), plus the reverse of the {e removed} edges,
    which the post-mutation graph no longer holds. *)
let closure ~depth g d =
  let rm_in : (int, Oid.t list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (src, _, tgt) ->
      match tgt with
      | Graph.N o ->
        let id = Oid.id o in
        Hashtbl.replace rm_in id
          (src :: (try Hashtbl.find rm_in id with Not_found -> []))
      | Graph.V _ -> ())
    d.edges_removed;
  let seeds = touched d in
  let dist =
    ref (Oid.Set.fold (fun o m -> Oid.Map.add o 0 m) seeds Oid.Map.empty)
  in
  let frontier = ref (Oid.Set.elements seeds) in
  let hops = ref 0 in
  while !frontier <> [] && !hops < depth do
    incr hops;
    let next = ref [] in
    let push o =
      if not (Oid.Map.mem o !dist) then begin
        dist := Oid.Map.add o !hops !dist;
        next := o :: !next
      end
    in
    List.iter
      (fun o ->
        List.iter (fun (src, _) -> push src) (Graph.in_edges g (Graph.N o));
        match Hashtbl.find_opt rm_in (Oid.id o) with
        | Some srcs -> List.iter push srcs
        | None -> ())
      !frontier;
    frontier := !next
  done;
  !dist

(* --- the oid-keyed structural diff --- *)

(* Whether [kept] (the old sequence restricted to survivors) is in the
   same relative order as [now] restricted to the same elements. *)
let same_relative_order ~mem kept now =
  let now' = List.filter mem now in
  let rec eq a b =
    match a, b with
    | [], [] -> true
    | x :: a', y :: b' -> Oid.equal x y && eq a' b'
    | _ -> false
  in
  eq kept now'

(* The diff walks both graphs once without listing them: only a node
   one graph holds alone, an out-bucket, a collection or a label extent
   that differs between the two is listed, and only then are tables
   built.  Nodes are handled in id order. *)
let diff ~old g =
  let d = ref empty in
  let add f = d := f !d in
  let added = ref [] and moved = ref [] and removed = ref [] in
  Graph.iter_nodes
    (fun o ->
      if not (Graph.mem_node old o) then added := o :: !added
      else if not (Graph.same_out_edges old g o) then moved := o :: !moved)
    g;
  Graph.iter_nodes
    (fun o -> if not (Graph.mem_node g o) then removed := o :: !removed)
    old;
  let by_id l = List.sort Oid.compare l in
  List.iter
    (fun o -> add (fun d -> { d with nodes_added = o :: d.nodes_added }))
    (by_id !added);
  List.iter
    (fun o ->
      add (fun d -> { d with nodes_removed = o :: d.nodes_removed });
      List.iter
        (fun (l, tgt) ->
          add (fun d ->
              { d with edges_removed = (o, l, tgt) :: d.edges_removed }))
        (Graph.out_edges old o))
    (by_id !removed);
  (* a surviving node's out-bucket that moved, keyed as the graph keys
     edges *)
  let ekey (l, tgt) = (l, Graph.tkey tgt) in
  List.iter
    (fun o ->
      let oe = Graph.out_edges old o and ne = Graph.out_edges g o in
      let oset = Hashtbl.create 8 and nset = Hashtbl.create 8 in
      List.iter (fun e -> Hashtbl.replace oset (ekey e) ()) oe;
      List.iter (fun e -> Hashtbl.replace nset (ekey e) ()) ne;
      let changed = ref false in
      List.iter
        (fun (l, tgt) ->
          if not (Hashtbl.mem oset (ekey (l, tgt))) then begin
            changed := true;
            add (fun d -> { d with edges_added = (o, l, tgt) :: d.edges_added })
          end)
        ne;
      List.iter
        (fun (l, tgt) ->
          if not (Hashtbl.mem nset (ekey (l, tgt))) then begin
            changed := true;
            add (fun d ->
                { d with edges_removed = (o, l, tgt) :: d.edges_removed })
          end)
        oe;
      (* same edge set in another order: resequenced *)
      if not !changed then
        add (fun d -> { d with resequenced = o :: d.resequenced }))
    (by_id !moved);
  (* collections that differ: membership diff plus surviving-order check *)
  let colls =
    List.sort_uniq String.compare (Graph.collections old @ Graph.collections g)
  in
  List.iter
    (fun c ->
      if not (Graph.same_collection old g c) then begin
        let oc = Graph.collection old c and nc = Graph.collection g c in
        let oset =
          List.fold_left (fun s o -> Oid.Set.add o s) Oid.Set.empty oc
        in
        let nset =
          List.fold_left (fun s o -> Oid.Set.add o s) Oid.Set.empty nc
        in
        List.iter
          (fun o ->
            if not (Oid.Set.mem o oset) then
              add (fun d -> { d with coll_added = (c, o) :: d.coll_added }))
          nc;
        List.iter
          (fun o ->
            if not (Oid.Set.mem o nset) then
              add (fun d -> { d with coll_removed = (c, o) :: d.coll_removed }))
          oc;
        let kept = List.filter (fun o -> Oid.Set.mem o nset) oc in
        if not (same_relative_order ~mem:(fun o -> Oid.Set.mem o oset) kept nc)
        then add (fun d -> { d with reordered = c :: d.reordered })
      end)
    colls;
  (* label extents that differ: the surviving edges' relative order,
     which a fresh integration can change while every edge and bucket
     stays (rows inserted in another order) *)
  let same_entry (o, t) (o', t') = Oid.equal o o' && Graph.target_equal t t' in
  List.iter
    (fun l ->
      if not (Graph.same_label_extent old g l) then begin
        let kept_old =
          List.filter
            (fun (o, t) -> Graph.has_edge g o l t)
            (Graph.label_extent old l)
        and kept_new =
          List.filter
            (fun (o, t) -> Graph.has_edge old o l t)
            (Graph.label_extent g l)
        in
        if not (List.equal same_entry kept_old kept_new) then
          add (fun d -> { d with label_reordered = l :: d.label_reordered })
      end)
    (List.sort_uniq String.compare (Graph.labels old @ Graph.labels g));
  !d

(* --- rebase: re-key a fresh integration onto the previous one's oids --- *)

let dup_names g =
  let counts = Hashtbl.create 64 in
  List.iter
    (fun o ->
      let n = Oid.name o in
      Hashtbl.replace counts n (1 + try Hashtbl.find counts n with Not_found -> 0))
    (Graph.nodes g);
  counts

let rebase ~old g =
  let old_dups = dup_names old and new_dups = dup_names g in
  let unique tbl n = (try Hashtbl.find tbl n with Not_found -> 0) = 1 in
  let old_by_name = Hashtbl.create 64 in
  List.iter
    (fun o ->
      let n = Oid.name o in
      if unique old_dups n then Hashtbl.replace old_by_name n o)
    (Graph.nodes old);
  let stable o =
    let n = Oid.name o in
    if unique new_dups n then
      match Hashtbl.find_opt old_by_name n with Some oo -> oo | None -> o
    else o
  in
  let stable_t = function
    | Graph.N o -> Graph.N (stable o)
    | Graph.V _ as v -> v
  in
  let g' =
    Graph.Loader.create ~indexed:(Graph.indexed g) ~name:(Graph.name g) ()
  in
  List.iter (fun o -> Graph.Loader.add_node g' (stable o)) (Graph.nodes g);
  (* edges in insertion order, so label-extent, value-index and
     incoming-edge buckets keep [g]'s order, not a node-major one *)
  Graph.iter_edges_inserted
    (fun src l tgt -> Graph.Loader.add_edge g' (stable src) l (stable_t tgt))
    g;
  List.iter
    (fun c ->
      Graph.Loader.declare_collection g' c;
      List.iter
        (fun o -> Graph.Loader.add_to_collection g' c (stable o))
        (Graph.collection g c))
    (Graph.collections g);
  Graph.Loader.finish g'

(* --- the recording mutator --- *)

module Rec = struct
  type r = { rg : Graph.t; mutable acc : t }

  let create g = { rg = g; acc = empty }
  let graph r = r.rg

  let add_node r o =
    if not (Graph.mem_node r.rg o) then begin
      Graph.add_node r.rg o;
      r.acc <- { r.acc with nodes_added = o :: r.acc.nodes_added }
    end

  let add_edge r src l tgt =
    if not (Graph.has_edge r.rg src l tgt) then begin
      (* add_edge implicitly adds endpoint nodes *)
      add_node r src;
      (match tgt with Graph.N o -> add_node r o | Graph.V _ -> ());
      Graph.add_edge r.rg src l tgt;
      r.acc <- { r.acc with edges_added = (src, l, tgt) :: r.acc.edges_added }
    end

  let remove_edge r src l tgt =
    if Graph.has_edge r.rg src l tgt then begin
      Graph.remove_edge r.rg src l tgt;
      r.acc <-
        { r.acc with edges_removed = (src, l, tgt) :: r.acc.edges_removed }
    end

  let remove_node r o =
    if Graph.mem_node r.rg o then begin
      List.iter (fun (l, tgt) -> remove_edge r o l tgt) (Graph.out_edges r.rg o);
      List.iter
        (fun (src, l) -> remove_edge r src l (Graph.N o))
        (Graph.in_edges r.rg (Graph.N o));
      List.iter
        (fun c ->
          r.acc <- { r.acc with coll_removed = (c, o) :: r.acc.coll_removed })
        (Graph.collections_of r.rg o);
      Graph.remove_node r.rg o;
      r.acc <- { r.acc with nodes_removed = o :: r.acc.nodes_removed }
    end

  let add_to_collection r c o =
    if not (Graph.in_collection r.rg c o) then begin
      add_node r o;
      Graph.add_to_collection r.rg c o;
      r.acc <- { r.acc with coll_added = (c, o) :: r.acc.coll_added }
    end

  let remove_from_collection r c o =
    if Graph.in_collection r.rg c o then begin
      Graph.remove_from_collection r.rg c o;
      r.acc <- { r.acc with coll_removed = (c, o) :: r.acc.coll_removed }
    end

  (** Replace the first [label] value of [o] (a data-file style
      attribute update): removes every existing [label] edge to an
      atomic value, then adds [v]. *)
  let set_value r o label v =
    List.iter
      (fun (l, tgt) ->
        match tgt with
        | Graph.V _ when l = label -> remove_edge r o l tgt
        | _ -> ())
      (Graph.out_edges r.rg o);
    add_edge r o label (Graph.V v)

  let flush r =
    let d = r.acc in
    r.acc <- empty;
    d
end

let pp ppf d =
  Fmt.pf ppf "+%dn -%dn +%de -%de +%dc -%dc ~%db ~%dx ~%dl"
    (List.length d.nodes_added)
    (List.length d.nodes_removed)
    (List.length d.edges_added)
    (List.length d.edges_removed)
    (List.length d.coll_added)
    (List.length d.coll_removed)
    (List.length d.resequenced)
    (List.length d.reordered)
    (List.length d.label_reordered)
