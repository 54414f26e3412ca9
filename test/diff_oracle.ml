(* The structural diff Sgraph.Delta.diff replaced, kept as its oracle:
   it lists and sorts both graphs' nodes and compares every surviving
   node's out-bucket, every collection and every label extent as lists.
   Delta.diff must return the same delta, lists in the same order. *)

open Sgraph

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

let diff ~old g : Delta.t =
  let d = ref Delta.empty in
  let add f = d := f !d in
  let by_id g = List.sort Oid.compare (Graph.nodes g) in
  let old_nodes = by_id old and new_nodes = by_id g in
  List.iter
    (fun o ->
      if not (Graph.mem_node old o) then
        add (fun d -> { (d : Delta.t) with nodes_added = o :: d.nodes_added }))
    new_nodes;
  List.iter
    (fun o ->
      if not (Graph.mem_node g o) then begin
        add (fun d -> { (d : Delta.t) with nodes_removed = o :: d.nodes_removed });
        List.iter
          (fun (l, tgt) ->
            add (fun d -> { (d : Delta.t) with edges_removed = (o, l, tgt) :: d.edges_removed }))
          (Graph.out_edges old o)
      end)
    old_nodes;
  (* out-buckets of surviving nodes, keyed as the graph keys edges; an
     unchanged bucket (the common case) needs no tables *)
  let ekey (l, tgt) = (l, Graph.tkey tgt) in
  let same_edge (l, t) (l', t') =
    String.equal l l' && Graph.target_equal t t'
  in
  List.iter
    (fun o ->
      if Graph.mem_node old o then begin
        let oe = Graph.out_edges old o and ne = Graph.out_edges g o in
        if not (List.equal same_edge oe ne) then begin
          let oset = Hashtbl.create 8 and nset = Hashtbl.create 8 in
          List.iter (fun e -> Hashtbl.replace oset (ekey e) ()) oe;
          List.iter (fun e -> Hashtbl.replace nset (ekey e) ()) ne;
          let changed = ref false in
          List.iter
            (fun (l, tgt) ->
              if not (Hashtbl.mem oset (ekey (l, tgt))) then begin
                changed := true;
                add (fun d ->
                    { (d : Delta.t) with edges_added = (o, l, tgt) :: d.edges_added })
              end)
            ne;
          List.iter
            (fun (l, tgt) ->
              if not (Hashtbl.mem nset (ekey (l, tgt))) then begin
                changed := true;
                add (fun d ->
                    { (d : Delta.t) with edges_removed = (o, l, tgt) :: d.edges_removed })
              end)
            oe;
          (* same edge set in another order: resequenced *)
          if not !changed then
            add (fun d -> { (d : Delta.t) with resequenced = o :: d.resequenced })
        end
      end)
    new_nodes;
  (* collections: membership diff plus surviving-order check *)
  let colls =
    List.sort_uniq String.compare (Graph.collections old @ Graph.collections g)
  in
  List.iter
    (fun c ->
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
            add (fun d -> { (d : Delta.t) with coll_added = (c, o) :: d.coll_added }))
        nc;
      List.iter
        (fun o ->
          if not (Oid.Set.mem o nset) then
            add (fun d -> { (d : Delta.t) with coll_removed = (c, o) :: d.coll_removed }))
        oc;
      let kept = List.filter (fun o -> Oid.Set.mem o nset) oc in
      if not (same_relative_order ~mem:(fun o -> Oid.Set.mem o oset) kept nc)
      then add (fun d -> { (d : Delta.t) with reordered = c :: d.reordered }))
    colls;
  (* label extents: the surviving edges' relative order, which a fresh
     integration can change while every edge and bucket stays (rows
     inserted in another order); an unchanged extent needs no probes *)
  let same_entry (o, t) (o', t') = Oid.equal o o' && Graph.target_equal t t' in
  List.iter
    (fun l ->
      let oe = Graph.label_extent old l and ne = Graph.label_extent g l in
      if not (List.equal same_entry oe ne) then begin
        let kept_old = List.filter (fun (o, t) -> Graph.has_edge g o l t) oe
        and kept_new =
          List.filter (fun (o, t) -> Graph.has_edge old o l t) ne
        in
        if not (List.equal same_entry kept_old kept_new) then
          add (fun d -> { (d : Delta.t) with label_reordered = l :: d.label_reordered })
      end)
    (List.sort_uniq String.compare (Graph.labels old @ Graph.labels g));
  !d
