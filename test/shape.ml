(* A graph's content by node names, order-sensitive throughout: node
   order, then every out-bucket, collection extent, label extent,
   value-index bucket and in-edge bucket — for comparing two graphs in
   every index order. *)

open Sgraph

let of_graph g =
  let n = Oid.name in
  let tgt = function
    | Graph.N o -> "&" ^ n o
    | Graph.V v -> Value.to_string v
  in
  let src_label (o, l) = n o ^ "." ^ l in
  let nodes = Graph.nodes g in
  let values =
    List.sort_uniq Value.compare
      (Graph.fold_edges
         (fun _ _ tg acc ->
           match tg with Graph.V v -> v :: acc | Graph.N _ -> acc)
         g [])
  in
  (("nodes", List.map n nodes)
   :: List.map
        (fun o ->
          ( "out " ^ n o,
            List.map (fun (l, tg) -> l ^ "=" ^ tgt tg) (Graph.out_edges g o) ))
        nodes)
  @ List.map
      (fun c -> ("coll " ^ c, List.map n (Graph.collection g c)))
      (List.sort compare (Graph.collections g))
  @ List.map
      (fun l ->
        ( "label " ^ l,
          List.map (fun (o, tg) -> n o ^ "=" ^ tgt tg) (Graph.label_extent g l)
        ))
      (List.sort_uniq compare (Graph.labels g))
  @ List.map
      (fun v ->
        ( "value " ^ Value.to_string v,
          List.map src_label (Graph.value_index g v) ))
      values
  @ List.map
      (fun o ->
        ("in " ^ n o, List.map src_label (Graph.in_edges g (Graph.N o))))
      nodes
