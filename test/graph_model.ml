(* A reference model of Sgraph.Graph: plain lists, kept in exactly the
   orders graph.mli promises, with every operation written the obvious
   way.  The graph differential in test_graph.ml runs random mutation
   scripts through this model and through Graph and compares every
   observable after every step, order included.

   The model is the order contract, spelled out:
   - nodes in insertion order; a node removed and re-added goes last;
   - edges in insertion order; a removed and re-added edge goes last.
     Every edge listing (out-edges, attributes, label extents, the value
     index, incoming edges) is this list filtered, so set_out_edges
     puts its edges last everywhere;
   - collection members in insertion order; collections in the order
     first declared or used, kept when emptied;
   - labels in first-seen order, kept when their edges are gone;
   - names: the first node added under a name wins, and removing a node
     forgets the name only when it maps to that node. *)

open Sgraph

type edge = Oid.t * string * Graph.target

type t = {
  mutable nodes : Oid.t list;
  mutable edges : edge list;
  mutable colls : (string * Oid.t list) list;
  mutable labels : string list;
  mutable names : (string * Oid.t) list;
}

let create () = { nodes = []; edges = []; colls = []; labels = []; names = [] }

let same_edge (s, l, t) (s', l', t') =
  Oid.equal s s' && String.equal l l' && Graph.target_equal t t'

let mem_node m o = List.exists (Oid.equal o) m.nodes

let add_node m o =
  if not (mem_node m o) then begin
    m.nodes <- m.nodes @ [ o ];
    if not (List.mem_assoc (Oid.name o) m.names) then
      m.names <- m.names @ [ (Oid.name o, o) ]
  end

let has_edge m s l t = List.exists (same_edge (s, l, t)) m.edges

let add_edge m s l t =
  if not (has_edge m s l t) then begin
    add_node m s;
    (match t with Graph.N o -> add_node m o | Graph.V _ -> ());
    m.edges <- m.edges @ [ (s, l, t) ];
    if not (List.mem l m.labels) then m.labels <- m.labels @ [ l ]
  end

let remove_edge m s l t =
  m.edges <- List.filter (fun e -> not (same_edge (s, l, t) e)) m.edges

let collection m c = try List.assoc c m.colls with Not_found -> []

let set_members m c members =
  m.colls <-
    List.map (fun (c', ms) -> (c', if c = c' then members else ms)) m.colls

let declare_collection m c =
  if not (List.mem_assoc c m.colls) then m.colls <- m.colls @ [ (c, []) ]

let add_to_collection m c o =
  add_node m o;
  declare_collection m c;
  let ms = collection m c in
  if not (List.exists (Oid.equal o) ms) then set_members m c (ms @ [ o ])

let remove_from_collection m c o =
  if List.mem_assoc c m.colls then
    set_members m c
      (List.filter (fun x -> not (Oid.equal x o)) (collection m c))

let remove_node m o =
  if mem_node m o then begin
    m.edges <-
      List.filter
        (fun (s, _, t) ->
          not (Oid.equal s o || Graph.target_equal t (Graph.N o)))
        m.edges;
    List.iter (fun (c, _) -> remove_from_collection m c o) m.colls;
    m.nodes <- List.filter (fun x -> not (Oid.equal x o)) m.nodes;
    match List.assoc_opt (Oid.name o) m.names with
    | Some o' when Oid.equal o o' ->
      m.names <- List.remove_assoc (Oid.name o) m.names
    | _ -> ()
  end

let out_edges m o =
  List.filter_map
    (fun (s, l, t) -> if Oid.equal s o then Some (l, t) else None)
    m.edges

let set_out_edges m o edges =
  m.edges <- List.filter (fun (s, _, _) -> not (Oid.equal s o)) m.edges;
  List.iter (fun (l, t) -> add_edge m o l t) edges

let set_collection m c members =
  List.iter (fun o -> remove_from_collection m c o) (collection m c);
  List.iter (fun o -> add_to_collection m c o) members

(* node-major: every node's out-edges, nodes in order *)
let edges_node_major m =
  List.concat_map
    (fun o -> List.map (fun (l, t) -> (o, l, t)) (out_edges m o))
    m.nodes

(* each model in turn: its nodes, its edges in insertion order, then
   its collections in order with their members *)
let union ms =
  let m' = create () in
  List.iter
    (fun src ->
      List.iter (add_node m') src.nodes;
      List.iter (fun (s, l, t) -> add_edge m' s l t) src.edges;
      List.iter
        (fun (c, members) ->
          declare_collection m' c;
          List.iter (add_to_collection m' c) members)
        src.colls)
    ms;
  m'

let copy m = union [ m ]

(* the model with every node [o] replaced by [f o], a renaming that
   keeps names *)
let rename f m =
  let tgt = function Graph.N o -> Graph.N (f o) | Graph.V _ as t -> t in
  {
    nodes = List.map f m.nodes;
    edges = List.map (fun (s, l, t) -> (f s, l, tgt t)) m.edges;
    colls = List.map (fun (c, ms) -> (c, List.map f ms)) m.colls;
    labels = m.labels;
    names = List.map (fun (n, o) -> (n, f o)) m.names;
  }

(* --- observables --- *)

let attr m o l =
  List.filter_map
    (fun (l', t) -> if l = l' then Some t else None)
    (out_edges m o)

let attr1 m o l = match attr m o l with t :: _ -> Some t | [] -> None

let attr_value m o l =
  List.find_map
    (function Graph.V v -> Some v | Graph.N _ -> None)
    (attr m o l)

let in_edges m t =
  List.filter_map
    (fun (s, l, t') -> if Graph.target_equal t t' then Some (s, l) else None)
    m.edges

let label_extent m l =
  List.filter_map
    (fun (s, l', t) -> if l = l' then Some (s, t) else None)
    m.edges

let value_index m v = in_edges m (Graph.V v)
let in_collection m c o = List.exists (Oid.equal o) (collection m c)

let collections_of m o =
  List.filter_map
    (fun (c, ms) -> if List.exists (Oid.equal o) ms then Some c else None)
    m.colls

let find_node m n = List.assoc_opt n m.names
