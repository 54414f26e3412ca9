(** Integrity constraints on site structure (§1, [FER 98b]).

    Constraints like "all pages are reachable from the root", "every
    organization homepage points to the homepages of its
    suborganizations", or "proprietary data is not displayed on the
    external version" are expressed here and checked in two ways:

    - {e statically} on the site schema — a sound approximation: the
      schema describes the possible paths of every generated site, so
      [No_edge]/[No_attribute] violations found there rule out every
      instance, and schema-level reachability is a necessary condition
      for instance-level reachability;
    - {e exactly} on a concrete site graph, where Skolem families are
      recovered from node names ([YearPage(1997)] belongs to the
      [YearPage] family). *)

open Sgraph
open Struql

type constraint_ =
  | Reachable_from of string
      (** every object of the site is reachable from the given Skolem
          family's pages (typically the root) *)
  | Points_to of string * string * string
      (** [Points_to (a, l, b)]: every [a]-page has an [l]-edge to some
          [b]-page *)
  | No_edge of string * string
      (** [No_edge (a, l)]: no [a]-page carries an [l]-edge *)
  | No_attribute_anywhere of string
      (** the label never appears in the site (proprietary data) *)
  | Acyclic_links of string
      (** edges with the given label form no cycle (e.g. "SubOrg") *)

let pp_constraint ppf = function
  | Reachable_from f -> Fmt.pf ppf "all pages reachable from %s" f
  | Points_to (a, l, b) -> Fmt.pf ppf "every %s -[%S]-> some %s" a l b
  | No_edge (a, l) -> Fmt.pf ppf "no %s carries label %S" a l
  | No_attribute_anywhere l -> Fmt.pf ppf "label %S absent from site" l
  | Acyclic_links l -> Fmt.pf ppf "label %S is acyclic" l

type verdict =
  | Holds
  | Violated of string list  (** human-readable witnesses *)
  | Unknown of string        (** static analysis cannot decide *)

let pp_verdict ppf = function
  | Holds -> Fmt.string ppf "holds"
  | Violated ws ->
    Fmt.pf ppf "VIOLATED (%d witnesses)%a" (List.length ws)
      (fun ppf ws ->
        List.iter (fun w -> Fmt.pf ppf "@\n    %s" w) ws)
      ws
  | Unknown why -> Fmt.pf ppf "unknown statically: %s" why

(* --- Static checks on the site schema --- *)

let edge_label_matches l = function
  | Ast.L_const s -> s = l
  | Ast.L_var _ -> true  (* an arc variable may take any label *)

let check_schema (s : Site_schema.t) (c : constraint_) : verdict =
  match c with
  | Reachable_from root ->
    let reach = Site_schema.reachable_from s (Site_schema.NF root) in
    let missing =
      List.filter
        (fun n ->
          not (List.exists (Site_schema.node_equal n) reach)
          && n <> Site_schema.NS)
        (Site_schema.nodes s)
    in
    if List.exists (Site_schema.node_equal (Site_schema.NF root))
         (Site_schema.nodes s)
    then
      if missing = [] then Holds
      else
        Violated
          (List.map
             (fun n ->
               Fmt.str "family %s unreachable in the schema"
                 (Site_schema.node_name n))
             missing)
    else Violated [ Fmt.str "no Skolem family named %s" root ]
  | Points_to (a, l, b) ->
    let candidate =
      List.exists
        (fun e ->
          Site_schema.node_equal e.Site_schema.src (Site_schema.NF a)
          && Site_schema.node_equal e.Site_schema.dst (Site_schema.NF b)
          && edge_label_matches l e.Site_schema.label)
        (Site_schema.edges s)
    in
    if candidate then
      Unknown
        "a matching link clause exists; whether every instance fires \
         depends on the data"
    else
      Violated
        [ Fmt.str "no link clause can produce %s -[%S]-> %s" a l b ]
  | No_edge (a, l) ->
    let offending =
      List.filter
        (fun e ->
          Site_schema.node_equal e.Site_schema.src (Site_schema.NF a)
          && edge_label_matches l e.Site_schema.label)
        (Site_schema.edges s)
    in
    (match offending with
     | [] -> Holds
     | es ->
       let exact =
         List.filter
           (fun e ->
             match e.Site_schema.label with
             | Ast.L_const s' -> s' = l
             | Ast.L_var _ -> false)
           es
       in
       if exact <> [] then
         Violated
           (List.map
              (fun e -> Fmt.str "link clause %a" Site_schema.pp_edge_label e)
              exact)
       else
         Unknown "an arc-variable link clause may produce this label")
  | No_attribute_anywhere l ->
    let offending =
      List.filter
        (fun e -> edge_label_matches l e.Site_schema.label)
        (Site_schema.edges s)
    in
    (match offending with
     | [] -> Holds
     | es ->
       let exact =
         List.exists
           (fun e ->
             match e.Site_schema.label with
             | Ast.L_const s' -> s' = l
             | Ast.L_var _ -> false)
           es
       in
       if exact then
         Violated [ Fmt.str "a link clause emits label %S" l ]
       else Unknown "an arc-variable link clause may produce this label")
  | Acyclic_links l ->
    (* cycle detection between Skolem families along l-labeled schema
       edges; a schema cycle is necessary for an instance cycle *)
    let nodes = Site_schema.nodes s in
    let succ n =
      List.filter_map
        (fun e ->
          if Site_schema.node_equal e.Site_schema.src n
             && edge_label_matches l e.Site_schema.label
          then Some e.Site_schema.dst
          else None)
        (Site_schema.edges s)
    in
    let rec dfs path n =
      if List.exists (Site_schema.node_equal n) path then true
      else List.exists (dfs (n :: path)) (succ n)
    in
    if List.exists (dfs []) nodes then
      Unknown "the schema admits a cycle; instances may or may not cycle"
    else Holds

(* --- Exact checks on a concrete site graph --- *)

(** The Skolem family of a node, recovered from its name
    ("YearPage(1997)" → "YearPage"). *)
let family_of_node o =
  let n = Oid.name o in
  match String.index_opt n '(' with
  | Some i when i > 0 && String.length n > 0 && n.[String.length n - 1] = ')'
    ->
    Some (String.sub n 0 i)
  | _ -> None

let family_members g fam =
  List.filter (fun o -> family_of_node o = Some fam) (Graph.nodes g)

let check_site (g : Graph.t) (c : constraint_) : verdict =
  (* constraints only read the graph, through its live indexes *)
  match c with
  | Reachable_from root ->
    let roots = family_members g root in
    if roots = [] then Violated [ Fmt.str "no %s node in the site" root ]
    else begin
      let missing = Algo.unreachable_nodes g roots in
      if missing = [] then Holds
      else
        Violated
          (List.map (fun o -> Fmt.str "unreachable page %s" (Oid.name o))
             missing)
    end
  | Points_to (a, l, b) ->
    let bad =
      List.filter
        (fun o ->
          not
            (List.exists
               (fun t ->
                 match t with
                 | Graph.N o' -> family_of_node o' = Some b
                 | Graph.V _ -> false)
               (Graph.attr g o l)))
        (family_members g a)
    in
    if bad = [] then Holds
    else
      Violated
        (List.map
           (fun o -> Fmt.str "%s lacks %S link to a %s" (Oid.name o) l b)
           bad)
  | No_edge (a, l) ->
    let bad =
      List.filter (fun o -> Graph.attr g o l <> []) (family_members g a)
    in
    if bad = [] then Holds
    else
      Violated
        (List.map (fun o -> Fmt.str "%s carries %S" (Oid.name o) l) bad)
  | No_attribute_anywhere l ->
    if Graph.label_count g l = 0 then Holds
    else
      Violated
        (List.map
           (fun (o, _) -> Fmt.str "%s carries %S" (Oid.name o) l)
           (Graph.label_extent g l))
  | Acyclic_links l ->
    (* restrict the graph to l-labeled edges and test for cycles *)
    let sub = Graph.Loader.create ~name:"sub" () in
    Graph.iter_edges
      (fun src lab tgt -> if lab = l then Graph.Loader.add_edge sub src lab tgt)
      g;
    if Algo.is_dag (Graph.Loader.finish sub) then Holds
    else Violated [ Fmt.str "cycle among %S links" l ]

let check_all_site g cs = List.map (fun c -> (c, check_site g c)) cs
let check_all_schema s cs = List.map (fun c -> (c, check_schema s c)) cs

(* --- Keeping verdicts across a maintained graph's updates --- *)

(* Reachability, a family's links and cycles read only nodes (their
   names, and their order for witnesses) and edges to nodes; the label
   checks also read value edges of their label, and list witnesses in
   its extent's order. *)
let moved_by ~structural ~labels = function
  | Reachable_from _ | Points_to _ | Acyclic_links _ -> structural
  | No_edge (_, l) | No_attribute_anywhere l ->
    structural || List.mem l labels

let recheck_site g ~structural ~labels verdicts =
  List.map
    (fun ((c, _) as kept) ->
      if moved_by ~structural ~labels c then (c, check_site g c) else kept)
    verdicts
