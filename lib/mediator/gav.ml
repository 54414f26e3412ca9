(** Global-as-view mediation (§2.3).

    In GAV, each relation (here: collection) of the mediated schema is
    defined by a query over the sources: a StruQL query reading the
    source's graph and creating objects/edges in the mediated graph.
    The paper chose GAV because StruQL extends to it directly and the
    set of sources was small and stable.

    A {!mapping} pairs a source with the StruQL query that translates
    it; integration runs all mappings into one mediated graph under a
    shared Skolem scope, so mappings from different sources that create
    the same Skolem term (e.g. [Person(login)]) converge on the same
    mediated object — this is how overlapping sources fuse. *)

open Sgraph
open Struql

type mapping = {
  source_name : string;
  query : Ast.query;
}

exception Unknown_source of string * string list
(** the mapping's source name, the declared source names *)

let mapping ~source query = { source_name = source; query }

let mapping_of_string ~source q_src =
  { source_name = source; query = Parser.parse q_src }

(** The identity mapping: copy every collection member and its
    attributes into the mediated graph under Skolem function [fn].
    Membership is copied even for members without attributes. *)
let copy_collection ~source ~collection ?(fn = collection ^ "Obj") () =
  let q =
    Printf.sprintf
      {| { WHERE %s(x)
           CREATE %s(x)
           COLLECT %s(%s(x)) }
         { WHERE %s(x), x -> l -> v
           CREATE %s(x)
           LINK %s(x) -> l -> v }
         OUTPUT mediated |}
      collection fn collection fn collection fn fn
  in
  { source_name = source; query = Parser.parse q }

(** Run the mappings over their sources into a fresh mediated graph.
    All mappings share one Skolem scope, so Skolem terms built from the
    same source objects fuse.  A mapping whose source is ["*"] runs
    over the union of all sources — the form a cross-source join (e.g.
    project members referenced by login) takes in GAV.

    [load] plugs in a fault-aware loader (typically
    {!Source.load_with} partially applied): a source it yields [None]
    for is unavailable — its mappings are skipped and ["*"] becomes
    the union of the sources that {e did} load.  Each source loads at
    most once per integration.  With a [fault] context, a mapping over
    an unknown source is recorded and skipped instead of aborting.
    [scope] is the mappings' shared Skolem scope. *)
let integrate ?(options = Eval.default_options) ?(graph_name = "mediated")
    ~scope ?load ?fault (sources : Source.t list) (mappings : mapping list) :
    Graph.t =
  let load =
    match load with Some f -> f | None -> fun s -> Some (Source.load s)
  in
  let loaded : (string, Graph.t option) Hashtbl.t = Hashtbl.create 8 in
  let get_source s =
    match Hashtbl.find_opt loaded (Source.name s) with
    | Some r -> r
    | None ->
      let r = load s in
      Hashtbl.add loaded (Source.name s) r;
      r
  in
  let mediated = Graph.create ~name:graph_name () in
  let merged = lazy (
    let g = Graph.create ~name:"all-sources" () in
    List.iter
      (fun s ->
        match get_source s with
        | Some src -> Graph.merge_into ~dst:g ~src
        | None -> ())
      sources;
    g)
  in
  List.iter
    (fun m ->
      let g =
        if m.source_name = "*" then Some (Lazy.force merged)
        else
          match
            List.find_opt (fun s -> Source.name s = m.source_name) sources
          with
          | None -> (
            match fault with
            | None ->
              raise
                (Unknown_source (m.source_name, List.map Source.name sources))
            | Some c ->
              Fault.record c
                (Fault.report ~stage:Fault.Integrate ~source:m.source_name
                   ~location:"mapping" ~cause:"unknown source" ());
              None)
          | Some s -> get_source s
      in
      match g with
      | None -> ()  (* unavailable source: its mappings are skipped *)
      | Some g -> ignore (Exec.run ~options ~scope ~into:mediated g m.query))
    mappings;
  mediated
