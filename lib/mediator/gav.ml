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
    mediated object — this is how overlapping sources fuse.

    Each single-source run records its construction log: what it added
    to the mediated graph, in order, and the source graph it read at
    its generation.  The next integration replays the log of a mapping
    whose input cannot have changed instead of evaluating it again,
    which builds the same graph and, through {!Skolem.adopt}, the same
    scope. *)

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

(* --- construction logs --- *)

(* One addition a mapping made to the mediated graph. *)
type event =
  | Ev_node of Oid.t  (* a Skolem term's node *)
  | Ev_edge of Oid.t * string * Graph.target
  | Ev_coll of string * Oid.t

type log = {
  l_mapping : mapping;
  l_graph : Graph.t;  (* the source graph it read ... *)
  l_gen : int;  (* ... at this generation *)
  l_events : event array;
      (* its additions in mutation order, each at its first occurrence
         in this mapping *)
}

type run = Ran | Replayed | Skipped

type logs = { lg_runs : run array; lg_logs : log option array }

let runs lg = Array.to_list lg.lg_runs

type ekey = K_edge of int * string * Graph.tkey | K_coll of string * int

module Itbl = Hashtbl.Make (Int)

(* An emitter recording what a run adds to [into].  A repeat inside the
   mapping is a no-op for the graph, so only first occurrences are
   kept; a repeat of another mapping's addition is kept, since that
   mapping may not make it next time.  A node or membership repeats
   mostly on consecutive rows, which the last one seen catches before
   any table does.  An edge is new to the graph exactly when the graph's
   edge count moved, so only an edge that was already there (rare: one
   an earlier mapping added, or this mapping's own repeat) consults a
   table of this run's edges, built the first time one is needed. *)
let recorder into =
  let events = ref [] in
  let nodes = Itbl.create 64 and colls = Hashtbl.create 64 in
  let last_node = ref None and last_coll = ref None in
  let edges_seen = ref (Graph.edge_count into) and edge_keys = ref None in
  let edge_key s l tg = K_edge (Oid.id s, l, Graph.tkey tg) in
  let record_edge s l tg = events := Ev_edge (s, l, tg) :: !events in
  let emit =
    {
      Eval.em_apply = true;
      em_node =
        (fun o ->
          match !last_node with
          | Some o' when o' == o -> ()
          | Some _ | None ->
            last_node := Some o;
            if not (Itbl.mem nodes (Oid.id o)) then begin
              Itbl.add nodes (Oid.id o) ();
              events := Ev_node o :: !events
            end);
      em_edge =
        (fun s l tg ->
          let n = Graph.edge_count into in
          if n > !edges_seen then begin
            edges_seen := n;
            Option.iter
              (fun keys -> Hashtbl.add keys (edge_key s l tg) ())
              !edge_keys;
            record_edge s l tg
          end
          else begin
            let keys =
              match !edge_keys with
              | Some keys -> keys
              | None ->
                let keys = Hashtbl.create 64 in
                List.iter
                  (function
                    | Ev_edge (s, l, tg) ->
                      Hashtbl.replace keys (edge_key s l tg) ()
                    | Ev_node _ | Ev_coll _ -> ())
                  !events;
                edge_keys := Some keys;
                keys
            in
            let k = edge_key s l tg in
            if not (Hashtbl.mem keys k) then begin
              Hashtbl.add keys k ();
              record_edge s l tg
            end
          end);
      em_coll =
        (fun c o ->
          match !last_coll with
          | Some (c', o') when String.equal c' c && o' == o -> ()
          | Some _ | None ->
            last_coll := Some (c, o);
            let k = K_coll (c, Oid.id o) in
            if not (Hashtbl.mem colls k) then begin
              Hashtbl.add colls k ();
              events := Ev_coll (c, o) :: !events
            end);
    }
  in
  (emit, fun () -> Array.of_list (List.rev !events))

(* Replaying a log makes the run's exact mutation sequence; each node
   takes its Skolem term from the reused scope, so the scope ends up
   holding what the run would have entered. *)
let replay ~scope ~into log =
  Array.iter
    (function
      | Ev_node o ->
        Skolem.adopt scope o;
        Graph.add_node into o
      | Ev_edge (s, l, tg) -> Graph.add_edge into s l tg
      | Ev_coll (c, o) -> Graph.add_to_collection into c o)
    log.l_events

(** Run the mappings over their sources into a fresh mediated graph,
    recording each single-source run's construction log; a mapping
    whose source is the graph it read last time, at the same
    generation, replays its log from [previous] instead. *)
let integrate ?(options = Eval.default_options)
    ?(graph_name = "mediated") ~scope ?previous ?load ?fault
    (sources : Source.t list) (mappings : mapping list) : Graph.t * logs =
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
  let merged =
    lazy (Graph.union ~name:"all-sources" (List.filter_map get_source sources))
  in
  let n = List.length mappings in
  let prev =
    match previous with
    | Some p when Array.length p.lg_logs = n -> p.lg_logs
    | Some _ | None -> Array.make n None
  in
  let lg_runs = Array.make n Skipped and lg_logs = Array.make n None in
  List.iteri
    (fun i m ->
      if m.source_name = "*" then begin
        (* a join over every source: an integration runs because some
           source changed, so it is evaluated every time *)
        ignore
          (Exec.run ~options ~scope ~into:mediated (Lazy.force merged)
             m.query);
        lg_runs.(i) <- Ran
      end
      else
        match
          List.find_opt (fun s -> Source.name s = m.source_name) sources
        with
        | None -> (
          match fault with
          | None ->
            raise (Unknown_source (m.source_name, List.map Source.name sources))
          | Some c ->
            Fault.record c
              (Fault.report ~stage:Fault.Integrate ~source:m.source_name
                 ~location:"mapping" ~cause:"unknown source" ()))
        | Some s -> (
          match get_source s with
          | None -> ()  (* unavailable source: its mappings are skipped *)
          | Some g -> (
            match prev.(i) with
            | Some log
              when log.l_mapping == m && log.l_graph == g
                   && log.l_gen = Graph.generation g ->
              replay ~scope ~into:mediated log;
              lg_runs.(i) <- Replayed;
              lg_logs.(i) <- Some log
            | Some _ | None ->
              let l_gen = Graph.generation g in
              let emit, events = recorder mediated in
              ignore (Exec.run ~options ~scope ~into:mediated ~emit g m.query);
              lg_runs.(i) <- Ran;
              lg_logs.(i) <-
                Some
                  { l_mapping = m; l_graph = g; l_gen; l_events = events () })))
    mappings;
  (mediated, { lg_runs; lg_logs })
