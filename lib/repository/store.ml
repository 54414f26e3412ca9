(** The data repository for semistructured data (§2.2).

    Stores data graphs and site graphs.  Unlike a traditional system,
    the repository cannot rely on schema information to organize data;
    instead it fully indexes both schema and data — the indexes live in
    {!Sgraph.Graph} (collection and attribute extents, a global value
    index, the schema index of all collection and attribute names) and
    are rebuilt when a graph is loaded.

    Persistence uses the textual data-definition language, so a dump is
    human-readable and exchangeable with wrappers, or the compact
    {!Segment} form. *)

open Sgraph

type t = {
  mutable graphs : (string * Graph.t) list;  (* newest first *)
}

exception Not_found_graph of string

let create () = { graphs = [] }

let put repo g =
  repo.graphs <- (Graph.name g, g) :: List.remove_assoc (Graph.name g) repo.graphs

let get repo name =
  match List.assoc_opt name repo.graphs with
  | Some g -> g
  | None -> raise (Not_found_graph name)

let get_opt repo name = List.assoc_opt name repo.graphs
let names repo = List.map fst repo.graphs
let mem repo name = List.mem_assoc name repo.graphs

let remove repo name =
  repo.graphs <- List.remove_assoc name repo.graphs

(* --- Persistence --- *)

let dump_graph g = Ddl.print g

let load_graph ~name text =
  let g, _dirs = Ddl.parse ~graph_name:name text in
  g

(** Save every graph below [dir]: [`Ddl] writes human-readable
    [<name>.ddl] text, [`Segment] the compact [<name>.seg] form of
    {!Segment}; either is written then renamed into place, and the
    other format's file of that name, now stale, is removed. *)
let save_dir ?(format = `Ddl) repo ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun (name, g) ->
      let path ext = Filename.concat dir (name ^ ext) in
      let stale =
        match format with
        | `Ddl ->
          Segment.write_file ~path:(path ".ddl") (dump_graph g);
          path ".seg"
        | `Segment ->
          ignore (Segment.write ~path:(path ".seg") g);
          path ".ddl"
      in
      if Sys.file_exists stale then Sys.remove stale)
    repo.graphs

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(** Load every [*.ddl] and [*.seg] file of [dir] into a fresh
    repository.  A name with both files is refused rather than resolved
    by [readdir] order. *)
let load_dir ~dir =
  let repo = create () in
  if Sys.file_exists dir then
    Array.iter
      (fun f ->
        let path = Filename.concat dir f in
        if Filename.check_suffix f ".ddl" then begin
          let name = Filename.chop_suffix f ".ddl" in
          let seg = Filename.concat dir (name ^ ".seg") in
          if Sys.file_exists seg then
            failwith
              (Printf.sprintf
                 "Store.load_dir: %s and %s both hold graph %s (an \
                  interrupted save?)"
                 path seg name);
          put repo (load_graph ~name (read_file path))
        end
        else if Filename.check_suffix f ".seg" then
          put repo
            (Segment.to_graph
               ~name:(Filename.chop_suffix f ".seg")
               [ Segment.read ~path () ]))
      (Sys.readdir dir);
  repo

(** Round-trip a graph through the DDL: the persisted form reloaded.
    Node identities change; names, edges and collections survive. *)
let reload g = load_graph ~name:(Graph.name g) (dump_graph g)
