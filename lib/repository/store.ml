(** The data repository for semistructured data (§2.2).

    Stores data graphs and site graphs.  Unlike a traditional system,
    the repository cannot rely on schema information to organize data;
    instead it fully indexes both schema and data — the indexes live in
    {!Sgraph.Graph} (collection and attribute extents, a global value
    index, the schema index of all collection and attribute names) and
    are rebuilt when a graph is loaded.

    A repository directory holds one file per catalogued graph, the
    human-readable data-definition language or the compact {!Segment}
    form, and a [MANIFEST] naming them.  A save writes the new epoch's
    files beside the live ones, renames a fresh manifest over the old
    one and only then removes the files the old manifest named, so a
    reader finds one epoch's catalog whole, never a mix.  The manifest
    is a line-oriented text file; string fields use OCaml lexical
    escaping (%S / Scanf %S), so arbitrary graph and source names
    round-trip. *)

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

(* --- the manifest --- *)

exception Manifest_error of string

type entry = {
  e_graph : string;
  e_file : string;
  e_nodes : int;
  e_edges : int;
  e_bytes : int;
}

type manifest = {
  m_epoch : int;
  m_sources : (string * int) list;
  m_entries : entry list;
}

let manifest_file = "MANIFEST"
let manifest_magic = "strudel-manifest 2"

(* A graph's file is named by its epoch and its place in the catalog,
   so no graph name needs sanitizing. *)
let file_name ~epoch i format =
  Printf.sprintf "%d.%d.%s" epoch i
    (match format with `Ddl -> "ddl" | `Segment -> "seg")

(* Whether [f] is a file name [file_name ~epoch] gives: one inside the
   directory, neither the manifest nor a file of another epoch. *)
let names_epoch_file ~epoch f =
  match String.split_on_char '.' f with
  | [ e; i; ("seg" | "ddl") ] ->
    e = string_of_int epoch && i <> ""
    && String.for_all (fun c -> c >= '0' && c <= '9') i
  | _ -> false

let manifest_text m =
  let b = Buffer.create 256 in
  Printf.bprintf b "%s\nepoch %d\n" manifest_magic m.m_epoch;
  List.iter (fun (s, v) -> Printf.bprintf b "source %S %d\n" s v) m.m_sources;
  List.iter
    (fun e ->
      Printf.bprintf b "graph %S %S %d %d %d\n" e.e_graph e.e_file e.e_nodes
        e.e_edges e.e_bytes)
    m.m_entries;
  Buffer.contents b

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_manifest ~dir =
  let path = Filename.concat dir manifest_file in
  let text =
    try read_file path with
    | Sys_error msg -> raise (Manifest_error ("no manifest: " ^ msg))
    | End_of_file -> raise (Manifest_error (path ^ ": unreadable"))
  in
  let fail lnum msg =
    raise (Manifest_error (Printf.sprintf "%s:%d: %s" path lnum msg))
  in
  let lines = String.split_on_char '\n' text in
  if List.hd lines <> manifest_magic then
    fail 1 (Printf.sprintf "not a %S manifest" manifest_magic);
  let epoch = ref 0 and sources = ref [] and entries = ref [] in
  List.iteri
    (fun i line ->
      let lnum = i + 1 in
      (* each line whole: [%!] refuses trailing bytes, and a short line
         is an error of its own line, never an escaping [End_of_file] *)
      let scan fmt k =
        match Scanf.sscanf line fmt k with
        | v -> v
        | exception (Scanf.Scan_failure m | Failure m) -> fail lnum m
        | exception End_of_file -> fail lnum "truncated line"
      in
      match String.index_opt line ' ' with
      | _ when lnum = 1 || line = "" -> ()
      | None -> fail lnum "malformed line"
      | Some sp -> (
        match String.sub line 0 sp with
        | "epoch" when lnum = 2 ->
          scan "epoch %d%!" (fun v ->
              if v < 1 then fail lnum "epoch must be positive";
              epoch := v)
        | "source" when !epoch > 0 ->
          scan "source %S %d%!" (fun s v -> sources := (s, v) :: !sources)
        | "graph" when !epoch > 0 ->
          scan "graph %S %S %d %d %d%!" (fun name file nodes edges bytes ->
              if not (names_epoch_file ~epoch:!epoch file) then
                fail lnum ("not a file of this epoch: " ^ file);
              if List.exists (fun e -> e.e_graph = name) !entries then
                fail lnum ("graph listed twice: " ^ name);
              entries :=
                { e_graph = name; e_file = file; e_nodes = nodes;
                  e_edges = edges; e_bytes = bytes }
                :: !entries)
        | ("epoch" | "source" | "graph") as kw ->
          fail lnum (kw ^ " line out of place")
        | kw -> fail lnum ("unknown keyword " ^ kw)))
    lines;
  if !epoch = 0 then fail 2 "no epoch line";
  { m_epoch = !epoch; m_sources = List.rev !sources;
    m_entries = List.rev !entries }

let pp_manifest ppf m =
  Fmt.pf ppf "@[<v>repository: epoch %d" m.m_epoch;
  List.iter
    (fun (s, v) -> Fmt.pf ppf "@,source %-16s version %d" s v)
    m.m_sources;
  List.iter
    (fun e ->
      Fmt.pf ppf "@,graph %-16s %s  nodes=%d edges=%d bytes=%d" e.e_graph
        e.e_file e.e_nodes e.e_edges e.e_bytes)
    m.m_entries;
  Fmt.pf ppf "@]"

(* --- save and load --- *)

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let remove_quietly path = try Sys.remove path with Sys_error _ -> ()

let save_dir ?(format = `Ddl) ?(sources = []) repo ~dir =
  mkdir_p dir;
  let live =
    if Sys.file_exists (Filename.concat dir manifest_file) then
      Some (load_manifest ~dir)
    else None
  in
  let epoch = match live with Some m -> m.m_epoch + 1 | None -> 1 in
  let written = ref [] in
  let save i (name, g) =
    let file = file_name ~epoch i format in
    let path = Filename.concat dir file in
    written := path :: !written;
    let bytes =
      match format with
      | `Segment -> Segment.write ~path ~epoch g
      | `Ddl ->
        let text = dump_graph g in
        Segment.write_file ~path text;
        String.length text
    in
    { e_graph = name; e_file = file; e_nodes = Graph.node_count g;
      e_edges = Graph.edge_count g; e_bytes = bytes }
  in
  (match
     let m_entries = List.mapi save (List.rev repo.graphs) in
     Segment.write_file
       ~path:(Filename.concat dir manifest_file)
       (manifest_text { m_epoch = epoch; m_sources = sources; m_entries })
   with
   | () -> ()
   | exception e ->
     (* the live manifest still names the previous epoch's files *)
     List.iter remove_quietly !written;
     raise e);
  Option.iter
    (fun m ->
      List.iter (fun e -> remove_quietly (Filename.concat dir e.e_file))
        m.m_entries)
    live

let load_entry ~dir e =
  let path = Filename.concat dir e.e_file in
  if Filename.check_suffix e.e_file ".seg" then
    Segment.to_graph ~name:e.e_graph (Segment.read ~path ())
  else load_graph ~name:e.e_graph (read_file path)

let rec load_dir ~dir =
  let m = load_manifest ~dir in
  let repo = create () in
  match List.iter (fun e -> put repo (load_entry ~dir e)) m.m_entries with
  | () -> repo
  | exception (Sys_error _ as e) ->
    (* a save that swapped the manifest since it was read has removed
       this epoch's files: read the catalog the new manifest names *)
    let moved =
      try (load_manifest ~dir).m_epoch <> m.m_epoch
      with Manifest_error _ -> false
    in
    if moved then load_dir ~dir else raise e

(** Round-trip a graph through the DDL: the persisted form reloaded.
    Node identities change; names, edges and collections survive. *)
let reload g = load_graph ~name:(Graph.name g) (dump_graph g)
