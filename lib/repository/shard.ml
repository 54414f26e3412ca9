(* The sharded repository.  See shard.mli for the model.

   Publishing writes the new epoch's segments beside the old ones and
   then renames a fresh MANIFEST over the previous one — readers that
   already pinned a snapshot keep their segment set; new readers see
   the new epoch atomically.  The manifest is a line-oriented text
   file; string fields use OCaml lexical escaping (%S / Scanf %S), so
   arbitrary collection and source names round-trip. *)

open Sgraph

type spec = By_collection | By_family

let spec_name = function By_collection -> "collection" | By_family -> "family"

let spec_of_name = function
  | "collection" -> Some By_collection
  | "family" -> Some By_family
  | _ -> None

type config = { dir : string; cfg_spec : spec }

let is_word_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_'

let family_of_name n =
  let len = String.length n in
  match String.index_opt n '(' with
  | Some i when i > 0 && len > i + 1 && n.[len - 1] = ')' ->
    let f = String.sub n 0 i in
    if String.for_all is_word_char f then Some f else None
  | _ -> None

let shard_key spec ~primary o =
  let coll () = primary o in
  let fam () = family_of_name (Oid.name o) in
  let pick a b =
    match a () with
    | Some k -> k
    | None -> ( match b () with Some k -> k | None -> "rest")
  in
  match spec with
  | By_collection -> pick coll fam
  | By_family -> pick fam coll

let partition spec g =
  let primary = Oid.Tbl.create (max 16 (Graph.node_count g)) in
  List.iter
    (fun c ->
      List.iter
        (fun o ->
          if not (Oid.Tbl.mem primary o) then Oid.Tbl.add primary o c)
        (Graph.collection g c))
    (Graph.collections g);
  let key o = shard_key spec ~primary:(Oid.Tbl.find_opt primary) o in
  let shards = Hashtbl.create 8 in
  let order = ref [] in
  let shard_of k =
    match Hashtbl.find_opt shards k with
    | Some sg -> sg
    | None ->
      let sg = Graph.Loader.create ~name:("shard:" ^ k) () in
      Hashtbl.add shards k sg;
      order := k :: !order;
      sg
  in
  let home = Oid.Tbl.create (max 16 (Graph.node_count g)) in
  Graph.iter_nodes
    (fun o ->
      let sg = shard_of (key o) in
      Oid.Tbl.replace home o sg;
      Graph.Loader.add_node sg o)
    g;
  (* in the union's insertion order, which a segment stores edges in *)
  Graph.iter_edges_inserted
    (fun o l t -> Graph.Loader.add_edge (Oid.Tbl.find home o) o l t)
    g;
  List.iter
    (fun c ->
      List.iter
        (fun o -> Graph.Loader.add_to_collection (Oid.Tbl.find home o) c o)
        (Graph.collection g c))
    (Graph.collections g);
  List.rev_map (fun k -> (k, Graph.Loader.finish (Hashtbl.find shards k))) !order

(* --- manifest --- *)

exception Manifest_error of string

type entry = {
  e_name : string;
  e_file : string;
  e_collections : string list;
  e_labels : string list;
  e_nodes : int;
  e_edges : int;
  e_bytes : int;
}

type manifest = {
  m_epoch : int;
  m_spec : spec;
  m_graph : string;
  m_sources : (string * int) list;
  m_entries : entry list;
}

let manifest_file = "MANIFEST"
let manifest_magic = "strudel-shard-manifest 1"

let write_manifest ~dir m =
  let b = Buffer.create 1024 in
  Printf.bprintf b "%s\n" manifest_magic;
  Printf.bprintf b "epoch %d\n" m.m_epoch;
  Printf.bprintf b "spec %s\n" (spec_name m.m_spec);
  Printf.bprintf b "graph %S\n" m.m_graph;
  List.iter (fun (s, v) -> Printf.bprintf b "source %S %d\n" s v) m.m_sources;
  List.iter
    (fun e ->
      Printf.bprintf b "shard %S %S %d %d %d\n" e.e_name e.e_file e.e_nodes
        e.e_edges e.e_bytes;
      List.iter (fun c -> Printf.bprintf b "c %S\n" c) e.e_collections;
      List.iter (fun l -> Printf.bprintf b "l %S\n" l) e.e_labels)
    m.m_entries;
  Segment.write_file
    ~path:(Filename.concat dir manifest_file)
    (Buffer.contents b)

let load_manifest ~dir =
  let path = Filename.concat dir manifest_file in
  if not (Sys.file_exists path) then
    raise (Manifest_error ("no manifest at " ^ path));
  let ic = open_in_bin path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  let fail lnum msg =
    raise (Manifest_error (Printf.sprintf "%s:%d: %s" path lnum msg))
  in
  (match lines with
   | first :: _ when first = manifest_magic -> ()
   | _ -> fail 1 "bad manifest magic");
  let epoch = ref 0 in
  let spec = ref By_collection in
  let graph = ref "mediated" in
  let sources = ref [] in
  let entries = ref [] in
  (* current entry under construction, with reversed lists *)
  let cur = ref None in
  let flush_cur () =
    match !cur with
    | None -> ()
    | Some (e, colls, labs) ->
      entries :=
        { e with
          e_collections = List.rev !colls;
          e_labels = List.rev !labs;
        }
        :: !entries;
      cur := None
  in
  List.iteri
    (fun i line ->
      let lnum = i + 1 in
      if lnum = 1 || line = "" then ()
      else
        let scan fmt k =
          try Scanf.sscanf line fmt k
          with Scanf.Scan_failure m | Failure m -> fail lnum m
        in
        match String.index_opt line ' ' with
        | None -> fail lnum "malformed line"
        | Some sp -> (
          match String.sub line 0 sp with
          | "epoch" -> scan "epoch %d" (fun v -> epoch := v)
          | "spec" ->
            scan "spec %s" (fun s ->
                match spec_of_name s with
                | Some v -> spec := v
                | None -> fail lnum ("unknown spec " ^ s))
          | "graph" -> scan "graph %S" (fun s -> graph := s)
          | "source" ->
            scan "source %S %d" (fun s v -> sources := (s, v) :: !sources)
          | "shard" ->
            flush_cur ();
            scan "shard %S %S %d %d %d" (fun name file nodes edges bytes ->
                cur :=
                  Some
                    ( {
                        e_name = name;
                        e_file = file;
                        e_collections = [];
                        e_labels = [];
                        e_nodes = nodes;
                        e_edges = edges;
                        e_bytes = bytes;
                      },
                      ref [],
                      ref [] ))
          | "c" -> (
            match !cur with
            | None -> fail lnum "collection line outside a shard"
            | Some (_, colls, _) -> scan "c %S" (fun c -> colls := c :: !colls))
          | "l" -> (
            match !cur with
            | None -> fail lnum "label line outside a shard"
            | Some (_, _, labs) -> scan "l %S" (fun l -> labs := l :: !labs))
          | kw -> fail lnum ("unknown keyword " ^ kw)))
    lines;
  flush_cur ();
  {
    m_epoch = !epoch;
    m_spec = !spec;
    m_graph = !graph;
    m_sources = List.rev !sources;
    m_entries = List.rev !entries;
  }

let pp_manifest ppf m =
  Fmt.pf ppf "@[<v>shard repository: graph %S  epoch %d  spec %s" m.m_graph
    m.m_epoch (spec_name m.m_spec);
  List.iter
    (fun (s, v) -> Fmt.pf ppf "@,source %-16s version %d" s v)
    m.m_sources;
  List.iter
    (fun e ->
      Fmt.pf ppf "@,shard %-16s %s  nodes=%d edges=%d bytes=%d" e.e_name
        e.e_file e.e_nodes e.e_edges e.e_bytes;
      if e.e_collections <> [] then
        Fmt.pf ppf "@,  collections: %s" (String.concat ", " e.e_collections))
    m.m_entries;
  Fmt.pf ppf "@]"

(* --- snapshots --- *)

type snapshot = { sn_epoch : int; sn_manifest : manifest; sn_union : Graph.t }

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let sanitize used key =
  let base =
    String.map (fun c -> if is_word_char c || c = '-' then c else '_') key
  in
  let base = if base = "" then "shard" else base in
  let rec pick n =
    let cand = if n = 0 then base else Printf.sprintf "%s_%d" base n in
    if Hashtbl.mem used cand then pick (n + 1)
    else begin
      Hashtbl.add used cand ();
      cand
    end
  in
  pick 0

let publish config ~epoch ?(sources = []) g =
  mkdir_p config.dir;
  let whole = Segment.whole g in
  let used = Hashtbl.create 8 in
  let entries =
    List.map
      (fun (key, sg) ->
        let file = Printf.sprintf "%s.%d.seg" (sanitize used key) epoch in
        let bytes =
          Segment.write
            ~path:(Filename.concat config.dir file)
            ~epoch
            ~meta:[ ("shard", key); ("union", Graph.name g) ]
            ~whole sg
        in
        {
          e_name = key;
          e_file = file;
          e_collections = Graph.collections sg;
          e_labels = Graph.labels sg;
          e_nodes = Graph.node_count sg;
          e_edges = Graph.edge_count sg;
          e_bytes = bytes;
        })
      (partition config.cfg_spec g)
  in
  let manifest =
    {
      m_epoch = epoch;
      m_spec = config.cfg_spec;
      m_graph = Graph.name g;
      m_sources = sources;
      m_entries = entries;
    }
  in
  write_manifest ~dir:config.dir manifest;
  { sn_epoch = epoch; sn_manifest = manifest; sn_union = g }

let open_dir ~dir () =
  let m = load_manifest ~dir in
  let segs =
    List.map
      (fun e -> Segment.read ~path:(Filename.concat dir e.e_file) ())
      m.m_entries
  in
  {
    sn_epoch = m.m_epoch;
    sn_manifest = m;
    sn_union = Segment.to_graph ~name:m.m_graph segs;
  }
