(* The repository (§2.2): the catalog; its one directory format, a
   MANIFEST naming one file per graph (save, load, the epoch swap, a
   failed save, refused old inputs); the segment codec with its
   truncation and corruption fuzz surfacing [Segment.Corrupt] byte
   offsets, and segment bytes pinned for the bundled sites' data; a
   loaded catalog answering StruQL queries and building the five
   example sites byte-identically to the graph it was saved from (fixed
   cases and a random differential); a parallel warehouse refresh
   integrating what a sequential one does, and snapshot isolation under
   a refresh running concurrently with a pinned reader; query_repo. *)

open Sgraph

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let tmp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let files dir = List.sort compare (Array.to_list (Sys.readdir dir))

let read_path path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_path path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Byte-identity oracle: a segment serializes nodes, edges (in
   insertion order, which every edge index keeps) and collection
   entries in iteration order, so equal encodings mean equal graphs in
   those orders. *)
let bytes_of g = Repository.Segment.encode g

let catalog_of graphs =
  let r = Repository.Store.create () in
  List.iter (Repository.Store.put r) graphs;
  r

(* Save [g] as the one graph of a fresh repository and load it cold. *)
let cold_load g =
  let dir = tmp_dir "strudelrepo" in
  Repository.Store.save_dir ~format:`Segment (catalog_of [ g ]) ~dir;
  let cold = Repository.Store.load_dir ~dir in
  rm_rf dir;
  Repository.Store.get cold (Graph.name g)

(* What [explain-analyze --shards] runs over: the loaded catalog's
   union. *)
let catalog_union r =
  Graph.union ~name:"repository"
    (List.rev_map (Repository.Store.get r) (Repository.Store.names r))

(* ---- random inputs ---- *)

let data_gen =
  let open QCheck.Gen in
  let* n = int_range 2 8 in
  let* edges =
    list_size (int_range 0 16)
      (triple (int_bound (n - 1))
         (oneofl [ "a"; "b" ])
         (oneof
            [ map (fun i -> `I i) (int_bound 3);
              map (fun j -> `N j) (int_bound (n - 1)) ]))
  in
  let* cs = list_size (int_range 0 n) (int_bound (n - 1)) in
  let* ds = list_size (int_range 0 n) (int_bound (n - 1)) in
  return (n, edges, cs, ds)

let build_data (n, edges, cs, ds) =
  let g = Graph.create ~name:"data" () in
  let nodes =
    Array.init n (fun i -> Graph.new_node g (Printf.sprintf "n%d" i))
  in
  List.iter
    (fun (a, l, tgt) ->
      match tgt with
      | `I v -> Graph.add_edge g nodes.(a) l (Graph.V (Value.Int v))
      | `N j -> Graph.add_edge g nodes.(a) l (Graph.N nodes.(j)))
    edges;
  List.iter (fun i -> Graph.add_to_collection g "C" nodes.(i)) cs;
  List.iter (fun i -> Graph.add_to_collection g "D" nodes.(i)) ds;
  g

let print_data (n, edges, cs, ds) =
  Printf.sprintf "n=%d edges=[%s] C=[%s] D=[%s]" n
    (String.concat ";"
       (List.map
          (fun (a, l, tgt) ->
            match tgt with
            | `I v -> Printf.sprintf "%d-%s->i%d" a l v
            | `N j -> Printf.sprintf "%d-%s->n%d" a l j)
          edges))
    (String.concat ";" (List.map string_of_int cs))
    (String.concat ";" (List.map string_of_int ds))

let fixed_spec =
  ( 6,
    [ (0, "a", `N 1); (1, "b", `N 2); (0, "a", `I 1); (2, "a", `I 0);
      (3, "b", `N 0); (4, "a", `N 5); (5, "b", `I 3) ],
    [ 0; 2; 3 ],
    [ 1; 4; 5 ] )

(* Full queries: collection scans, joins across collections,
   multi-block, nested, negation, a path condition, and a driving edge
   scan over every node. *)
let query_pool =
  [
    {|INPUT D { WHERE C(x), x -> l -> v CREATE P(x) LINK P(x) -> l -> v COLLECT Ps(P(x)) } OUTPUT S|};
    {|INPUT D { WHERE C(x), x -> "a" -> y CREATE P(x) LINK P(x) -> "hit" -> y COLLECT Ps(P(x)) } OUTPUT S|};
    {|INPUT D
{ WHERE C(x) CREATE P(x) COLLECT Ps(P(x)) }
{ WHERE D(y) CREATE Q(y) LINK Q(y) -> "of" -> y COLLECT Qs(Q(y)) }
OUTPUT S|};
    {|INPUT D
{ WHERE C(x) CREATE P(x) COLLECT Ps(P(x))
  { WHERE x -> "a" -> v CREATE P(x) LINK P(x) -> "val" -> v } }
OUTPUT S|};
    {|INPUT D { WHERE C(x), not(x -> "b" -> w) CREATE P(x) COLLECT Ps(P(x)) } OUTPUT S|};
    {|INPUT D { WHERE C(x), x -> "a"* -> y CREATE P(x) LINK P(x) -> "reach" -> y COLLECT Ps(P(x)) } OUTPUT S|};
    {|INPUT D { WHERE x -> "a" -> y CREATE E(x) LINK E(x) -> "to" -> y COLLECT Es(E(x)) } OUTPUT S|};
  ]

(* What explain-analyze reports, less the clock. *)
let profile_summary g q =
  let _out, p = Struql.Exec.run_with_profile g q in
  ( ( p.Struql.Exec.prf_rows,
      p.Struql.Exec.prf_peak_live,
      Struql.Exec.profile_steps p,
      Struql.Exec.profile_rows_out p ),
    List.map
      (fun b -> (b.Struql.Exec.bpr_path, b.Struql.Exec.bpr_rows))
      p.Struql.Exec.prf_blocks )


(* The query's output over the source graph and over the graph its
   repository loads. *)
let differential (spec, qi) =
  let g = build_data spec in
  let q = Struql.Parser.parse (List.nth query_pool qi) in
  bytes_of (Struql.Exec.run g q) = bytes_of (Struql.Exec.run (cold_load g) q)

(* ---- example sites ---- *)

let site_pages (built : Strudel.Site.built) =
  List.map
    (fun (p : Template.Generator.page) ->
      (p.Template.Generator.url, p.Template.Generator.html))
    built.Strudel.Site.site.Template.Generator.pages

let site_case name def data =
  t (Printf.sprintf "site %s: build over the repository byte-identical" name)
    (fun () ->
      let plain = Strudel.Site.build ~data def in
      let from_repo = Strudel.Site.build ~data:(cold_load data) def in
      check_bool "pages identical" true
        (site_pages plain = site_pages from_repo);
      check_string "site graph identical"
        (bytes_of plain.Strudel.Site.site_graph)
        (bytes_of from_repo.Strudel.Site.site_graph))

(* ---- warehouse helpers ---- *)

let item_graph ~name ~k n =
  let g = Graph.create ~name () in
  for i = 1 to n do
    let o = Graph.new_node g (Printf.sprintf "%s%d" name i) in
    Graph.add_to_collection g "Items" o;
    Graph.add_edge g o "v" (Graph.V (Value.Int k))
  done;
  g

let copy_items source =
  Mediator.Gav.copy_collection ~source ~collection:"Items" ()

let catalog_tests =
  [
    t "put/get/names" (fun () ->
        let r = Repository.Store.create () in
        let g = fst (Ddl.parse ~graph_name:"g1" "object a { x 1 }") in
        Repository.Store.put r g;
        check_bool "mem" true (Repository.Store.mem r "g1");
        check_int "1 graph" 1 (List.length (Repository.Store.names r));
        check_bool "get" true (Repository.Store.get r "g1" == g));
    t "put replaces same name" (fun () ->
        let r = Repository.Store.create () in
        Repository.Store.put r (fst (Ddl.parse ~graph_name:"g" "object a {}"));
        Repository.Store.put r
          (fst (Ddl.parse ~graph_name:"g" "object a {} object b {}"));
        check_int "1 name" 1 (List.length (Repository.Store.names r));
        check_int "2 nodes" 2 (Graph.node_count (Repository.Store.get r "g")));
    t "get missing raises" (fun () ->
        let r = Repository.Store.create () in
        check_bool "raises" true
          (try ignore (Repository.Store.get r "nope"); false
           with Repository.Store.Not_found_graph _ -> true));
    t "remove" (fun () ->
        let r = Repository.Store.create () in
        Repository.Store.put r (fst (Ddl.parse ~graph_name:"g" "object a {}"));
        Repository.Store.remove r "g";
        check_bool "gone" false (Repository.Store.mem r "g"));
    t "reload roundtrip preserves structure" (fun () ->
        let g = fst (Ddl.parse ~graph_name:"g" Sites.Paper_example.data_ddl) in
        let g' = Repository.Store.reload g in
        check_int "nodes" (Graph.node_count g) (Graph.node_count g');
        check_int "edges" (Graph.edge_count g) (Graph.edge_count g');
        check_int "colls"
          (Graph.collection_size g "Publications")
          (Graph.collection_size g' "Publications"));
    t "reload rebuilds indexes" (fun () ->
        let g = fst (Ddl.parse ~graph_name:"g" Sites.Paper_example.data_ddl) in
        let g' = Repository.Store.reload g in
        check_int "label idx" (Graph.label_count g "author")
          (Graph.label_count g' "author");
        check_int "value idx"
          (List.length (Graph.value_index g (Value.Int 1997)))
          (List.length (Graph.value_index g' (Value.Int 1997))));
  ]

(* A catalog of two graphs whose contents depend on [k]. *)
let two_graphs k =
  catalog_of
    (List.map
       (fun name ->
         fst
           (Ddl.parse ~graph_name:name
              (Printf.sprintf "object a in C { k %d }" k)))
       [ "one"; "two" ])

let contents r =
  List.map
    (fun name ->
      (name, Repository.Store.dump_graph (Repository.Store.get r name)))
    (List.sort compare (Repository.Store.names r))

let refused_manifest what dir =
  match Repository.Store.load_dir ~dir with
  | exception Repository.Store.Manifest_error _ -> ()
  | _ -> Alcotest.failf "%s: expected Manifest_error" what

(* A shard segment and the manifest naming it, as the sharded
   repository of earlier versions published [object a in C { k 1 next
   &b }] and [object b in D { k 2 }] (partitioned by collection): its
   body starts with epoch 1 and numbering flag 1, at byte 19. *)
let shard_segment =
  "STRUDSEG\002H\223\192\244#\146\tF\233\001\001\003\005graph\007shard:C\005shard\001C\005union\005input\005\001a\001b\001k\004next\001C\002\000\000\001\001\002\000\000\002\003\002\000\000\003\b\001\001\004\001\000\000"

let shard_manifest =
  "strudel-shard-manifest 1\nepoch 1\nspec collection\ngraph \"input\"\nshard \"C\" \"C.1.seg\" 2 2 90\nc \"C\"\nl \"k\"\nl \"next\"\nshard \"D\" \"D.1.seg\" 1 1 76\nc \"D\"\nl \"k\"\n"

let directory_tests =
  [
    t "save_dir / load_dir" (fun () ->
        let dir = Filename.temp_file "strudel" "" in
        Sys.remove dir;
        let r = Repository.Store.create () in
        Repository.Store.put r (fst (Ddl.parse ~graph_name:"one" "object a { x 1 }"));
        Repository.Store.put r
          (fst (Ddl.parse ~graph_name:"two" "object b in C { y 2 }"));
        Repository.Store.save_dir r ~dir;
        let r' = Repository.Store.load_dir ~dir in
        check_int "2 graphs" 2 (List.length (Repository.Store.names r'));
        check_bool "catalog order" true
          (Repository.Store.names r' = Repository.Store.names r);
        check_int "collection survives" 1
          (Graph.collection_size (Repository.Store.get r' "two") "C");
        rm_rf dir);
    t "load_dir without a manifest raises Manifest_error" (fun () ->
        refused_manifest "missing directory" "/nonexistent/strudel";
        let dir = tmp_dir "strudelempty" in
        refused_manifest "empty directory" dir;
        (* the per-graph files of a directory saved without a manifest *)
        write_path (Filename.concat dir "one.ddl") "object a { x 1 }";
        refused_manifest "manifest-less directory" dir;
        rm_rf dir);
    t "save_dir/load_dir with the binary format" (fun () ->
        let dir = Filename.temp_file "strudelbin" "" in
        Sys.remove dir;
        let r = Repository.Store.create () in
        Repository.Store.put r
          (fst (Ddl.parse ~graph_name:"one" Sites.Paper_example.data_ddl));
        Repository.Store.save_dir ~format:`Segment r ~dir;
        check_bool "one segment and the manifest" true
          (files dir = [ "1.0.seg"; "MANIFEST" ]);
        let r' = Repository.Store.load_dir ~dir in
        check_int "reloaded" 2
          (Graph.collection_size
             (Repository.Store.get r' "one")
             "Publications");
        check_string "the segment holds the graph as saved"
          (bytes_of (Repository.Store.get r "one"))
          (bytes_of (Repository.Store.get r' "one"));
        rm_rf dir);
    t "a second save replaces the first, in both formats, leaving no \
       temporary"
      (fun () ->
        List.iter
          (fun format ->
            let dir = Filename.temp_file "strudelsave" "" in
            Sys.remove dir;
            Repository.Store.save_dir ~format (two_graphs 1) ~dir;
            Repository.Store.save_dir ~format (two_graphs 2) ~dir;
            let ext = match format with `Ddl -> "ddl" | `Segment -> "seg" in
            check_bool "loads the second catalog" true
              (contents (Repository.Store.load_dir ~dir)
               = contents (two_graphs 2));
            check_int "epoch 2" 2
              (Repository.Store.load_manifest ~dir).Repository.Store.m_epoch;
            check_bool "only the second epoch's files remain, no temporary"
              true
              (files dir = [ "2.0." ^ ext; "2.1." ^ ext; "MANIFEST" ]);
            rm_rf dir)
          [ `Ddl; `Segment ]);
    t "a save in the other format replaces the catalog; the previous \
       epoch's files are removed"
      (fun () ->
        let dir = Filename.temp_file "strudelformat" "" in
        Sys.remove dir;
        Repository.Store.save_dir ~format:`Segment (two_graphs 1) ~dir;
        Repository.Store.save_dir ~format:`Ddl (two_graphs 2) ~dir;
        check_bool "no segment remains" true
          (files dir = [ "2.0.ddl"; "2.1.ddl"; "MANIFEST" ]);
        check_bool "loads k 2" true
          (contents (Repository.Store.load_dir ~dir) = contents (two_graphs 2));
        Repository.Store.save_dir ~format:`Segment (two_graphs 3) ~dir;
        check_bool "and back" true
          (files dir = [ "3.0.seg"; "3.1.seg"; "MANIFEST" ]);
        check_bool "loads k 3" true
          (contents (Repository.Store.load_dir ~dir) = contents (two_graphs 3));
        rm_rf dir);
    t "graph names never become file names" (fun () ->
        let names = [ "a/b"; "../up"; "MANIFEST"; "x y"; "\"q\"\n" ] in
        let r =
          catalog_of
            (List.map
               (fun name -> fst (Ddl.parse ~graph_name:name "object a { x 1 }"))
               names)
        in
        List.iter
          (fun format ->
            let dir = tmp_dir "strudelnames" in
            Repository.Store.save_dir ~format r ~dir;
            check_int "one file per graph, and the manifest"
              (List.length names + 1)
              (List.length (files dir));
            check_bool "every name loads" true
              (contents (Repository.Store.load_dir ~dir) = contents r);
            rm_rf dir)
          [ `Ddl; `Segment ]);
    t "a save that fails before its manifest swap leaves the previous \
       catalog loadable, byte for byte"
      (fun () ->
        let dir = tmp_dir "strudelfail" in
        let first = two_graphs 1 in
        Repository.Store.save_dir ~format:`Segment first ~dir;
        let before = List.map (fun f -> (f, read_path (Filename.concat dir f))) (files dir) in
        (* the swap writes MANIFEST.tmp, which a directory blocks *)
        let blocker = Filename.concat dir "MANIFEST.tmp" in
        Sys.mkdir blocker 0o755;
        (match Repository.Store.save_dir ~format:`Segment (two_graphs 2) ~dir with
         | exception Sys_error _ -> ()
         | () -> Alcotest.fail "the save should fail at its swap");
        Sys.rmdir blocker;
        check_bool "the directory holds what it held" true
          (List.map (fun f -> (f, read_path (Filename.concat dir f))) (files dir)
           = before);
        let loaded = Repository.Store.load_dir ~dir in
        List.iter
          (fun name ->
            check_string name
              (bytes_of (Repository.Store.get first name))
              (bytes_of (Repository.Store.get loaded name)))
          [ "one"; "two" ];
        (* the next save takes the epoch the failed one would have *)
        Repository.Store.save_dir ~format:`Segment (two_graphs 2) ~dir;
        check_bool "then a save goes through" true
          (files dir = [ "2.0.seg"; "2.1.seg"; "MANIFEST" ]);
        rm_rf dir);
    t "a shard segment raises Corrupt at its numbering flag" (fun () ->
        match Repository.Segment.of_string shard_segment with
        | exception Repository.Segment.Corrupt (_, off) ->
          check_int "the flag's offset" 19 off
        | _ -> Alcotest.fail "a shard segment must not decode");
    t "a sharded repository's manifest raises Manifest_error" (fun () ->
        let dir = tmp_dir "strudelshard" in
        write_path (Filename.concat dir "MANIFEST") shard_manifest;
        write_path (Filename.concat dir "C.1.seg") shard_segment;
        refused_manifest "version-1 manifest" dir;
        (match Repository.Store.save_dir (two_graphs 1) ~dir with
         | exception Repository.Store.Manifest_error _ -> ()
         | () -> Alcotest.fail "a save over it must refuse too");
        check_bool "nothing written" true
          (files dir = [ "C.1.seg"; "MANIFEST" ]);
        rm_rf dir);
    t "segment bytes pinned for the bundled sites' data" (fun () ->
        List.iter
          (fun (name, g, digest) ->
            check_string name digest
              (Digest.to_hex (Digest.string (Repository.Segment.encode g))))
          [
            ("paper", Sites.Paper_example.data (), "c1252b1436343eeefef2ccfb5830ca10");
            ("homepage", Sites.Homepage.data (), "10eddd2bba9924a8a5be473ab312279d");
            ("cnn", Sites.Cnn.data (), "b44af82d4e024f1ffa7e75c010252082");
            ("rodin", Sites.Rodin.data (), "3f8e3614db4c0b199b54f1e2cec9b976");
            ( "org",
              Mediator.Warehouse.graph (snd (Sites.Org.data ())),
              "818783c23b6b30c1f9ffbcf256fafc6f" );
            ( "synth-1k",
              Sites.Scale.data ~items:1000 (),
              "02645c76d17ca7dc4bf7793fe034ae4b" );
          ]);
  ]

(* A random graph whose edge log is not node-major: the spec's edges in
   random source order, then some of them removed, each added back
   (last in the log) when its flag is set. *)
let removals_gen =
  QCheck.Gen.(
    pair data_gen (list_size (int_range 1 6) (pair (int_bound 15) bool)))

let print_removals (spec, removals) =
  Printf.sprintf "%s removed=[%s]" (print_data spec)
    (String.concat ";"
       (List.map
          (fun (k, back) -> Printf.sprintf "%d%s" k (if back then "+" else ""))
          removals))

let build_with_removals (((_, edges, _, _) as spec), removals) =
  let g = build_data spec in
  let node i = Option.get (Graph.find_node g (Printf.sprintf "n%d" i)) in
  List.iter
    (fun (k, back) ->
      match List.nth_opt edges k with
      | None -> ()
      | Some (a, l, tgt) ->
        let tgt =
          match tgt with
          | `I v -> Graph.V (Value.Int v)
          | `N j -> Graph.N (node j)
        in
        Graph.remove_edge g (node a) l tgt;
        if back then Graph.add_edge g (node a) l tgt)
    removals;
  g

(* A standalone segment's read-back lists every index as the saved
   graph does (labels and lists a removal emptied aside: the format
   does not store them), and answers the edge-scan query of
   [query_pool] as it does. *)
let read_backs_keep_order case =
  let g = build_with_removals case in
  let path = Filename.temp_file "strudelseg" ".seg" in
  let _n = Repository.Segment.write ~path g in
  let seg = Repository.Segment.to_graph (Repository.Segment.read ~path ()) in
  Sys.remove path;
  let shape g = List.filter (fun (_, l) -> l <> []) (Shape.of_graph g) in
  let q = Struql.Parser.parse (List.nth query_pool 6) in
  let answer g = Shape.of_graph (Struql.Exec.run g q) in
  shape seg = shape g && answer seg = answer g

let segment_tests =
  (* one canonical segment encoding, reused by the fuzz cases *)
  let segment_bytes () =
    let g = build_data fixed_spec in
    let path = Filename.temp_file "strudelseg" ".seg" in
    let _n = Repository.Segment.write ~path ~epoch:7 g in
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    Sys.remove path;
    s
  in
  (* the header: magic, version and body length (varints), checksum *)
  let header_len s =
    let rec varint_end i =
      if Char.code s.[i] land 0x80 = 0 then i + 1 else varint_end (i + 1)
    in
    varint_end (varint_end (String.length Repository.Segment.magic)) + 8
  in
  [
    t "write / read round-trip" (fun () ->
        let g = build_data fixed_spec in
        let path = Filename.temp_file "strudelseg" ".seg" in
        let written = Repository.Segment.write ~path ~epoch:7 g in
        let r = Repository.Segment.read ~path () in
        check_int "size" written (Repository.Segment.size_bytes r);
        check_int "epoch" 7 (Repository.Segment.epoch r);
        check_string "read materializes the graph" (bytes_of g)
          (bytes_of (Repository.Segment.to_graph r));
        check_bool "no temporary left" false (Sys.file_exists (path ^ ".tmp"));
        Sys.remove path);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random graphs round-trip through segments"
         ~count:60
         (QCheck.make ~print:print_data data_gen)
         (fun spec ->
           let g = build_data spec in
           let path = Filename.temp_file "strudelseg" ".seg" in
           let _n = Repository.Segment.write ~path g in
           let r = Repository.Segment.read ~path () in
           let ok = bytes_of (Repository.Segment.to_graph r) = bytes_of g in
           Sys.remove path;
           ok));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:
           "segment read-backs keep every index order (random graphs with \
            removals)"
         ~count:100
         (QCheck.make ~print:print_removals removals_gen)
         read_backs_keep_order);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"truncated segments raise Corrupt with an in-range offset"
         ~count:120
         (QCheck.make
            QCheck.Gen.(int_bound (String.length (segment_bytes ()) - 1)))
         (let s = segment_bytes () in
          fun len ->
            match Repository.Segment.of_string (String.sub s 0 len) with
            | exception Repository.Segment.Corrupt (_, off) ->
              off >= 0 && off <= String.length s
            | _ -> false));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"body bit flips raise Corrupt with an in-range offset"
         ~count:120
         (QCheck.make
            QCheck.Gen.(
              let s = segment_bytes () in
              int_range (header_len s) (String.length s - 1)))
         (let s = segment_bytes () in
          fun i ->
            let b = Bytes.of_string s in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5a));
            match Repository.Segment.of_string (Bytes.to_string b) with
            | exception Repository.Segment.Corrupt (_, off) ->
              off >= 0 && off <= String.length s
            | _ -> false));
    t "header corruption is detected or benign, never a crash" (fun () ->
        let s = segment_bytes () in
        for i = 0 to header_len s - 1 do
          let b = Bytes.of_string s in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
          match Repository.Segment.of_string (Bytes.to_string b) with
          | exception Repository.Segment.Corrupt (_, off) ->
            check_bool "offset in range" true
              (off >= 0 && off <= String.length s)
          | t ->
            (* a benign flip: the segment still reads back *)
            ignore (Repository.Segment.to_graph t)
        done);
  ]

let manifest_tests =
  [
    t "manifest round-trip: save_dir / load_dir" (fun () ->
        let dir = tmp_dir "strudelrepo" in
        let g = build_data fixed_spec in
        let empty = Graph.create ~name:"empty" () in
        Graph.declare_collection empty "None";
        let r = catalog_of [ g; empty ] in
        Repository.Store.save_dir ~format:`Segment ~sources:[ ("s", 0) ] r ~dir;
        let m = Repository.Store.load_manifest ~dir in
        check_int "epoch" 1 m.Repository.Store.m_epoch;
        check_bool "sources" true (m.Repository.Store.m_sources = [ ("s", 0) ]);
        check_bool "entries in catalog order" true
          (List.map
             (fun e -> (e.Repository.Store.e_graph, e.Repository.Store.e_file))
             m.Repository.Store.m_entries
           = [ ("data", "1.0.seg"); ("empty", "1.1.seg") ]);
        let e = List.hd m.Repository.Store.m_entries in
        check_int "nodes" (Graph.node_count g) e.Repository.Store.e_nodes;
        check_int "edges" (Graph.edge_count g) e.Repository.Store.e_edges;
        check_int "bytes" (String.length (bytes_of g)) e.Repository.Store.e_bytes;
        let cold = Repository.Store.load_dir ~dir in
        check_string "the graph loads byte-identically" (bytes_of g)
          (bytes_of (Repository.Store.get cold "data"));
        check_string "an empty collection survives" (bytes_of empty)
          (bytes_of (Repository.Store.get cold "empty"));
        rm_rf dir);
    t "manifest swap is atomic; pinned snapshots stay intact" (fun () ->
        let dir = tmp_dir "strudelrepo" in
        let g1 = build_data fixed_spec in
        let b1 = bytes_of g1 in
        Repository.Store.save_dir ~format:`Segment (catalog_of [ g1 ]) ~dir;
        let first = files dir in
        let pinned = Repository.Store.load_dir ~dir in
        let g2 = item_graph ~name:"data" ~k:9 4 in
        Repository.Store.save_dir ~format:`Segment ~sources:[ ("a", 3) ]
          (catalog_of [ g2 ]) ~dir;
        (* the pinned epoch-1 catalog is untouched by the swap *)
        check_string "pinned graph unchanged" b1
          (bytes_of (Repository.Store.get pinned "data"));
        (* a fresh reader sees epoch 2, in files epoch 1 never named *)
        let m = Repository.Store.load_manifest ~dir in
        check_int "current epoch" 2 m.Repository.Store.m_epoch;
        check_bool "no file of epoch 1 was reused" true
          (List.for_all
             (fun e -> not (List.mem e.Repository.Store.e_file first))
             m.Repository.Store.m_entries);
        check_string "current graph is the new one" (bytes_of g2)
          (bytes_of (Repository.Store.get (Repository.Store.load_dir ~dir) "data"));
        check_bool "sources recorded" true
          (m.Repository.Store.m_sources = [ ("a", 3) ]);
        rm_rf dir);
    t "a load during saves reads one epoch's catalog whole" (fun () ->
        (* each save's two graphs hold the same [k]; a load that finds
           a file of its manifest gone reads the newer manifest *)
        let dir = tmp_dir "strudelrace" in
        Repository.Store.save_dir ~format:`Segment (two_graphs 0) ~dir;
        let stop = Atomic.make false and saves = Atomic.make 0 in
        let writer =
          Domain.spawn (fun () ->
              while not (Atomic.get stop) do
                Repository.Store.save_dir ~format:`Segment
                  (two_graphs (Atomic.get saves + 1)) ~dir;
                Atomic.incr saves
              done)
        in
        (* on one core the writer may start late: load until it has
           saved a number of times too *)
        let loads = ref 0 and mixed = ref 0 in
        while !loads < 300 || Atomic.get saves < 50 do
          incr loads;
          match contents (Repository.Store.load_dir ~dir) with
          | [ (_, a); (_, b) ] when a = b -> ()
          | _ -> incr mixed
        done;
        Atomic.set stop true;
        Domain.join writer;
        rm_rf dir;
        check_int "no mixed or partial catalog" 0 !mixed);
    t "corrupt segment file surfaces Corrupt with a byte offset" (fun () ->
        let dir = tmp_dir "strudelrepo" in
        Repository.Store.save_dir ~format:`Segment
          (catalog_of [ build_data fixed_spec ]) ~dir;
        let path = Filename.concat dir "1.0.seg" in
        let b = Bytes.of_string (read_path path) in
        let len = Bytes.length b in
        Bytes.set b (len - 1)
          (Char.chr (Char.code (Bytes.get b (len - 1)) lxor 0x5a));
        write_path path (Bytes.to_string b);
        (match Repository.Store.load_dir ~dir with
         | exception Repository.Segment.Corrupt (_, off) ->
           check_bool "offset in range" true (off >= 0 && off <= len)
         | _ -> Alcotest.fail "corruption not detected");
        rm_rf dir);
  ]

let eval_tests =
  List.mapi
    (fun i _src ->
      t (Printf.sprintf "fixed differential %d" i) (fun () ->
          check_bool (Printf.sprintf "q%d" i) true (differential (fixed_spec, i))))
    query_pool
  @ [
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make
           ~name:
             "the loaded repository evaluates byte-identically to its \
              source (random graphs)"
           ~count:250
           (QCheck.make
              ~print:(fun (d, qi) ->
                Printf.sprintf "%s %s" (print_data d) (List.nth query_pool qi))
              QCheck.Gen.(pair data_gen (int_bound (List.length query_pool - 1))))
           differential);
      t "profile over the repository's union equals the source's" (fun () ->
          (* explain-analyze --shards plans and counts over the loaded
             catalog's union exactly as explain-analyze does over the
             data *)
          let g = build_data fixed_spec in
          let dir = tmp_dir "strudelrepo" in
          Repository.Store.save_dir ~format:`Segment (catalog_of [ g ]) ~dir;
          let union = catalog_union (Repository.Store.load_dir ~dir) in
          rm_rf dir;
          List.iteri
            (fun i src ->
              let q = Struql.Parser.parse src in
              check_bool
                (Printf.sprintf "q%d profile" i)
                true
                (profile_summary union q = profile_summary g q))
            query_pool);
      t "kernel counters reset" (fun () ->
          let g = build_data fixed_spec in
          let q = Struql.Parser.parse (List.nth query_pool 5) in
          ignore (Struql.Exec.run g q);
          (* the path condition ran the kernel at least once *)
          check_bool "kernel ran" true
            ((Graph.kernel_counters g).Graph.misses >= 1);
          Graph.reset_kernel_counters g;
          let k = Graph.kernel_counters g in
          check_int "hits zero" 0 k.Graph.hits;
          check_int "misses zero" 0 k.Graph.misses);
    ]

let warehouse_tests =
  [
    t "parallel refresh integrates identically to sequential" (fun () ->
        let names = [ "a"; "b"; "c"; "d" ] in
        let mk_sources k =
          List.map
            (fun n ->
              Mediator.Source.of_graph ~name:n (item_graph ~name:n ~k 4))
            names
        in
        let mappings = List.map copy_items names in
        let w1 =
          Mediator.Warehouse.create ~sources:(mk_sources 1) ~mappings ()
        in
        let s4 = mk_sources 1 in
        let w4 =
          Mediator.Warehouse.create ~jobs:4 ~sources:s4 ~mappings ()
        in
        check_string "initial integration identical"
          (bytes_of (Mediator.Warehouse.graph w1))
          (bytes_of (Mediator.Warehouse.graph w4));
        (* all sources change; a 4-domain refresh must integrate the
           same graph and report every declared source *)
        List.iter
          (fun s ->
            let n = Mediator.Source.name s in
            Mediator.Source.update s (fun () -> item_graph ~name:n ~k:2 4))
          s4;
        check_bool "refresh happened" true
          (Mediator.Warehouse.refresh ~jobs:4 w4);
        let stats = Mediator.Warehouse.last_refresh w4 in
        check_int "stats cover all declared sources" (List.length names)
          (List.length stats);
        check_bool "declared order" true
          (List.map (fun s -> s.Mediator.Warehouse.ss_source) stats = names);
        check_bool "all changed" true
          (List.for_all
             (fun s -> s.Mediator.Warehouse.ss_outcome = Mediator.Warehouse.Changed)
             stats);
        let w1' =
          Mediator.Warehouse.create ~sources:(mk_sources 2) ~mappings ()
        in
        check_string "parallel refresh integrates identically"
          (bytes_of (Mediator.Warehouse.graph w1'))
          (bytes_of (Mediator.Warehouse.graph w4)));
    t "quarantined source appears in refresh stats" (fun () ->
        let fault = Fault.ctx () in
        let good =
          Mediator.Source.of_graph ~name:"ok" (item_graph ~name:"ok" ~k:1 2)
        in
        let bad =
          Mediator.Source.make
            ~policy:(Fault.Policy.skip_source ~retry:Fault.Policy.no_retry ())
            ~name:"bad"
            (fun () -> failwith "db down")
        in
        let w =
          Mediator.Warehouse.create ~fault ~sources:[ good; bad ]
            ~mappings:[ copy_items "ok"; copy_items "bad" ]
            ()
        in
        check_int "good items integrated" 2
          (Graph.collection_size (Mediator.Warehouse.graph w) "Items");
        let stats = Mediator.Warehouse.last_refresh w in
        let stat n =
          List.find (fun s -> s.Mediator.Warehouse.ss_source = n) stats
        in
        check_bool "ok changed" true
          ((stat "ok").Mediator.Warehouse.ss_outcome
           = Mediator.Warehouse.Changed);
        (match (stat "bad").Mediator.Warehouse.ss_outcome with
         | Mediator.Warehouse.Quarantined reason ->
           check_bool "reason names the failure" true
             (let n = String.length "db down" in
              let h = String.length reason in
              let rec find i =
                i + n <= h
                && (String.sub reason i n = "db down" || find (i + 1))
              in
              find 0)
         | _ -> Alcotest.fail "bad source not quarantined"));
    t "refresh during build: pinned views never mix source versions"
      (fun () ->
        let sa =
          Mediator.Source.of_graph ~name:"a" (item_graph ~name:"a" ~k:0 3)
        in
        let sb =
          Mediator.Source.of_graph ~name:"b" (item_graph ~name:"b" ~k:0 3)
        in
        let w =
          Mediator.Warehouse.create ~sources:[ sa; sb ]
            ~mappings:[ copy_items "a"; copy_items "b" ]
            ()
        in
        let violations = Atomic.make 0 in
        let stop = Atomic.make false in
        let observed = Atomic.make 0 in
        (* the "site build": repeatedly pin a view and read every item's
           version marker — a consistent snapshot shows one marker value
           across both sources, always on all 6 items *)
        let reader =
          Domain.spawn (fun () ->
              let checks = ref 0 in
              while not (Atomic.get stop) do
                let v = Mediator.Warehouse.pin w in
                let g = Mediator.Warehouse.view_graph v in
                let ks =
                  List.filter_map
                    (fun o ->
                      match Graph.attr_value g o "v" with
                      | Some (Value.Int k) -> Some k
                      | _ -> None)
                    (Graph.collection g "Items")
                in
                incr checks;
                Atomic.incr observed;
                (match ks with
                 | k0 :: rest
                   when List.length ks = 6
                        && List.for_all (Int.equal k0) rest ->
                   ()
                 | _ -> Atomic.incr violations)
              done;
              !checks)
        in
        for k = 1 to 30 do
          Mediator.Source.update sa (fun () -> item_graph ~name:"a" ~k 3);
          Mediator.Source.update sb (fun () -> item_graph ~name:"b" ~k 3);
          ignore (Mediator.Warehouse.refresh w)
        done;
        (* on a loaded single-core machine the reader domain may not
           have been scheduled yet: give it a beat before stopping *)
        while Atomic.get observed = 0 do
          Domain.cpu_relax ()
        done;
        Atomic.set stop true;
        let checks = Domain.join reader in
        check_bool "reader observed views" true (checks > 0);
        check_int "no mixed snapshot observed" 0 (Atomic.get violations);
        check_int "all refreshes applied" 31 (Mediator.Warehouse.refresh_count w));
  ]

let site_tests =
  [
    site_case "paper" Sites.Paper_example.definition (Sites.Paper_example.data ());
    site_case "homepage" Sites.Homepage.definition
      (Sites.Homepage.data ~entries:5 ());
    site_case "cnn" Sites.Cnn.definition (Sites.Cnn.data ~articles:6 ());
    site_case "rodin" Sites.Rodin.definition (Sites.Rodin.data ());
    site_case "org" Sites.Org.definition
      (let _sources, w =
         Sites.Org.data ~seed:11 ~people:8 ~orgs:2 ~projects:3 ~pubs:4 ()
       in
       Mediator.Warehouse.graph w);
  ]

let query_repo_tests =
  [
    t "query_repo resolves INPUT names and stores OUTPUT" (fun () ->
        let r = Repository.Store.create () in
        Repository.Store.put r
          (fst (Ddl.parse ~graph_name:"A" "object a1 in As { k 1 }\nobject a2 in As { k 2 }"));
        Repository.Store.put r
          (fst (Ddl.parse ~graph_name:"B" "object b1 in Bs { k 2 }"));
        let out =
          Strudel.Api.query_repo r
            {|INPUT A, B
              WHERE As(x), x -> "k" -> v, Bs(y), y -> "k" -> v
              CREATE J(x, y) LINK J(x, y) -> "key" -> v
              COLLECT Joined(J(x, y))
              OUTPUT JOINED|}
        in
        check_int "one join row" 1 (Graph.collection_size out "Joined");
        check_bool "stored under OUTPUT name" true
          (Repository.Store.mem r "JOINED");
        (* composition: a second query reads the stored result *)
        let out2 =
          Strudel.Api.query_repo r
            {|INPUT JOINED
              WHERE Joined(j) CREATE F(j) COLLECT Fs(F(j)) OUTPUT FINAL|}
        in
        check_int "chained" 1 (Graph.collection_size out2 "Fs"));
    t "query_repo over two graphs keeps each one's index order" (fun () ->
        let r = Repository.Store.create () in
        let a = Test_fault.acb_graph "A" in
        Repository.Store.put r a;
        Repository.Store.put r
          (fst (Ddl.parse ~graph_name:"B" "object b1 in Bs { k 2 }"));
        let q =
          {|INPUT A, B
            WHERE x -> "t" -> v
            CREATE P(x) LINK P(x) -> "v" -> v
            COLLECT Ps(P(x))
            OUTPUT TS|}
        in
        (* B holds no [t] edge: the union scans A's extent, a, c, b *)
        check_bool "the union's scan in A's order" true
          (Shape.of_graph (Strudel.Api.query_repo r q)
          = Shape.of_graph (Struql.Exec.run a (Struql.Parser.parse q))));
    t "query_repo with unknown input raises" (fun () ->
        let r = Repository.Store.create () in
        check_bool "raises" true
          (try
             ignore (Strudel.Api.query_repo r "INPUT NOPE WHERE C(x) COLLECT O(x) OUTPUT o");
             false
           with Repository.Store.Not_found_graph _ -> true));
  ]

let suite =
  catalog_tests @ directory_tests @ segment_tests @ manifest_tests
  @ eval_tests @ site_tests @ warehouse_tests @ query_repo_tests
