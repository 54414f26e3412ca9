(* The sharded repository as a storage format: partition coverage,
   segment round-trips with truncation/corruption fuzz surfacing
   [Segment.Corrupt] byte offsets, manifest publish / open_dir, a cold
   repository's union graph answering StruQL queries and building sites
   byte-identically to the graph it was published from (fixed cases,
   random differential, and all five example sites, under both
   partition specs), a parallel warehouse refresh integrating what a
   sequential one does, and snapshot isolation under a refresh running
   concurrently with a pinned reader. *)

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

(* Byte-identity oracle: a standalone segment serializes nodes, edges
   (in insertion order, which every edge index keeps) and collection
   entries in iteration order, so equal encodings mean equal graphs in
   those orders. *)
let bytes_of g = Repository.Segment.encode g

let specs = [ Repository.Shard.By_collection; Repository.Shard.By_family ]

(* Publish [g] to a fresh repository and open it cold: the union graph
   that [explain-analyze --shards] queries. *)
let cold_union ?(spec = Repository.Shard.By_collection) g =
  let dir = tmp_dir "strudelshard" in
  ignore
    (Repository.Shard.publish
       { Repository.Shard.dir; cfg_spec = spec }
       ~epoch:1 g);
  let cold = Repository.Shard.open_dir ~dir () in
  rm_rf dir;
  cold.Repository.Shard.sn_union

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

(* The query's output over the source graph and over its repository's
   cold union, published under the given partition spec. *)
let differential (spec, qi, by_family) =
  let g = build_data spec in
  let pspec =
    if by_family then Repository.Shard.By_family
    else Repository.Shard.By_collection
  in
  let cold = cold_union ~spec:pspec g in
  let q = Struql.Parser.parse (List.nth query_pool qi) in
  bytes_of (Struql.Exec.run g q) = bytes_of (Struql.Exec.run cold q)

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

(* ---- example sites ---- *)

let site_pages (built : Strudel.Site.built) =
  List.map
    (fun (p : Template.Generator.page) ->
      (p.Template.Generator.url, p.Template.Generator.html))
    built.Strudel.Site.site.Template.Generator.pages

let site_case name def data =
  t (Printf.sprintf "site %s: build over the repository byte-identical" name)
    (fun () ->
      let colds =
        List.map (fun spec -> (spec, cold_union ~spec data)) specs
      in
      let plain = Strudel.Site.build ~data def in
      List.iter
        (fun (spec, cold) ->
          let from_repo = Strudel.Site.build ~data:cold def in
          let what = Repository.Shard.spec_name spec in
          check_bool
            (Printf.sprintf "pages identical (%s)" what)
            true
            (site_pages plain = site_pages from_repo);
          check_string
            (Printf.sprintf "site graph identical (%s)" what)
            (bytes_of plain.Strudel.Site.site_graph)
            (bytes_of from_repo.Strudel.Site.site_graph))
        colds)

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

(* ---- the suite ---- *)

let partition_tests =
  [
    t "partition covers the union exactly" (fun () ->
        let g = build_data fixed_spec in
        List.iter
          (fun spec ->
            let parts = Repository.Shard.partition spec g in
            (* edge and member conservation: everything appears in
               exactly one shard *)
            let degree sg =
              List.fold_left
                (fun acc o -> acc + List.length (Graph.out_edges sg o))
                0 (Graph.nodes sg)
            in
            let total_edges =
              List.fold_left (fun acc (_, sg) -> acc + degree sg) 0 parts
            in
            check_int "edges conserved" (degree g) total_edges;
            let members c =
              List.fold_left
                (fun acc (_, sg) -> acc + Graph.collection_size sg c)
                0 parts
            in
            check_int "C members conserved" (Graph.collection_size g "C")
              (members "C");
            check_int "D members conserved" (Graph.collection_size g "D")
              (members "D");
            (* shard graphs share the union's oids *)
            List.iter
              (fun (_, sg) ->
                List.iter
                  (fun c ->
                    List.iter
                      (fun o ->
                        check_bool "member oid is a union oid" true
                          (List.exists (Oid.equal o) (Graph.nodes g)))
                      (Graph.collection sg c))
                  (Graph.collections sg))
              parts)
          specs)
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
  let seg = Repository.Segment.to_graph [ Repository.Segment.read ~path () ] in
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
          (bytes_of (Repository.Segment.to_graph [ r ]));
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
           let ok = bytes_of (Repository.Segment.to_graph [ r ]) = bytes_of g in
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
            ignore (Repository.Segment.to_graph [ t ])
        done);
  ]

let manifest_tests =
  [
    t "publish / open_dir round-trip" (fun () ->
        let dir = tmp_dir "strudelshard" in
        let g = build_data fixed_spec in
        let snap =
          Repository.Shard.publish
            { Repository.Shard.dir; cfg_spec = Repository.Shard.By_collection }
            ~epoch:1 ~sources:[ ("s", 0) ] g
        in
        check_bool "live snapshot shares the union" true (snap.Repository.Shard.sn_union == g);
        let cold = Repository.Shard.open_dir ~dir () in
        check_int "epoch" 1 cold.Repository.Shard.sn_epoch;
        check_string "union re-assembles byte-identically" (bytes_of g)
          (bytes_of cold.Repository.Shard.sn_union);
        let entries sn = sn.Repository.Shard.sn_manifest.Repository.Shard.m_entries in
        check_int "same shard count"
          (List.length (entries snap))
          (List.length (entries cold));
        List.iter2
          (fun (a : Repository.Shard.entry) (b : Repository.Shard.entry) ->
            check_string "shard name" a.Repository.Shard.e_name
              b.Repository.Shard.e_name;
            check_int "shard edges" a.Repository.Shard.e_edges
              b.Repository.Shard.e_edges)
          (entries snap) (entries cold);
        (* manifest names the collections each shard is home to *)
        let m = Repository.Shard.load_manifest ~dir in
        check_bool "some shard is home to C" true
          (List.exists
             (fun (e : Repository.Shard.entry) ->
               List.mem "C" e.Repository.Shard.e_collections)
             m.Repository.Shard.m_entries);
        rm_rf dir);
    t "manifest swap is atomic; pinned snapshots stay intact" (fun () ->
        let dir = tmp_dir "strudelshard" in
        let cfg =
          { Repository.Shard.dir; cfg_spec = Repository.Shard.By_collection }
        in
        let g1 = build_data fixed_spec in
        let b1 = bytes_of g1 in
        ignore (Repository.Shard.publish cfg ~epoch:1 g1);
        let pinned = Repository.Shard.open_dir ~dir () in
        let g2 = item_graph ~name:"data" ~k:9 4 in
        ignore (Repository.Shard.publish cfg ~epoch:2 ~sources:[ ("a", 3) ] g2);
        (* the pinned epoch-1 snapshot is untouched by the swap *)
        check_int "pinned epoch" 1 pinned.Repository.Shard.sn_epoch;
        check_string "pinned union unchanged" b1
          (bytes_of pinned.Repository.Shard.sn_union);
        (* a fresh reader sees epoch 2 *)
        let now = Repository.Shard.open_dir ~dir () in
        check_int "current epoch" 2 now.Repository.Shard.sn_epoch;
        check_string "current union is the new graph" (bytes_of g2)
          (bytes_of now.Repository.Shard.sn_union);
        check_bool "sources recorded" true
          ((Repository.Shard.load_manifest ~dir).Repository.Shard.m_sources
           = [ ("a", 3) ]);
        rm_rf dir);
    t "corrupt segment file surfaces Corrupt with a byte offset" (fun () ->
        let dir = tmp_dir "strudelshard" in
        let cfg =
          { Repository.Shard.dir; cfg_spec = Repository.Shard.By_collection }
        in
        ignore (Repository.Shard.publish cfg ~epoch:1 (build_data fixed_spec));
        let seg =
          List.find
            (fun f -> Filename.check_suffix f ".seg")
            (Array.to_list (Sys.readdir dir))
        in
        let path = Filename.concat dir seg in
        let ic = open_in_bin path in
        let len = in_channel_length ic in
        let b = Bytes.of_string (really_input_string ic len) in
        close_in ic;
        Bytes.set b (len - 1)
          (Char.chr (Char.code (Bytes.get b (len - 1)) lxor 0x5a));
        let oc = open_out_bin path in
        output_bytes oc b;
        close_out oc;
        (match Repository.Shard.open_dir ~dir () with
         | exception Repository.Segment.Corrupt (_, off) ->
           check_bool "offset in range" true (off >= 0 && off <= len)
         | _ -> Alcotest.fail "corruption not detected");
        rm_rf dir);
  ]

let eval_tests =
  List.mapi
    (fun i _src ->
      t (Printf.sprintf "fixed differential %d" i) (fun () ->
          List.iter
            (fun by_family ->
              check_bool
                (Printf.sprintf "q%d spec=%s" i
                   (if by_family then "family" else "collection"))
                true
                (differential (fixed_spec, i, by_family)))
            [ false; true ]))
    query_pool
  @ [
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make
           ~name:
             "the repository's union evaluates byte-identically to its \
              source (random graphs, both partition specs)"
           ~count:250
           (QCheck.make
              ~print:(fun (d, qi, fam) ->
                Printf.sprintf "%s %s [spec=%s]" (print_data d)
                  (List.nth query_pool qi)
                  (if fam then "family" else "collection"))
              QCheck.Gen.(
                triple data_gen (int_bound (List.length query_pool - 1)) bool))
           differential);
      t "profile over the repository's union equals the source's" (fun () ->
          (* explain-analyze --shards plans and counts over the cold union
             exactly as explain-analyze does over the data *)
          let g = build_data fixed_spec in
          let colds = List.map (fun spec -> cold_union ~spec g) specs in
          List.iteri
            (fun i src ->
              let q = Struql.Parser.parse src in
              let expect = profile_summary g q in
              List.iter
                (fun cold ->
                  check_bool
                    (Printf.sprintf "q%d profile" i)
                    true
                    (profile_summary cold q = expect))
                colds)
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

let suite =
  partition_tests @ segment_tests @ manifest_tests @ eval_tests @ site_tests
  @ warehouse_tests
