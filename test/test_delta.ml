(* Delta-StruQL: the differential engine (Struql.Dexec), the delta
   refresh (Warehouse.refresh_delta) and the watch loop (Serve.Watch)
   maintain a published site byte-identically to a cold full build —
   property-tested under random edit scripts, including
   collection-emptying removals and edits one and more hops past the
   driver (blocks reading at depth 1 and through a path), at jobs 1
   and 4, both as one cycle and as one cycle per edit; plus units for
   the kill switch, the fallback taxonomy, quarantine under seeded
   source failures, one classification across explain-analyze, the
   engine and lint, the structural diff and delta cardinality, rebase
   order, the engine's event store staying bounded across cycles and
   reusing drained ids, its value identity against a cold run's
   events, a primed site graph equal to a cold build's in every index
   order, one template parse per session, and the mediated refresh: a
   view equal to a fresh integration in every index order, stable
   oids, a bounded mediation scope, and an org cycle re-deriving only
   the retitled publications.  Item names in the edit scripts can
   clash on slug URLs; [clash_suite] (its own suite, delta-clash) runs
   clash-biased scripts against the oracle's generator, and units pin
   a persistent clash's cost, a renamed placeholder and the signed
   zeros. *)

open Sgraph

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* (page object, URL, bytes) in published order: a watch publish must
   equal a cold build page for page and in discovery order *)
let page_map (site : Template.Generator.site) =
  List.map
    (fun (p : Template.Generator.page) ->
      ( Oid.name p.Template.Generator.obj,
        p.Template.Generator.url,
        p.Template.Generator.html ))
    site.Template.Generator.pages

(* A published site as a sink-fed URL -> bytes store: what a watch
   session's sink holds after the pages each cycle hands it. *)
let store_sink () =
  let store = Hashtbl.create 64 in
  ( store,
    {
      Strudel.Render_pool.sk_emit =
        (fun p ->
          Hashtbl.replace store p.Template.Generator.url
            p.Template.Generator.html);
      sk_reset = (fun () -> Hashtbl.reset store);
    } )

let store_holds store (site : Template.Generator.site) =
  Hashtbl.length store = List.length site.Template.Generator.pages
  && List.for_all
       (fun (p : Template.Generator.page) ->
         Hashtbl.find_opt store p.Template.Generator.url
         = Some p.Template.Generator.html)
       site.Template.Generator.pages

(* --- a small delta-friendly site: driving collection + nested
   attribute copy, same shape as the scale site --- *)

let site_query =
  {|INPUT DATA
{ CREATE Root()
  COLLECT Roots(Root()) }
{ WHERE Items(i), i -> "grp" -> g
  CREATE GroupPage(g), ItemPage(i)
  LINK GroupPage(g) -> "Name" -> g,
       GroupPage(g) -> "Item" -> ItemPage(i),
       ItemPage(i) -> "Group" -> GroupPage(g),
       Root() -> "Group" -> GroupPage(g)
  COLLECT GroupPages(GroupPage(g)), ItemPages(ItemPage(i))
  { WHERE i -> l -> v, isAtomic(v)
    LINK ItemPage(i) -> l -> v }
}
// reads one hop past the driver: its owner's title
{ WHERE Items(i), i -> "owner" -> o, o -> "title" -> n
  LINK ItemPage(i) -> "Owner" -> n }
// reads any number of hops past it: every ancestor owner's title
{ WHERE Items(i), i -> "owner"."parent"* -> a, a -> "title" -> an
  LINK ItemPage(i) -> "Lineage" -> an }
OUTPUT SITE
|}

let templates : Template.Generator.template_set =
  {
    Template.Generator.by_object = [];
    by_collection =
      [
        ("Roots", {|<h1>Index</h1>
<SFMTLIST @Group ORDER=ascend KEY=Name>
|});
        ("GroupPages", {|<h1><SFMT @Name></h1>
<SFMTLIST @Item ORDER=ascend KEY=title>
|});
        ( "ItemPages",
          {|<h1><SFMT @title></h1>
<SIF @body != NULL><p><SFMT @body></p></SIF>
<SIF @tag != NULL><p><i><SFMT @tag></i></p></SIF>
<SIF @Owner != NULL><p>Owner: <SFMT @Owner></p></SIF>
<SIF @Lineage><p>Lineage: <SFMT @Lineage DELIM=", "></p></SIF>
<p><SFMT @Group LINK="Up"></p>
|} );
      ];
    named = [];
  }

let definition =
  Strudel.Site.define ~name:"DELTASITE" ~root_family:"Root" ~templates
    [ ("site", site_query) ]

(* Items hang off four owners chained by "parent" (own3 -> own2 ->
   own1 -> own0), so an owner's retitle reaches items one to four hops
   back.  Owners share the "title" label with items, which keeps every
   plan opening on the Items scan. *)
let n_owners = 4

let add_item_raw ?owner ?name add_node add_edge add_coll i =
  let it =
    Oid.fresh (Option.value name ~default:(Printf.sprintf "item%d" i))
  in
  add_node it;
  add_edge it "title" (Graph.V (Value.String (Printf.sprintf "Item %03d" i)));
  add_edge it "grp" (Graph.V (Value.String (Printf.sprintf "G%d" (i mod 3))));
  Option.iter (fun o -> add_edge it "owner" (Graph.N o)) owner;
  add_coll "Items" it;
  it

let owners g = Array.of_list (Graph.collection g "Owners")

let mk_data n =
  let g = Graph.create ~name:"DATA" () in
  for k = 0 to n_owners - 1 do
    let o = Oid.fresh (Printf.sprintf "own%d" k) in
    Graph.add_edge g o "title"
      (Graph.V (Value.String (Printf.sprintf "Owner %d" k)));
    if k > 0 then Graph.add_edge g o "parent" (Graph.N (owners g).(k - 1));
    Graph.add_to_collection g "Owners" o
  done;
  let own = owners g in
  for i = 1 to n do
    ignore
      (add_item_raw ~owner:own.(i mod n_owners) (Graph.add_node g)
         (fun o l v -> Graph.add_edge g o l v)
         (fun c o -> Graph.add_to_collection g c o)
         i)
  done;
  g

(* --- random edit scripts, applied through the watch recorder --- *)

type op =
  | Add of int
  | Remove of int
  | Retitle of int * string
  | Tag of int * string
  | Move_group of int * int
  | Drop_member of int
  | Empty_collection
  | Retitle_owner of int * string
  | Relink of int * int
  | Add_clashing of int

(* Item names whose pages clash on slug URLs: the first three slug to
   ItemPagex_y.html, and "x_y_1"'s slug URL is the first name the
   others fall back to.  An item is added under one only while no data
   node holds it. *)
let clashing_names = [| "x.y"; "x_y"; "x_y_1"; "x y" |]

let op_gen =
  let open QCheck.Gen in
  frequency
    [
      (3, map (fun i -> Add i) (int_bound 999));
      (2, map (fun k -> Add_clashing k) (int_bound 3));
      (3, map (fun i -> Remove i) (int_bound 99));
      (3, map2 (fun i s -> Retitle (i, "T" ^ s)) (int_bound 99)
           (string_size ~gen:(char_range 'a' 'z') (int_range 1 6)));
      (2, map2 (fun i s -> Tag (i, s)) (int_bound 99)
           (oneofl [ "new"; "hot"; "old" ]));
      (2, map2 (fun i j -> Move_group (i, j)) (int_bound 99) (int_bound 3));
      (2, map (fun i -> Drop_member i) (int_bound 99));
      (1, return Empty_collection);
      (3, map2 (fun k s -> Retitle_owner (k, "O" ^ s)) (int_bound 3)
           (string_size ~gen:(char_range 'a' 'z') (int_range 1 6)));
      (2, map2 (fun i k -> Relink (i, k)) (int_bound 99) (int_bound 3));
    ]

let nth_member g i =
  match Graph.collection g "Items" with
  | [] -> None
  | ms -> Some (List.nth ms (i mod List.length ms))

let apply_op r nextid op =
  let g = Delta.Rec.graph r in
  match op with
  | Add _ ->
    incr nextid;
    let own = owners g in
    ignore
      (add_item_raw ~owner:own.(!nextid mod n_owners) (Delta.Rec.add_node r)
         (Delta.Rec.add_edge r)
         (Delta.Rec.add_to_collection r)
         (100 + !nextid))
  | Add_clashing k ->
    let name = clashing_names.(k) in
    if Graph.find_node g name = None then begin
      incr nextid;
      ignore
        (add_item_raw ~owner:(owners g).(!nextid mod n_owners) ~name
           (Delta.Rec.add_node r) (Delta.Rec.add_edge r)
           (Delta.Rec.add_to_collection r)
           (100 + !nextid))
    end
  | Remove i -> (
    match nth_member g i with
    | Some o -> Delta.Rec.remove_node r o
    | None -> ())
  | Retitle (i, s) -> (
    match nth_member g i with
    | Some o -> Delta.Rec.set_value r o "title" (Value.String s)
    | None -> ())
  | Tag (i, s) -> (
    match nth_member g i with
    | Some o -> Delta.Rec.add_edge r o "tag" (Graph.V (Value.String s))
    | None -> ())
  | Move_group (i, j) -> (
    match nth_member g i with
    | Some o ->
      Delta.Rec.set_value r o "grp" (Value.String (Printf.sprintf "G%d" j))
    | None -> ())
  | Drop_member i -> (
    match nth_member g i with
    | Some o -> Delta.Rec.remove_from_collection r "Items" o
    | None -> ())
  | Empty_collection ->
    List.iter
      (fun o -> Delta.Rec.remove_from_collection r "Items" o)
      (Graph.collection g "Items")
  | Retitle_owner (k, s) ->
    Delta.Rec.set_value r (owners g).(k mod n_owners) "title" (Value.String s)
  | Relink (i, k) -> (
    match nth_member g i with
    | Some o ->
      List.iter
        (fun tgt -> Delta.Rec.remove_edge r o "owner" tgt)
        (Graph.attr g o "owner");
      Delta.Rec.add_edge r o "owner" (Graph.N (owners g).(k mod n_owners))
    | None -> ())

(* One watch session over [items] items, the edit script applied
   through the recorder, one delta cycle — published pages, and the
   pages the session's sink holds, must equal a cold Site.build over
   the same mutated data. *)
let delta_equals_cold ~jobs ops =
  let g = mk_data 30 in
  let store, sink = store_sink () in
  let w =
    Serve.Watch.create ~jobs ~sink ~source:(Serve.Watch.Direct g) definition
  in
  let r = Option.get (Serve.Watch.recorder w) in
  let nextid = ref 0 in
  List.iter (apply_op r nextid) ops;
  let _report = Serve.Watch.cycle w in
  let cold = Strudel.Site.build ~data:g definition in
  page_map (Serve.Watch.built w).Strudel.Site.site
  = page_map cold.Strudel.Site.site
  && store_holds store cold.Strudel.Site.site

let ops_arb = QCheck.make QCheck.Gen.(list_size (int_range 1 10) op_gen)

(* A site graph's order-sensitive content: every node's out-bucket in
   order, and every non-empty collection's extent in order.  The test
   templates sort their lists, so pages alone would not show a bucket
   or extent out of cold order. *)
let shape g =
  let bucket o =
    ( Oid.name o,
      List.map
        (fun (l, tg) -> l ^ "=" ^ Fmt.str "%a" Graph.pp_target tg)
        (Graph.out_edges g o) )
  in
  ( List.sort compare (List.map bucket (Graph.nodes g)),
    List.sort compare
      (List.filter_map
         (fun c ->
           match Graph.collection g c with
           | [] -> None
           | ms -> Some (c, List.map Oid.name ms))
         (Graph.collections g)) )

(* The same session, one cycle per edit: after every cycle the pages,
   the sink's store and the ordered site graph must equal a cold
   build's, so event ids, recycled ids, cached positions and the page
   table carried from one cycle to the next are checked, not just one
   cycle's. *)
let each_cycle_equals_cold ?(jobs = 1) ?(def = definition) g edits =
  let store, sink = store_sink () in
  let w = Serve.Watch.create ~jobs ~sink ~source:(Serve.Watch.Direct g) def in
  let r = Option.get (Serve.Watch.recorder w) in
  List.for_all
    (fun edit ->
      edit r;
      ignore (Serve.Watch.cycle w);
      let cold = Strudel.Site.build ~data:g def in
      let built = Serve.Watch.built w in
      page_map built.Strudel.Site.site = page_map cold.Strudel.Site.site
      && store_holds store cold.Strudel.Site.site
      && shape built.Strudel.Site.site_graph
         = shape cold.Strudel.Site.site_graph)
    edits

let every_cycle_equals_cold ops =
  let nextid = ref 0 in
  each_cycle_equals_cold (mk_data 30)
    (List.map (fun op r -> apply_op r nextid op) ops)

let long_ops_arb =
  QCheck.make QCheck.Gen.(list_size (int_range 5 20) op_gen)

let show_edges es =
  List.sort compare
    (List.map
       (fun (s, l, tg) ->
         Printf.sprintf "%s.%s=%s" (Oid.name s) l
           (Fmt.str "%a" Graph.pp_target tg))
       es)

(* --- units --- *)

let parse = Struql.Parser.parse

let classes_of queries data =
  let dx = Struql.Dexec.create ~queries:(List.map parse queries) data in
  Struql.Dexec.prime dx;
  (dx, Struql.Dexec.classes dx)

let has_fallback classes =
  List.exists
    (fun (_, c) -> String.length c >= 8 && String.sub c 0 8 = "fallback")
    classes

(* --- one delta classifier, three surfaces ---

   Each view lists "evaluable=N" (top-level blocks that delta-evaluate)
   then "query block: reason" for every top-level block replayed in
   full, as explain-analyze prints it, as the engine classifies it, and
   as lint reports it (SA070). *)

let view evaluable fallbacks =
  Printf.sprintf "evaluable=%d" evaluable
  :: List.sort compare
       (List.map
          (fun (q, b, why) -> Printf.sprintf "%s %s: %s" q b why)
          fallbacks)

let surfaces (spec : Analysis.Lint.spec) =
  let data = Option.get spec.data in
  let queries =
    List.map
      (fun (name, src) ->
        (name, Struql.Parser.parse ~registry:spec.registry src))
      spec.queries
  in
  let options = { Struql.Eval.default_options with registry = spec.registry } in
  let analyze =
    let evaluable = ref 0 and falls = ref [] in
    List.iter
      (fun (name, q) ->
        let _, prof = Struql.Exec.run_with_profile ~options data q in
        List.iter
          (fun line ->
            try
              Scanf.sscanf line "delta: evaluable blocks=%d fallback=%_d"
                (fun n -> evaluable := !evaluable + n)
            with Scanf.Scan_failure _ | End_of_file -> (
              try
                Scanf.sscanf line "  block %s@ falls back: %[^\n]"
                  (fun b why -> falls := (name, b, why) :: !falls)
              with Scanf.Scan_failure _ | End_of_file -> ()))
          (String.split_on_char '\n'
             (Fmt.str "%a" Struql.Exec.pp_profile prof)))
      queries;
    view !evaluable !falls
  in
  let engine =
    let dx =
      Struql.Dexec.create ~options ~queries:(List.map snd queries) data
    in
    Struql.Dexec.prime dx;
    let classes = Struql.Dexec.classes dx in
    let falls =
      List.map
        (fun (path, why) ->
          Scanf.sscanf path "q%d.%s" (fun qi b ->
              (fst (List.nth queries (qi - 1)), b, why)))
        (Struql.Dexec.fallbacks dx)
    in
    view (List.length classes - List.length falls) falls
  in
  let lint =
    let blocks =
      List.fold_left
        (fun n (_, q) -> n + List.length q.Struql.Ast.blocks)
        0 queries
    in
    let falls =
      List.filter_map
        (fun (d : Analysis.Diagnostic.t) ->
          if d.code <> "SA070" then None
          else
            Scanf.sscanf d.message "block %d cannot be delta-evaluated (%[^)])"
              (fun b why ->
                Some ((Option.get d.span).file, string_of_int b, why)))
        (Analysis.Lint.run spec)
    in
    view (blocks - List.length falls) falls
  in
  (analyze, engine, lint)

(* --- the mediated refresh --- *)

let view_shape = Shape.of_graph

let check_shape = Alcotest.(check (list (pair string (list string))))

(* The org sources' exports, as [Sites.Org.make_sources] builds them
   (default seed), each with an edit. *)
let org_size = (24, 4, 6, 8) (* people, orgs, projects, pubs *)

let org_sources () =
  let people, orgs, projects, pubs = org_size in
  Sites.Org.make_sources ~people ~orgs ~projects ~pubs ()

let all_sources (s : Sites.Org.sources) =
  Sites.Org.[ s.rdb; s.projects; s.bib; s.html ]

let fresh_warehouse s =
  Mediator.Warehouse.create ~sources:(all_sources s)
    ~mappings:Sites.Org.mediation_mappings ()

(* p3 gets another email and moves to org0 *)
let rdb_export () =
  let people, orgs, _, _ = org_size in
  let people_csv, orgs_csv = Wrappers.Synth.org_csv ~seed:11 ~people ~orgs () in
  let edit line =
    match String.split_on_char ',' line with
    | "p3" :: name :: phone :: office :: _ :: _ :: rest ->
      String.concat ","
        ("p3" :: name :: phone :: office :: "p3@lab.example.com" :: "&org0"
        :: rest)
    | _ -> line
  in
  let people_csv =
    String.concat "\n" (List.map edit (String.split_on_char '\n' people_csv))
  in
  let g = Graph.create ~name:"RDB" () in
  ignore
    (Wrappers.Csv.load_tables g
       [
         Wrappers.Csv.table_of_string ~name:"People" people_csv;
         Wrappers.Csv.table_of_string ~name:"Orgs" orgs_csv;
       ]);
  g

(* [s] with the first [count] occurrences of [sub] replaced by [by]
   (all of them by default) *)
let replace ?(count = max_int) ~sub ~by s =
  let n = String.length sub in
  let b = Buffer.create (String.length s) in
  let rec go i left =
    if i >= String.length s then ()
    else if left > 0 && i + n <= String.length s && String.sub s i n = sub
    then begin
      Buffer.add_string b by;
      go (i + n) (left - 1)
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1) left
    end
  in
  go 0 count;
  Buffer.contents b

let projects_export () =
  let people, _, projects, _ = org_size in
  let text = Wrappers.Synth.projects_file ~seed:12 ~projects ~people () in
  fst
    (Wrappers.Structured_file.load ~graph_name:"FILES"
       (replace ~count:1 ~sub:"in: Projects\n"
          ~by:"in: Projects\nmember: p1\nsponsor: Acme\n" text))

(* [titles] entries retitled, every citation key prefixed by [keys] *)
let bib_export ~keys ~titles () =
  let _, _, _, pubs = org_size in
  Wrappers.Synth.bibtex ~seed:13 ~entries:pubs ()
  |> replace ~count:titles ~sub:"title = {On " ~by:"title = {Revisiting "
  |> replace ~sub:"{pub" ~by:("{" ^ keys ^ "pub")
  |> Wrappers.Bibtex.load ~graph_name:"BIB"
  |> fst

let html_export () =
  let pages =
    ( "news.html",
      "<html><head><title>News</title></head><body><h1>News</h1>\n\
       <p>A new wing opened.</p></body></html>" )
    :: List.map
         (fun (url, html) ->
           (url, replace ~sub:"Campus map" ~by:"Campus maps" html))
         Sites.Org.legacy_pages
  in
  fst (Wrappers.Html_wrapper.load_pages ~graph_name:"HTML" pages)

(* --- the exact dirty set --- *)

(* What a render can read of each node: its ordered out-edges (targets
   by identity) and its collection list. *)
let node_states g =
  List.fold_left
    (fun m o ->
      Oid.Map.add o
        ( List.map (fun (l, tg) -> (l, Graph.tkey tg)) (Graph.out_edges g o),
          Graph.collections_of g o )
        m)
    Oid.Map.empty (Graph.nodes g)

(* After every cycle, touched holds exactly the created nodes plus those
   whose state changed, and removed exactly the nodes that left. *)
let dirty_set_exact ops =
  let g = mk_data 30 in
  let dx = Struql.Dexec.create ~queries:[ parse site_query ] g in
  Struql.Dexec.prime dx;
  let sg = Struql.Dexec.site_graph dx in
  let r = Delta.Rec.create g in
  let nextid = ref 0 in
  List.for_all
    (fun op ->
      let before = node_states sg in
      apply_op r nextid op;
      let ch = Struql.Dexec.apply dx (Delta.Rec.flush r) in
      let after = node_states sg in
      let touched =
        Oid.Map.fold
          (fun o st acc ->
            if Oid.Map.find_opt o before = Some st then acc
            else Oid.Set.add o acc)
          after Oid.Set.empty
      in
      let removed =
        Oid.Map.fold
          (fun o _ acc ->
            if Oid.Map.mem o after then acc else Oid.Set.add o acc)
          before Oid.Set.empty
      in
      Oid.Set.equal touched (Oid.Set.of_list ch.Struql.Dexec.sc_touched)
      && Oid.Set.equal removed (Oid.Set.of_list ch.Struql.Dexec.sc_removed))
    ops

(* --- the page table: cases the random edits reach rarely --- *)

(* A site whose roots come from the data, one per section, and whose
   roots link a group only while one of its items is shown.  Hiding a
   group's items orphans the group page and its item pages, which
   link to each other. *)
let sections_definition =
  Strudel.Site.define ~name:"SECTIONS" ~root_family:"Root" ~templates
    [
      ( "site",
        {|INPUT DATA
{ WHERE Sections(s), s -> "title" -> n
  CREATE Root(s)
  LINK Root(s) -> "Name" -> n
  COLLECT Roots(Root(s)) }
{ WHERE Items(i), i -> "grp" -> g
  CREATE GroupPage(g), ItemPage(i)
  LINK GroupPage(g) -> "Name" -> g,
       GroupPage(g) -> "Item" -> ItemPage(i),
       ItemPage(i) -> "Group" -> GroupPage(g)
  COLLECT GroupPages(GroupPage(g)), ItemPages(ItemPage(i))
  { WHERE i -> "title" -> v LINK ItemPage(i) -> "title" -> v } }
{ WHERE Sections(s), Items(i), i -> "grp" -> g, i -> "shown" -> "yes"
  LINK Root(s) -> "Group" -> GroupPage(g) }
OUTPUT SITE|}
      );
    ]

let add_section add_edge add_coll name =
  let s = Oid.fresh name in
  add_edge s "title" (Graph.V (Value.String ("Section " ^ name)));
  add_coll "Sections" s;
  s

let sections_data () =
  let g = mk_data 12 in
  List.iter
    (fun i -> Graph.add_edge g i "shown" (Graph.V (Value.String "yes")))
    (Graph.collection g "Items");
  ignore
    (add_section (Graph.add_edge g) (Graph.add_to_collection g) "sec0");
  g

let page_count w =
  List.length (Serve.Watch.built w).Strudel.Site.site.Template.Generator.pages

let items_of_group g grp =
  List.filter
    (fun i -> Graph.attr g i "grp" = [ Graph.V (Value.String grp) ])
    (Graph.collection g "Items")

let placeholders w =
  List.length
    (List.filter Template.Generator.is_placeholder
       (Serve.Watch.built w).Strudel.Site.site.Template.Generator.pages)

(* A page fails to render while the injector is armed: each changed
   cycle retries it, and once the fault clears it publishes as a cold
   build would, at any job count — also when the cycle after the fault
   cleared touched no site node ([touching = false]). *)
let placeholder_retried ?(touching = true) ~jobs () =
  let g = mk_data 12 in
  let inject =
    Fault.Inject.create ~p_render:1.0 ~targets:[ "ItemPage(item4)" ] ()
  in
  let fault = Fault.ctx ~inject () in
  let store, sink = store_sink () in
  let w =
    Serve.Watch.create ~jobs ~on_error:Fault.Degrade ~fault ~sink
      ~source:(Serve.Watch.Direct g) definition
  in
  let r = Option.get (Serve.Watch.recorder w) in
  let retitle i =
    Delta.Rec.set_value r (Option.get (nth_member g i)) "title"
      (Value.String (Printf.sprintf "Retitled %d" i));
    ignore (Serve.Watch.cycle w)
  in
  check_int "a placeholder at first" 1 (placeholders w);
  retitle 7;
  check_int "still failing" 1 (placeholders w);
  Fault.Inject.disarm inject;
  if touching then retitle 8
  else begin
    Delta.Rec.add_edge r (owners g).(0) "note"
      (Graph.V (Value.String "unread"));
    let report = Serve.Watch.cycle w in
    check_int "no site node touched" 0
      (report.Serve.Watch.cy_touched + report.Serve.Watch.cy_removed)
  end;
  check_int "retried and rendered" 0 (placeholders w);
  let cold = Strudel.Site.build ~data:g definition in
  check_bool "pages equal cold" true
    (page_map (Serve.Watch.built w).Strudel.Site.site
    = page_map cold.Strudel.Site.site);
  check_bool "sink holds cold" true (store_holds store cold.Strudel.Site.site)

(* A render raises under Abort: the raising cycle empties the page
   table, so the next cycle renders afresh rather than trust pages the
   failed cycle never re-rendered — also when that cycle's edit
   touches no site node ([site_node = false]), which would otherwise
   keep the publish from before the failure. *)
let abort_recovers ~site_node next () =
  let g = mk_data 12 in
  let inject =
    Fault.Inject.create ~p_render:1.0 ~targets:[ "ItemPage(item4)" ] ()
  in
  Fault.Inject.disarm inject;
  let store, sink = store_sink () in
  let w =
    Serve.Watch.create ~fault:(Fault.ctx ~inject ()) ~sink
      ~source:(Serve.Watch.Direct g) definition
  in
  let r = Option.get (Serve.Watch.recorder w) in
  let item4 =
    List.find (fun o -> Oid.name o = "item4") (Graph.collection g "Items")
  in
  Fault.Inject.arm inject;
  Delta.Rec.set_value r item4 "title" (Value.String "Four");
  (match Serve.Watch.cycle w with
   | exception Fault.Inject.Injected _ -> ()
   | _ -> Alcotest.fail "the injected render fault did not raise");
  Fault.Inject.disarm inject;
  next r g;
  let report = Serve.Watch.cycle w in
  check_bool "the edit touched a site node" site_node
    (report.Serve.Watch.cy_touched + report.Serve.Watch.cy_removed > 0);
  let cold = Strudel.Site.build ~data:g definition in
  check_bool "pages equal cold" true
    (page_map (Serve.Watch.built w).Strudel.Site.site
    = page_map cold.Strudel.Site.site);
  check_bool "sink holds cold" true (store_holds store cold.Strudel.Site.site)

(* Two sessions over equal data, at jobs 1 and 4, publish the same
   pages after every cycle. *)
let jobs_agree ops =
  let session jobs =
    let g = mk_data 30 in
    let w = Serve.Watch.create ~jobs ~source:(Serve.Watch.Direct g) definition in
    (Option.get (Serve.Watch.recorder w), w, ref 0)
  in
  let r1, w1, n1 = session 1 and r4, w4, n4 = session 4 in
  List.for_all
    (fun op ->
      apply_op r1 n1 op;
      apply_op r4 n4 op;
      ignore (Serve.Watch.cycle w1);
      ignore (Serve.Watch.cycle w4);
      page_map (Serve.Watch.built w1).Strudel.Site.site
      = page_map (Serve.Watch.built w4).Strudel.Site.site)
    ops

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The perfbench org-10 edit: ten publications retitled in a new
   bibliography export. *)
let org_ten_retitles () =
  let sources, w = Sites.Org.data ~seed:1 ~people:100 ~orgs:6 ~pubs:80 () in
  let store, sink = store_sink () in
  let session =
    Serve.Watch.create ~sink ~source:(Serve.Watch.Mediated w)
      Sites.Org.definition
  in
  let text = Wrappers.Synth.bibtex ~seed:3 ~entries:80 () in
  Mediator.Source.update sources.Sites.Org.bib (fun () ->
      fst
        (Wrappers.Bibtex.load ~graph_name:"BIB"
           (replace ~count:10 ~sub:"title = {On "
              ~by:"title = {Revision 1 of On " text)));
  let r = Serve.Watch.cycle session in
  let cold =
    Strudel.Site.build ~data:(Mediator.Warehouse.graph w) Sites.Org.definition
  in
  (session, store, r, cold)

(* --- the mediated refresh as a property --- *)

(* One new export of one org source. *)
type export =
  | Retitle of int  (* bib: the first k entries retitled *)
  | Rekey of int  (* bib: every citation key prefixed *)
  | Rename of int  (* rdb: person i renamed (the author join reads name) *)
  | Move of int  (* rdb: person i moved to another research area *)
  | Reorder  (* rdb: the People rows in reverse order *)
  | Member of bool  (* projects: a member added, or one dropped *)
  | Html of bool  (* html: a page's text rewritten, or the original *)

let show_export = function
  | Retitle k -> Printf.sprintf "bib: %d retitled" k
  | Rekey n -> Printf.sprintf "bib: keys r%d" n
  | Rename i -> Printf.sprintf "rdb: p%d renamed" i
  | Move i -> Printf.sprintf "rdb: p%d moved" i
  | Reorder -> "rdb: rows reversed"
  | Member b ->
    if b then "projects: member added" else "projects: member dropped"
  | Html b -> if b then "html: text rewritten" else "html: original"

(* The rdb export with [edit] applied to every People row's fields
   (login, name, phone, office, email, org, area, proprietary), its
   rows reversed when [reverse]. *)
let rdb_with ?(reverse = false) edit () =
  let people, orgs, _, _ = org_size in
  let people_csv, orgs_csv = Wrappers.Synth.org_csv ~seed:11 ~people ~orgs () in
  let header, rows =
    match
      List.filter (fun l -> l <> "") (String.split_on_char '\n' people_csv)
    with
    | h :: rows -> (h, rows)
    | [] -> assert false
  in
  let rows =
    List.map
      (fun l -> String.concat "," (edit (String.split_on_char ',' l)))
      rows
  in
  let rows = if reverse then List.rev rows else rows in
  let g = Graph.create ~name:"RDB" () in
  ignore
    (Wrappers.Csv.load_tables g
       [
         Wrappers.Csv.table_of_string ~name:"People"
           (String.concat "\n" (header :: rows) ^ "\n");
         Wrappers.Csv.table_of_string ~name:"Orgs" orgs_csv;
       ]);
  g

(* [fields] with field [k] of person [i]'s row set by [f] *)
let set_field i k f fields =
  if List.hd fields = Printf.sprintf "p%d" i then
    List.mapi (fun j x -> if j = k then f x else x) fields
  else fields

let projects_with ~add () =
  let people, _, projects, _ = org_size in
  let text = Wrappers.Synth.projects_file ~seed:12 ~projects ~people () in
  let text =
    if add then
      replace ~count:1 ~sub:"in: Projects\n"
        ~by:"in: Projects\nmember: p1\n" text
    else
      let marker = "\nmember: " in
      let rec find i =
        if String.sub text i (String.length marker) = marker then i
        else find (i + 1)
      in
      let i = find 0 in
      let j = String.index_from text (i + 1) '\n' in
      String.sub text 0 i ^ String.sub text j (String.length text - j)
  in
  fst (Wrappers.Structured_file.load ~graph_name:"FILES" text)

let html_with ~rewritten () =
  let pages =
    if rewritten then
      List.map
        (fun (url, html) ->
          (url, replace ~sub:"Seventy years" ~by:"Eighty years" html))
        Sites.Org.legacy_pages
    else Sites.Org.legacy_pages
  in
  fst (Wrappers.Html_wrapper.load_pages ~graph_name:"HTML" pages)

let export_loader = function
  | Retitle k -> bib_export ~keys:"" ~titles:k
  | Rekey n -> bib_export ~keys:(Printf.sprintf "r%d" n) ~titles:0
  | Rename i ->
    rdb_with (set_field i 1 (fun _ -> Printf.sprintf "Renamed P%d" i))
  | Move i ->
    rdb_with
      (set_field i 6 (fun a ->
           if a = "Databases" then "Networking" else "Databases"))
  | Reorder -> rdb_with ~reverse:true Fun.id
  | Member add -> projects_with ~add
  | Html rewritten -> html_with ~rewritten

(* sources in [all_sources] order: rdb, projects, bib, html *)
let export_gen src =
  let open QCheck.Gen in
  let people, _, _, _ = org_size in
  match src with
  | 0 ->
    oneof
      [
        map (fun i -> Rename i) (int_bound (people - 1));
        map (fun i -> Move i) (int_bound (people - 1));
        return Reorder;
      ]
  | 1 -> map (fun b -> Member b) bool
  | 2 ->
    oneof
      [
        map (fun k -> Retitle k) (int_range 1 8);
        map (fun n -> Rekey n) (int_range 1 99);
      ]
  | _ -> map (fun b -> Html b) bool

(* a non-empty subset of the four sources, each with an export *)
let refresh_gen =
  let open QCheck.Gen in
  int_range 1 15 >>= fun mask ->
  flatten_l
    (List.filter_map
       (fun i ->
         if mask land (1 lsl i) <> 0 then
           Some (map (fun e -> (i, e)) (export_gen i))
         else None)
       [ 0; 1; 2; 3 ])

let refresh_script_arb =
  QCheck.make
    ~print:(fun script ->
      String.concat " | "
        (List.map
           (fun r ->
             String.concat ", " (List.map (fun (_, e) -> show_export e) r))
           script))
    QCheck.Gen.(list_size (int_range 1 6) refresh_gen)

(* A delta's lists, in order, oids by id and values by kind. *)
let delta_repr (d : Delta.t) =
  let o x = string_of_int (Oid.id x) in
  let tg = function
    | Graph.N x -> "&" ^ o x
    | Graph.V (Value.Float f) -> Printf.sprintf "float %h" f
    | Graph.V v -> Value.kind_name v ^ " " ^ Value.to_string v
  in
  let e (s, l, t) = o s ^ "." ^ l ^ "=" ^ tg t in
  let m (c, x) = c ^ " " ^ o x in
  [ ("nodes_added", List.map o d.nodes_added);
    ("nodes_removed", List.map o d.nodes_removed);
    ("edges_added", List.map e d.edges_added);
    ("edges_removed", List.map e d.edges_removed);
    ("coll_added", List.map m d.coll_added);
    ("coll_removed", List.map m d.coll_removed);
    ("resequenced", List.map o d.resequenced);
    ("reordered", d.reordered);
    ("label_reordered", d.label_reordered) ]

(* After every refresh of the script: the view equals a fresh
   integration in every index order, its scope holds as many terms, and
   exactly the mappings whose sources did not change replayed their
   logs — a single-source mapping when its source was not updated,
   never a "*" join, which reads every source.  The refresh's delta is
   the one the reference diff (test/diff_oracle.ml) finds between the
   two views. *)
let refresh_replays_exactly script =
  let s = org_sources () in
  let w = Sites.Org.warehouse s in
  let src = Array.of_list (all_sources s) in
  List.for_all
    (fun updates ->
      List.iter
        (fun (i, e) -> Mediator.Source.update src.(i) (export_loader e))
        updates;
      let before = Mediator.Warehouse.graph w in
      let d = Option.get (Mediator.Warehouse.refresh_delta w) in
      delta_repr d
      = delta_repr (Diff_oracle.diff ~old:before (Mediator.Warehouse.graph w))
      &&
      let updated name =
        List.exists (fun (i, _) -> Mediator.Source.name src.(i) = name) updates
      in
      let expected =
        List.map
          (fun (m : Mediator.Gav.mapping) ->
            m.Mediator.Gav.source_name <> "*"
            && not (updated m.Mediator.Gav.source_name))
          Sites.Org.mediation_mappings
      in
      let fresh = fresh_warehouse s in
      view_shape (Mediator.Warehouse.graph fresh)
      = view_shape (Mediator.Warehouse.graph w)
      && Mediator.Warehouse.scope_size fresh = Mediator.Warehouse.scope_size w
      && List.map
           (fun r -> r = Mediator.Gav.Replayed)
           (Mediator.Warehouse.last_runs w)
         = expected
      && not (List.mem Mediator.Gav.Skipped (Mediator.Warehouse.last_runs w)))
    script

(* Random graph pairs over one pool of oids: an old graph with
   tombstones (removed edges, nodes and memberships), and a new one
   made from it by further edits (re-adding an edge moves it last in
   every bucket) or built afresh in another order. *)
type gop =
  | Op_edge of int * int * int  (* source, label, target (node < 0) *)
  | Op_unedge of int * int * int
  | Op_unnode of int
  | Op_member of int * int  (* collection, node *)
  | Op_unmember of int * int

let gop_gen =
  let open QCheck.Gen in
  let node = int_bound 5 and lab = int_bound 2 and tgt = int_range (-4) 5 in
  frequency
    [ (6, map3 (fun a b c -> Op_edge (a, b, c)) node lab tgt);
      (3, map3 (fun a b c -> Op_unedge (a, b, c)) node lab tgt);
      (1, map (fun a -> Op_unnode a) node);
      (3, map2 (fun c a -> Op_member (c, a)) (int_bound 1) node);
      (1, map2 (fun c a -> Op_unmember (c, a)) (int_bound 1) node) ]

let apply_gops pool g ops =
  let tg i =
    if i < 0 then
      Graph.V
        [| Value.Int 1; Value.Float 1.0; Value.String "1"; Value.Float (-0.0) |].(-i - 1)
    else Graph.N pool.(i)
  in
  let lab i = [| "a"; "b"; "c" |].(i) and coll i = [| "C"; "D" |].(i) in
  List.iter
    (function
      | Op_edge (a, l, t) -> Graph.add_edge g pool.(a) (lab l) (tg t)
      | Op_unedge (a, l, t) -> Graph.remove_edge g pool.(a) (lab l) (tg t)
      | Op_unnode a -> Graph.remove_node g pool.(a)
      | Op_member (c, a) -> Graph.add_to_collection g (coll c) pool.(a)
      | Op_unmember (c, a) -> Graph.remove_from_collection g (coll c) pool.(a))
    ops

let graph_pair_arb =
  QCheck.make
    QCheck.Gen.(
      triple
        (list_size (int_range 0 30) gop_gen)
        (list_size (int_range 0 15) gop_gen)
        bool)

let diff_agrees (base, edits, afresh) =
  let pool = Array.init 6 (fun i -> Oid.fresh (Printf.sprintf "p%d" i)) in
  let old = Graph.create ~name:"old" () in
  apply_gops pool old base;
  let g =
    if afresh then begin
      (* the same edits over a fresh graph, in another order *)
      let g = Graph.create ~name:"new" () in
      apply_gops pool g (List.rev base @ edits);
      g
    end
    else begin
      let g = Graph.copy ~name:"new" old in
      apply_gops pool g edits;
      g
    end
  in
  delta_repr (Delta.diff ~old g) = delta_repr (Diff_oracle.diff ~old g)
  && delta_repr (Delta.diff ~old:g old) = delta_repr (Diff_oracle.diff ~old:g old)

let check_runs what expected w =
  Alcotest.(check (list string))
    what
    (List.map
       (function
         | Mediator.Gav.Ran -> "ran"
         | Mediator.Gav.Replayed -> "replayed"
         | Mediator.Gav.Skipped -> "skipped")
       expected)
    (List.map
       (function
         | Mediator.Gav.Ran -> "ran"
         | Mediator.Gav.Replayed -> "replayed"
         | Mediator.Gav.Skipped -> "skipped")
       (Mediator.Warehouse.last_runs w))

(* A graph of [prefix]<i> nodes in [coll], each carrying [label] =
   the i-th value. *)
let valued ?(coll = "Items") ?(label = "title") prefix values =
  let g = Graph.create ~name:prefix () in
  List.iteri
    (fun i v ->
      let o = Oid.fresh (Printf.sprintf "%s%d" prefix i) in
      Graph.add_edge g o label (Graph.V (Value.String v));
      Graph.add_to_collection g coll o)
    values;
  g

(* The view of [w] equals a fresh warehouse's, scope included. *)
let check_fresh what w fresh =
  check_shape (what ^ ": refreshed = fresh")
    (view_shape (Mediator.Warehouse.graph fresh))
    (view_shape (Mediator.Warehouse.graph w));
  check_int (what ^ ": scope size")
    (Mediator.Warehouse.scope_size fresh)
    (Mediator.Warehouse.scope_size w)

(* --- fallback replays and the label-order signal --- *)

(* A mediated site whose mapping emits one "l" edge per source row and
   collects nothing: the site block scans "l", so it is a fallback
   whose rows follow that label's extent. *)
let extent_site_query =
  {|INPUT MEDIATED
{ CREATE Root() COLLECT Roots(Root()) }
{ WHERE d -> "l" -> v
  CREATE Entry(d)
  LINK Root() -> "Entry" -> Entry(d), Entry(d) -> "v" -> v
  COLLECT Entries(Entry(d)) }
OUTPUT SITE
|}

let extent_definition =
  Strudel.Site.define ~name:"EXTENTSITE" ~root_family:"Root"
    ~templates:
      {
        Template.Generator.by_object = [];
        by_collection =
          [
            ("Roots", "<h1>Entries</h1>\n<SFMTLIST @Entry>\n");
            ("Entries", "<p><SFMT @v></p>\n");
          ];
        named = [];
      }
    [ ("site", extent_site_query) ]

let extent_mapping =
  Mediator.Gav.mapping_of_string ~source:"rows"
    {|WHERE Items(x), x -> "v" -> v
      CREATE Doc(x) LINK Doc(x) -> "l" -> v
      OUTPUT mediated|}

(* --- constraint verdicts --- *)

(* [fields] with org [from] replaced by [into] *)
let set_org from into fields =
  List.mapi (fun j x -> if j = 5 && x = from then into else x) fields

(* The org whose members are fewest, and the People rows moved out of
   it into another org. *)
let emptied_org () =
  let people, orgs, _, _ = org_size in
  let people_csv, _ = Wrappers.Synth.org_csv ~seed:11 ~people ~orgs () in
  let org_of l =
    match String.split_on_char ',' l with
    | _ :: _ :: _ :: _ :: _ :: o :: _ -> Some o
    | _ -> None
  in
  let members o =
    List.length
      (List.filter
         (fun l -> org_of l = Some o)
         (String.split_on_char '\n' people_csv))
  in
  let candidates =
    List.filter
      (fun o -> members o > 0)
      (List.init orgs (Printf.sprintf "&org%d"))
  in
  let smallest =
    List.fold_left
      (fun a b -> if members b < members a then b else a)
      (List.hd candidates) candidates
  in
  let other = List.find (fun o -> o <> smallest) candidates in
  (smallest, rdb_with (set_org smallest other))

let show_verdicts vs =
  List.map
    (fun (c, v) ->
      Fmt.str "%a: %a" Schema.Verify.pp_constraint c Schema.Verify.pp_verdict
        v)
    vs

(* A site linking only the items marked "listed": every item has its
   page, so an unlisted item's page is unreachable and lacks its link
   up. *)
let listing_query =
  {|INPUT DATA
{ CREATE Root() COLLECT Roots(Root()) }
{ WHERE Items(i), i -> "title" -> t
  CREATE ItemPage(i)
  LINK ItemPage(i) -> "title" -> t
  COLLECT ItemPages(ItemPage(i)) }
{ WHERE Items(i), i -> "listed" -> y
  LINK Root() -> "Item" -> ItemPage(i), ItemPage(i) -> "Up" -> Root() }
OUTPUT SITE
|}

let listing_definition =
  Strudel.Site.define ~name:"LISTING" ~root_family:"Root"
    ~constraints:
      Schema.Verify.
        [ Reachable_from "Root"; Points_to ("ItemPage", "Up", "Root") ]
    ~templates:
      {
        Template.Generator.by_object = [];
        by_collection =
          [
            ("Roots", "<h1>Items</h1>\n<SFMTLIST @Item>\n");
            ("ItemPages", "<p><SFMT @title></p>\n");
          ];
        named = [];
      }
    [ ("site", listing_query) ]

let listed = Graph.V (Value.String "yes")

let listing_data n =
  let g = Graph.create ~name:"DATA" () in
  for i = 1 to n do
    let o = Oid.fresh (Printf.sprintf "item%d" i) in
    Graph.add_edge g o "title"
      (Graph.V (Value.String (Printf.sprintf "Item %d" i)));
    Graph.add_edge g o "listed" listed;
    Graph.add_to_collection g "Items" o
  done;
  g

(* The session's verdicts, witnesses included, equal a cold build's of
   the same data; returns the cold build. *)
let check_listing_verdicts what w g =
  let cold = Strudel.Site.build ~data:g listing_definition in
  Alcotest.(check (list string))
    (what ^ ": verdicts = cold")
    (show_verdicts cold.Strudel.Site.verification)
    (show_verdicts (Serve.Watch.built w).Strudel.Site.verification);
  cold

(* --- the event store's identity: values the graph equates or tells
   apart --- *)

let identity_values =
  [|
    Value.Int 1; Value.Float 1.0; Value.String "1"; Value.Float 0.0;
    Value.Float (-0.0); Value.Float Float.nan; Value.Int 0;
  |]

(* every driver links its value from its own page and from the shared
   root, so equal values from several drivers meet in one event *)
let identity_query =
  parse
    {|INPUT DATA
{ CREATE Root()
  COLLECT Roots(Root()) }
{ WHERE Items(i), i -> "v" -> v
  CREATE P(i)
  LINK P(i) -> "v" -> v, Root() -> "v" -> v
  COLLECT Ps(P(i)) }
OUTPUT SITE
|}

type id_op = Set of int * int | Add_item of int | Drop of int | Delete of int

let id_op_gen =
  let open QCheck.Gen in
  let value = int_bound (Array.length identity_values - 1) in
  frequency
    [
      (4, map2 (fun k v -> Set (k, v)) (int_bound 9) value);
      (2, map (fun v -> Add_item v) value);
      (1, map (fun k -> Drop k) (int_bound 9));
      (1, map (fun k -> Delete k) (int_bound 9));
    ]

let show_id_op = function
  | Set (k, v) -> Printf.sprintf "set %d %d" k v
  | Add_item v -> Printf.sprintf "add %d" v
  | Drop k -> Printf.sprintf "drop %d" k
  | Delete k -> Printf.sprintf "delete %d" k

let identity_arb =
  QCheck.make
    ~print:(fun (vals, ops) ->
      Printf.sprintf "values [%s]; edits [%s]"
        (String.concat "; " (List.map string_of_int vals))
        (String.concat "; " (List.map show_id_op ops)))
    QCheck.Gen.(
      pair
        (list_size (int_range 1 6)
           (int_bound (Array.length identity_values - 1)))
        (list_size (int_range 1 12) id_op_gen))

(* After the prime and after every cycle, the engine holds exactly as
   many live events as a cold run emits distinct ones under the
   reference identity. *)
let live_events_match_cold (vals, ops) =
  let g = Graph.create ~name:"DATA" () in
  let fresh = ref 0 in
  let add_item add_edge add_coll vi =
    incr fresh;
    let o = Oid.fresh (Printf.sprintf "it%d" !fresh) in
    add_edge o "v" (Graph.V identity_values.(vi));
    add_coll "Items" o
  in
  List.iter
    (add_item (Graph.add_edge g) (fun c o -> Graph.add_to_collection g c o))
    vals;
  let dx = Struql.Dexec.create ~queries:[ identity_query ] g in
  Struql.Dexec.prime dx;
  let agrees () =
    (Struql.Dexec.counters dx).Struql.Dexec.c_events_live
    = Oracle.distinct_events g [ identity_query ]
  in
  let member k =
    match Graph.collection g "Items" with
    | [] -> None
    | ms -> Some (List.nth ms (k mod List.length ms))
  in
  agrees ()
  && List.for_all
       (fun op ->
         let r = Delta.Rec.create g in
         (match op with
          | Set (k, vi) ->
            Option.iter
              (fun o -> Delta.Rec.set_value r o "v" identity_values.(vi))
              (member k)
          | Add_item vi ->
            add_item (Delta.Rec.add_edge r) (Delta.Rec.add_to_collection r) vi
          | Drop k ->
            Option.iter (Delta.Rec.remove_from_collection r "Items") (member k)
          | Delete k -> Option.iter (Delta.Rec.remove_node r) (member k));
         ignore (Struql.Dexec.apply dx (Delta.Rec.flush r));
         agrees ())
       ops

(* --- slug clashes in a watch session --- *)

(* pages (order, URLs, bytes) and the sink's store equal both the
   oracle's sequential generator over the session's site graph and a
   cold build of [g] *)
let publishes_oracle ?(def = definition) store w g =
  let built = Serve.Watch.built w in
  let sg = built.Strudel.Site.site_graph in
  let oracle =
    Oracle.generate ~templates:def.Strudel.Site.templates sg
      ~roots:(Strudel.Site.build_roots sg def)
  in
  let cold = Strudel.Site.build ~data:g def in
  page_map built.Strudel.Site.site = page_map oracle
  && page_map oracle = page_map cold.Strudel.Site.site
  && store_holds store oracle

(* The random edit scripts, clash-biased, one cycle per edit: after
   every cycle the session publishes the oracle's pages and a cold
   build's, and its sink holds them, while clashes come, cascade and
   go. *)
let clash_op_gen =
  QCheck.Gen.(
    frequency [ (3, map (fun k -> Add_clashing k) (int_bound 3)); (5, op_gen) ])

let every_cycle_equals_oracle ops =
  let g = mk_data 12 in
  let store, sink = store_sink () in
  let w = Serve.Watch.create ~sink ~source:(Serve.Watch.Direct g) definition in
  let r = Option.get (Serve.Watch.recorder w) in
  let nextid = ref 0 in
  publishes_oracle store w g
  && List.for_all
       (fun op ->
         apply_op r nextid op;
         ignore (Serve.Watch.cycle w);
         publishes_oracle store w g)
       ops

let clash_suite =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"every cycle of a clash-biased edit script equals the oracle"
         ~count:30
         (QCheck.make QCheck.Gen.(list_size (int_range 5 25) clash_op_gen))
         every_cycle_equals_oracle);
  ]

(* synth-1's data (the benchmark's site), with [clash] also items "x.y"
   and "x_y" in group g000, whose item pages share a slug URL *)
let synth_one ~clash =
  let g = Wrappers.Synth.scale_graph ~seed:1 ~groups:20 ~items:1000 () in
  if clash then
    List.iter
      (fun name ->
        let o = Graph.new_node g name in
        Graph.add_to_collection g "Items" o;
        Graph.add_edge g o "title" (Graph.V (Value.String name));
        Graph.add_edge g o "grp" (Graph.V (Value.String "g000")))
      [ "x.y"; "x_y" ];
  g

(* a site of one page per value of an item's "v" *)
let zeros_definition =
  Strudel.Site.define ~name:"ZEROS" ~root_family:"Root"
    [
      ( "site",
        {|INPUT DATA
{ CREATE Root() }
{ WHERE Items(i), i -> "v" -> v
  CREATE P(v)
  LINK Root() -> "v" -> v, Root() -> "p" -> P(v) }
OUTPUT SITE
|} );
    ]

(* [g] with one item, "r0", valued [f] *)
let one_float f () =
  let g = Graph.create ~name:"ROWS" () in
  let o = Oid.fresh "r0" in
  Graph.add_edge g o "v" (Graph.V (Value.Float f));
  Graph.add_to_collection g "Items" o;
  g

(* the diff of a 0.0 -> -0.0 flip: r0's edge removed and added *)
let flips_zero (d : Delta.t) =
  let sign = function
    | [ (_, "v", Graph.V (Value.Float f)) ] -> Some (Float.sign_bit f)
    | _ -> None
  in
  sign d.Delta.edges_removed = Some false
  && sign d.Delta.edges_added = Some true
  && d.Delta.resequenced = []

(* item names that differ only in characters a slug drops, as
   non-Latin titles do: every [k] below 512 slugs to "x" *)
let greek k =
  "x"
  ^ String.concat ""
      (List.init 9 (fun b -> if (k lsr b) land 1 = 1 then "β" else "α"))

(* a fault on ItemPage(x_y), whose page the clash renames *)
let renamed_placeholder ~jobs () =
  let g = mk_data 6 in
  List.iter
    (fun name ->
      ignore
        (add_item_raw ~name (Graph.add_node g)
           (fun o l v -> Graph.add_edge g o l v)
           (fun c o -> Graph.add_to_collection g c o)
           0))
    [ "x.y"; "x_y" ];
  let injected () =
    Fault.ctx
      ~inject:
        (Fault.Inject.create ~p_render:1.0 ~targets:[ "ItemPage(x_y)" ] ())
      ()
  in
  let fault = injected () in
  let store, sink = store_sink () in
  let w =
    Serve.Watch.create ~jobs ~on_error:Fault.Degrade ~fault ~sink
      ~source:(Serve.Watch.Direct g) definition
  in
  let r = Option.get (Serve.Watch.recorder w) in
  let check what =
    let built = Serve.Watch.built w in
    let cold_fault = injected () in
    let cold =
      Strudel.Site.build ~on_error:Fault.Degrade ~fault:cold_fault ~data:g
        definition
    in
    check_bool (what ^ ": pages equal cold") true
      (page_map built.Strudel.Site.site = page_map cold.Strudel.Site.site);
    check_bool (what ^ ": sink holds cold") true
      (store_holds store cold.Strudel.Site.site);
    let placeholder =
      List.find
        (fun (p : Template.Generator.page) ->
          Oid.name p.Template.Generator.obj = "ItemPage(x_y)")
        built.Strudel.Site.site.Template.Generator.pages
    in
    check_bool (what ^ ": a placeholder") true
      (Template.Generator.is_placeholder placeholder);
    Alcotest.(check string)
      (what ^ ": under its assigned URL") "ItemPagex_y_1.html"
      placeholder.Template.Generator.url;
    Alcotest.(check (list string))
      (what ^ ": the manifest names the assigned URL")
      [ "ItemPagex_y_1.html" ]
      (List.map
         (fun (f : Fault.report) -> f.Fault.f_location)
         (Fault.Manifest.faults (Strudel.Site.manifest built)));
    let located = List.map (fun (f : Fault.report) -> (f.Fault.f_location, f.Fault.f_cause)) in
    Alcotest.(check (list (pair string string)))
      (what ^ ": the fault a cold build records")
      (located (Fault.reports cold_fault))
      (located built.Strudel.Site.faults)
  in
  check "first publish";
  Fault.clear fault;
  Delta.Rec.set_value r (Option.get (nth_member g 1)) "title"
    (Value.String "Retitled");
  (* the retitled item, its group page and the retried placeholder *)
  check_int "renders" 3 (Serve.Watch.cycle w).Serve.Watch.cy_rerendered;
  check "a retitle"

let suite =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"delta publish equals cold build (random edits, jobs=1)"
         ~count:20 ops_arb (delta_equals_cold ~jobs:1));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"delta publish equals cold build (random edits, jobs=4)"
         ~count:8 ops_arb (delta_equals_cold ~jobs:4));
    t "clean cycle publishes nothing" (fun () ->
        let g = mk_data 12 in
        let w =
          Serve.Watch.create ~source:(Serve.Watch.Direct g) definition
        in
        let r = Serve.Watch.cycle w in
        check_bool "unchanged" false r.Serve.Watch.cy_changed;
        check_int "no rerenders" 0 r.Serve.Watch.cy_rerendered);
    t "one-item edit re-renders only its neighbourhood" (fun () ->
        let g = mk_data 60 in
        let w =
          Serve.Watch.create ~source:(Serve.Watch.Direct g) definition
        in
        let r = Option.get (Serve.Watch.recorder w) in
        let o = Option.get (nth_member g 7) in
        Delta.Rec.set_value r o "title" (Value.String "Renamed");
        let rep = Serve.Watch.cycle w in
        check_bool "changed" true rep.Serve.Watch.cy_changed;
        check_bool "few pages re-rendered" true
          (rep.Serve.Watch.cy_rerendered * 4
           < rep.Serve.Watch.cy_rerendered + rep.Serve.Watch.cy_reused);
        check_bool "most pages reused" true (rep.Serve.Watch.cy_reused > 50);
        let cold = Strudel.Site.build ~data:g definition in
        check_bool "byte-identical" true
          (page_map (Serve.Watch.built w).Strudel.Site.site
           = page_map cold.Strudel.Site.site));
    t "kill switch: full re-derive stays byte-identical" (fun () ->
        Fun.protect
          ~finally:(fun () -> Struql.Exec.delta_enabled := true)
          (fun () ->
            Struql.Exec.delta_enabled := false;
            check_bool "identical with delta disabled" true
              (delta_equals_cold ~jobs:1
                 [ Add 1; Remove 3; Retitle (2, "Tx"); Empty_collection;
                   Add 2 ])));
    t "counters advance across cycles" (fun () ->
        let g = mk_data 20 in
        let w =
          Serve.Watch.create ~source:(Serve.Watch.Direct g) definition
        in
        let r = Option.get (Serve.Watch.recorder w) in
        let o = Option.get (nth_member g 3) in
        Delta.Rec.set_value r o "title" (Value.String "X");
        ignore (Serve.Watch.cycle w);
        let c = Struql.Dexec.counters (Serve.Watch.engine w) in
        check_bool "cycles counted" true (c.Struql.Dexec.c_cycles >= 1);
        check_bool "drivers counted" true (c.Struql.Dexec.c_drivers >= 1);
        check_bool "rows counted" true (c.Struql.Dexec.c_rows >= 1));
    (* --- fallback taxonomy --- *)
    t "aggregates classify as fallback" (fun () ->
        let dx, classes =
          classes_of
            [
              {|WHERE Items(i), i -> "grp" -> g
                CREATE Y(g) LINK Y(g) -> "n" -> count(i)
                COLLECT Ys(Y(g)) OUTPUT o|};
            ]
            (mk_data 6)
        in
        check_bool "fallback" true (has_fallback classes);
        check_bool "reason recorded" true (Struql.Dexec.fallbacks dx <> []));
    t "negation classifies as fallback" (fun () ->
        let _, classes =
          classes_of
            [
              {|WHERE Items(i), not(i -> "tag" -> "old")
                CREATE P(i) COLLECT Ps(P(i)) OUTPUT o|};
            ]
            (mk_data 6)
        in
        check_bool "fallback" true (has_fallback classes));
    t "non-derived data read classifies as fallback" (fun () ->
        (* x is bound by a comparison with a literal, not derived from
           the driver: reads from x escape delta invalidation and the
           block must replay in full *)
        let _, classes =
          classes_of
            [
              {|WHERE Items(i), i -> "title" -> t, t = "Item 001",
                      Items(j), j -> "grp" -> h
                CREATE Q(h) COLLECT Qs(Q(h)) OUTPUT o|};
            ]
            (mk_data 6)
        in
        check_bool "fallback" true (has_fallback classes));
    t "driving-collection scan classifies as driven" (fun () ->
        let _, classes =
          classes_of [ site_query ] (mk_data 6)
        in
        check_bool "some block driven" true
          (List.exists
             (fun (_, c) ->
               String.length c >= 6 && String.sub c 0 6 = "driven")
             classes));
    (* --- mediated mode --- *)
    t "warehouse refresh_delta: None when clean, rebased when stale"
      (fun () ->
        let src =
          Mediator.Source.make ~name:"s" (fun () ->
              let g = Graph.create ~name:"S" () in
              let a = Oid.fresh "a" in
              Graph.add_node g a;
              Graph.add_edge g a "title" (Graph.V (Value.String "A"));
              Graph.add_to_collection g "Items" a;
              g)
        in
        let copy =
          Mediator.Gav.mapping_of_string ~source:"s"
            {|WHERE Items(x), x -> l -> v, isAtomic(v)
              CREATE It(x) LINK It(x) -> l -> v
              COLLECT Items(It(x)) OUTPUT mediated|}
        in
        let w =
          Mediator.Warehouse.create ~sources:[ src ] ~mappings:[ copy ] ()
        in
        check_bool "clean -> None" true
          (Mediator.Warehouse.refresh_delta w = None);
        let before =
          Option.get (Graph.find_node (Mediator.Warehouse.graph w) "It(a)")
        in
        Mediator.Source.update src (fun () ->
            let g = Graph.create ~name:"S" () in
            let a = Oid.fresh "a" and b = Oid.fresh "b" in
            Graph.add_node g a;
            Graph.add_node g b;
            Graph.add_edge g a "title" (Graph.V (Value.String "A"));
            Graph.add_edge g b "title" (Graph.V (Value.String "B"));
            Graph.add_to_collection g "Items" a;
            Graph.add_to_collection g "Items" b;
            g);
        (match Mediator.Warehouse.refresh_delta w with
         | None -> Alcotest.fail "stale warehouse returned no delta"
         | Some d ->
           check_bool "delta not empty" false (Delta.is_empty d));
        let after =
          Option.get (Graph.find_node (Mediator.Warehouse.graph w) "It(a)")
        in
        check_bool "surviving node keeps its oid (rebase)" true
          (Oid.equal before after));
    t "mediated org watch: delta cycle equals cold build" (fun () ->
        let sources, w =
          Sites.Org.data ~people:24 ~orgs:4 ~projects:6 ~pubs:8 ()
        in
        let session =
          Serve.Watch.create ~source:(Serve.Watch.Mediated w)
            Sites.Org.definition
        in
        let r0 = Serve.Watch.cycle session in
        check_bool "initially clean" false r0.Serve.Watch.cy_changed;
        Mediator.Source.update sources.Sites.Org.bib (fun () ->
            fst
              (Wrappers.Bibtex.load ~graph_name:"BIB"
                 (Wrappers.Synth.bibtex ~seed:99 ~entries:10 ())));
        let r1 = Serve.Watch.cycle session in
        check_bool "changed" true r1.Serve.Watch.cy_changed;
        let cold =
          Strudel.Site.build
            ~data:(Mediator.Warehouse.graph w)
            Sites.Org.definition
        in
        check_bool "byte-identical to cold build" true
          (page_map (Serve.Watch.built session).Strudel.Site.site
           = page_map cold.Strudel.Site.site));
    t "watch survives a quarantined source and reports it" (fun () ->
        let fault = Fault.ctx () in
        let flaky_down = ref false in
        let mk_graph () =
          let g = Graph.create ~name:"S" () in
          List.iter
            (fun n ->
              let o = Oid.fresh n in
              Graph.add_node g o;
              Graph.add_edge g o "title" (Graph.V (Value.String n));
              Graph.add_edge g o "grp" (Graph.V (Value.String "G0"));
              Graph.add_to_collection g "Items" o)
            [ "i1"; "i2"; "i3" ];
          g
        in
        let src =
          Mediator.Source.make
            ~policy:(Fault.Policy.skip_source ~retry:Fault.Policy.no_retry ())
            ~name:"flaky"
            (fun () ->
              if !flaky_down then failwith "socket timeout" else mk_graph ())
        in
        let copy =
          Mediator.Gav.mapping_of_string ~source:"flaky"
            {|WHERE Items(x), x -> l -> v, isAtomic(v)
              CREATE It(x) LINK It(x) -> l -> v
              COLLECT Items(It(x)) OUTPUT mediated|}
        in
        let w =
          Mediator.Warehouse.create ~fault ~sources:[ src ] ~mappings:[ copy ]
            ()
        in
        let definition =
          Strudel.Site.define ~name:"FLAKYSITE" ~root_family:"Root"
            ~templates
            [
              ( "site",
                {|INPUT MEDIATED
{ CREATE Root() COLLECT Roots(Root()) }
{ WHERE Items(i), i -> "grp" -> g
  CREATE GroupPage(g), ItemPage(i)
  LINK GroupPage(g) -> "Name" -> g,
       GroupPage(g) -> "Item" -> ItemPage(i),
       ItemPage(i) -> "Group" -> GroupPage(g),
       Root() -> "Group" -> GroupPage(g)
  COLLECT GroupPages(GroupPage(g)), ItemPages(ItemPage(i))
  { WHERE i -> l -> v LINK ItemPage(i) -> l -> v } }
OUTPUT SITE|} );
            ]
        in
        let session =
          Serve.Watch.create ~fault ~source:(Serve.Watch.Mediated w)
            definition
        in
        let pages_before =
          List.length
            (Serve.Watch.built session).Strudel.Site.site
              .Template.Generator.pages
        in
        check_bool "cold build has item pages" true (pages_before > 3);
        flaky_down := true;
        Mediator.Source.update src (fun () ->
            failwith "update loader must not run");
        let r = Serve.Watch.cycle session in
        check_bool "quarantine reported" true
          (List.exists (fun (s, _) -> s = "flaky") r.Serve.Watch.cy_quarantined);
        (* the skip policy drops the source's data for this integration;
           the published site must match a cold build of whatever the
           warehouse now serves -- degraded, never wedged *)
        let cold =
          Strudel.Site.build ~data:(Mediator.Warehouse.graph w) definition
        in
        check_bool "still byte-identical under quarantine" true
          (page_map (Serve.Watch.built session).Strudel.Site.site
           = page_map cold.Strudel.Site.site));
    (* --- one classifier behind every delta surface --- *)
    t "explain-analyze, Dexec and SA070 agree on every bundled site" (fun () ->
        let views =
          List.map (fun (site, spec) -> (site, surfaces (spec ())))
            Sites.Lint_specs.by_name
        in
        let pick f = List.map (fun (site, v) -> (site, f v)) views in
        let check what =
          Alcotest.(check (list (pair string (list string)))) what
            (pick (fun (_, engine, _) -> engine))
        in
        check "explain-analyze = Dexec" (pick (fun (analyze, _, _) -> analyze));
        check "SA070 = Dexec" (pick (fun (_, _, lint) -> lint)));
    (* --- the structural diff and delta cardinality --- *)
    t "diff of a rebased export: one retitle, one reordered bucket" (fun () ->
        let export ~title ~xy =
          let g = Graph.create ~name:"D" () in
          let a = Oid.fresh "a" and b = Oid.fresh "b" and c = Oid.fresh "c" in
          Graph.add_edge g a "title" (Graph.V (Value.String title));
          List.iter
            (fun (l, n) -> Graph.add_edge g b l (Graph.V (Value.Int n)))
            (if xy then [ ("x", 1); ("y", 2) ] else [ ("y", 2); ("x", 1) ]);
          Graph.add_edge g c "title" (Graph.V (Value.String "C"));
          Graph.add_edge g c "next" (Graph.N a);
          List.iter (Graph.add_to_collection g "Items") [ a; b; c ];
          g
        in
        let old = export ~title:"A" ~xy:true in
        let rebased =
          Delta.rebase ~old (export ~title:"A2" ~xy:false)
        in
        let d = Delta.diff ~old rebased in
        Alcotest.(check (list string)) "one edge removed" [ {|a.title="A"|} ]
          (show_edges d.Delta.edges_removed);
        Alcotest.(check (list string)) "one edge added" [ {|a.title="A2"|} ]
          (show_edges d.Delta.edges_added);
        Alcotest.(check (list string)) "one bucket resequenced" [ "b" ]
          (List.map Oid.name d.Delta.resequenced);
        check_int "nothing else changed" 3 (Delta.card d));
    t "card counts a reorder-only delta" (fun () ->
        let d = { Delta.empty with Delta.reordered = [ "Items" ] } in
        check_bool "not empty" false (Delta.is_empty d);
        check_int "one order signal" 1 (Delta.card d));
    (* --- state carried across cycles --- *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"every cycle equals cold build (one cycle per edit, jobs=1)"
         ~count:15 long_ops_arb every_cycle_equals_cold);
    t "mediated org watch: three exports, each cycle equals cold build"
      (fun () ->
        let sources, w =
          Sites.Org.data ~people:24 ~orgs:4 ~projects:6 ~pubs:8 ()
        in
        let session =
          Serve.Watch.create ~source:(Serve.Watch.Mediated w)
            Sites.Org.definition
        in
        List.iter
          (fun seed ->
            Mediator.Source.update sources.Sites.Org.bib (fun () ->
                fst
                  (Wrappers.Bibtex.load ~graph_name:"BIB"
                     (Wrappers.Synth.bibtex ~seed ~entries:10 ())));
            let r = Serve.Watch.cycle session in
            check_bool "changed" true r.Serve.Watch.cy_changed;
            let cold =
              Strudel.Site.build
                ~data:(Mediator.Warehouse.graph w)
                Sites.Org.definition
            in
            check_bool
              (Printf.sprintf "export %d byte-identical to cold build" seed)
              true
              (page_map (Serve.Watch.built session).Strudel.Site.site
               = page_map cold.Strudel.Site.site))
          [ 99; 100; 101 ]);
    t "moving a group's first driver re-sorts its shared edges" (fun () ->
        (* item2 is the first driver of group G2: removing it, or moving
           it to G0, moves Root's G2 edge and GroupPages' G2 member to
           item5's position *)
        check_bool "removed: pages and site graph equal cold" true
          (every_cycle_equals_cold [ Remove 1 ]);
        check_bool "regrouped: pages and site graph equal cold" true
          (every_cycle_equals_cold [ Move_group (1, 0) ]));
    t "mid-extent insertions past the rank gap keep cold order" (fun () ->
        (* every insertion lands right after the first driver, halving
           the same rank gap until it overflows and the block's ranks
           are renumbered under positions cached with the old ones *)
        let q = parse site_query in
        let data = ref (mk_data 4) in
        let dx = Struql.Dexec.create ~queries:[ q ] !data in
        Struql.Dexec.prime dx;
        for k = 1 to 12 do
          let prev = !data in
          let next = Graph.copy prev in
          let o = Oid.fresh (Printf.sprintf "mid%d" k) in
          Graph.add_edge next o "title"
            (Graph.V (Value.String (Printf.sprintf "Mid %d" k)));
          Graph.add_edge next o "grp"
            (Graph.V (Value.String (Printf.sprintf "M%d" k)));
          (match Graph.collection prev "Items" with
           | first :: rest ->
             Graph.set_collection next "Items" (first :: o :: rest)
           | [] -> assert false);
          ignore
            (Struql.Dexec.apply ~data:next dx (Delta.diff ~old:prev next));
          data := next;
          check_bool
            (Printf.sprintf "insertion %d: site graph in cold order" k)
            true
            (shape (Struql.Dexec.site_graph dx)
             = shape (Struql.Exec.run next q))
        done);
    t "event table stays bounded over 50 retitle cycles" (fun () ->
        let g = mk_data 30 in
        let w =
          Serve.Watch.create ~source:(Serve.Watch.Direct g) definition
        in
        let c = Struql.Dexec.counters (Serve.Watch.engine w) in
        let primed = c.Struql.Dexec.c_events_live in
        check_bool "primed events live" true (primed > 0);
        let r = Option.get (Serve.Watch.recorder w) in
        for i = 1 to 50 do
          let o = Option.get (nth_member g i) in
          Delta.Rec.set_value r o "title"
            (Value.String (Printf.sprintf "Title %d" i));
          ignore (Serve.Watch.cycle w)
        done;
        check_int "50 cycles" 50 c.Struql.Dexec.c_cycles;
        check_bool "events retracted" true
          (c.Struql.Dexec.c_events_removed > 0);
        check_int "live events as after prime" primed
          c.Struql.Dexec.c_events_live;
        check_bool "ids bounded" true
          (c.Struql.Dexec.c_event_ids <= primed + 2));
    t "events drained and re-added 300 times reuse their ids" (fun () ->
        let g = mk_data 30 in
        let w =
          Serve.Watch.create ~source:(Serve.Watch.Direct g) definition
        in
        let c = Struql.Dexec.counters (Serve.Watch.engine w) in
        let primed = c.Struql.Dexec.c_events_live in
        let r = Option.get (Serve.Watch.recorder w) in
        let o = Option.get (nth_member g 3) in
        let drain_and_re_add () =
          Delta.Rec.remove_from_collection r "Items" o;
          ignore (Serve.Watch.cycle w);
          check_bool "drained" true (c.Struql.Dexec.c_events_live < primed);
          Delta.Rec.add_to_collection r "Items" o;
          ignore (Serve.Watch.cycle w)
        in
        drain_and_re_add ();
        let ids = c.Struql.Dexec.c_event_ids in
        for _ = 2 to 300 do
          drain_and_re_add ()
        done;
        check_int "live events as after prime" primed
          c.Struql.Dexec.c_events_live;
        check_int "no id past the first round's" ids c.Struql.Dexec.c_event_ids;
        let cold = Strudel.Site.build ~data:g definition in
        check_bool "pages equal cold" true
          (page_map (Serve.Watch.built w).Strudel.Site.site
           = page_map cold.Strudel.Site.site));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"live events = a cold run's distinct events, by value identity"
         ~count:100 identity_arb live_events_match_cold);
    t "a primed site graph equals a cold build's in every index order"
      (fun () ->
        let g = mk_data 30 in
        let w = Serve.Watch.create ~source:(Serve.Watch.Direct g) definition in
        let cold = Strudel.Site.build ~data:g definition in
        check_shape "static and driven blocks"
          (view_shape cold.Strudel.Site.site_graph)
          (view_shape (Struql.Dexec.site_graph (Serve.Watch.engine w)));
        let _, wh = Sites.Org.data ~people:24 ~orgs:4 ~projects:6 ~pubs:8 () in
        let w =
          Serve.Watch.create ~source:(Serve.Watch.Mediated wh)
            Sites.Org.definition
        in
        check_bool "org has fallback blocks" true
          (Struql.Dexec.fallbacks (Serve.Watch.engine w) <> []);
        check_shape "static, driven and fallback blocks"
          (view_shape
             (Strudel.Site.build ~data:(Mediator.Warehouse.graph wh)
                Sites.Org.definition)
               .Strudel.Site.site_graph)
          (view_shape (Struql.Dexec.site_graph (Serve.Watch.engine w))));
    t "a watch session parses each template once over 20 retitle cycles"
      (fun () ->
        let g = mk_data 30 in
        let parsed0 = Template.Generator.templates_parsed () in
        let w = Serve.Watch.create ~source:(Serve.Watch.Direct g) definition in
        let r = Option.get (Serve.Watch.recorder w) in
        for i = 1 to 20 do
          let o = Option.get (nth_member g i) in
          Delta.Rec.set_value r o "title"
            (Value.String (Printf.sprintf "Retitled %d" i));
          check_bool "pages re-rendered" true
            ((Serve.Watch.cycle w).Serve.Watch.cy_rerendered > 0)
        done;
        check_int "three templates, one parse each" 3
          (Template.Generator.templates_parsed () - parsed0));
      (* --- read depth: blocks one and many hops past the driver --- *)
    t "read depths: 0, 1 and unbounded" (fun () ->
        let _, classes = classes_of [ site_query ] (mk_data 6) in
        Alcotest.(check (list string))
          "classes"
          [
            "static";
            "driven by Items(i), read depth 0";
            "driven by Items(i), read depth 1";
            "driven by Items(i), read depth unbounded";
          ]
          (List.map snd classes));
    t "owner edits re-derive the items reading one and more hops away"
      (fun () ->
        (* own0 is an item's owner (1 hop) and, through "parent", the
           grand-...-parent of the rest (2 to 4 hops) *)
        check_bool "pages and site graph equal cold" true
          (every_cycle_equals_cold
             [
               Retitle_owner (0, "Oa");
               Retitle_owner (3, "Ob");
               Relink (5, 2);
               Retitle_owner (1, "Oc");
             ]));
    t "rebase keeps every index bucket's insertion order" (fun () ->
        let export () =
          let g = Graph.create ~name:"D" () in
          let a = Oid.fresh "a" and b = Oid.fresh "b" in
          List.iter
            (fun (o, n) -> Graph.add_edge g o "x" (Graph.V (Value.Int n)))
            [ (a, 1); (b, 2); (a, 3) ];
          Graph.add_edge g b "y" (Graph.N a);
          Graph.add_edge g a "y" (Graph.N a);
          g
        in
        let fresh = export () in
        let rebased = Delta.rebase ~old:(export ()) fresh in
        check_shape "same order as the graph replayed" (view_shape fresh)
          (view_shape rebased);
        Alcotest.(check (list string))
          "label extent x" [ "a=1"; "b=2"; "a=3" ]
          (List.map
             (fun (o, tg) -> Oid.name o ^ "=" ^ Fmt.str "%a" Graph.pp_target tg)
             (Graph.label_extent rebased "x")));
    (* --- the mediated refresh --- *)
    t "refreshed view equals a fresh integration, source by source"
      (fun () ->
        let s = org_sources () in
        let w = Sites.Org.warehouse s in
        List.iter
          (fun (name, src, export) ->
            Mediator.Source.update src export;
            ignore (Option.get (Mediator.Warehouse.refresh_delta w));
            check_shape
              (name ^ " export: refreshed = fresh")
              (view_shape (Mediator.Warehouse.graph (fresh_warehouse s)))
              (view_shape (Mediator.Warehouse.graph w)))
          Sites.Org.
            [
              ("rdb", s.rdb, rdb_export);
              ("projects", s.projects, projects_export);
              ("bib", s.bib, bib_export ~keys:"" ~titles:3);
              ("html", s.html, html_export);
            ]);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:
           "every refresh equals a fresh integration and replays exactly \
            the mappings whose sources did not change"
         ~count:12 refresh_script_arb refresh_replays_exactly);
    t "a source graph mutated in place is mapped again" (fun () ->
        let g = valued "d" [ "A"; "B" ] in
        let c = Oid.fresh "c" in
        Graph.add_edge g c "title" (Graph.V (Value.String "C"));
        let src = Mediator.Source.of_graph ~name:"d" g in
        let mk () =
          Mediator.Warehouse.create ~sources:[ src ]
            ~mappings:
              [
                Mediator.Gav.copy_collection ~source:"d" ~collection:"Items"
                  ();
              ]
            ()
        in
        let w = mk () in
        let step what expected mutate =
          mutate ();
          Mediator.Source.update src (fun () -> g);
          ignore (Option.get (Mediator.Warehouse.refresh_delta w));
          check_runs what [ expected ] w;
          check_fresh what w (mk ())
        in
        step "untouched" Mediator.Gav.Replayed ignore;
        step "an edge added" Mediator.Gav.Ran (fun () ->
            Graph.add_edge g c "title" (Graph.V (Value.String "C2")));
        step "a member added" Mediator.Gav.Ran (fun () ->
            Graph.add_to_collection g "Items" c));
    t "a \"*\" mapping runs at every refresh, over what a source gains"
      (fun () ->
        let a =
          Mediator.Source.make ~name:"a" (fun () -> valued "a" [ "A0"; "A1" ])
        in
        let b =
          Mediator.Source.make ~name:"b" (fun () ->
              valued ~coll:"Other" ~label:"name" "b" [ "B0" ])
        in
        let mappings =
          [
            Mediator.Gav.copy_collection ~source:"a" ~collection:"Items" ();
            Mediator.Gav.copy_collection ~source:"b" ~collection:"Other" ();
            Mediator.Gav.mapping_of_string ~source:"*"
              {|WHERE Items(x), x -> "title" -> t
                CREATE Titled(x) LINK Titled(x) -> "title" -> t
                COLLECT Titles(Titled(x)) OUTPUT mediated|};
          ]
        in
        let mk () = Mediator.Warehouse.create ~sources:[ a; b ] ~mappings () in
        let w = mk () in
        Mediator.Source.update b (fun () ->
            valued ~coll:"Other" ~label:"name" "b" [ "B0 renamed" ]);
        ignore (Option.get (Mediator.Warehouse.refresh_delta w));
        check_runs "b renamed" Mediator.Gav.[ Replayed; Ran; Ran ] w;
        check_fresh "b renamed" w (mk ());
        Mediator.Source.update b (fun () ->
            let g = valued ~coll:"Other" ~label:"name" "b" [ "B0 renamed" ] in
            let o = Oid.fresh "b-item" in
            Graph.add_edge g o "title" (Graph.V (Value.String "B's item"));
            Graph.add_to_collection g "Items" o;
            g);
        ignore (Option.get (Mediator.Warehouse.refresh_delta w));
        check_runs "b gains an item" Mediator.Gav.[ Replayed; Ran; Ran ] w;
        check_fresh "b gains an item" w (mk ()));
    t "a skipped source's mappings are skipped, and run when it recovers"
      (fun () ->
        let flaky =
          Mediator.Source.make
            ~policy:(Fault.Policy.skip_source ~retry:Fault.Policy.no_retry ())
            ~name:"flaky"
            (fun () -> valued "f" [ "F0"; "F1" ])
        in
        let good =
          Mediator.Source.make ~name:"good" (fun () -> valued "g" [ "G0" ])
        in
        let mk () =
          Mediator.Warehouse.create ~fault:(Fault.ctx ())
            ~sources:[ flaky; good ]
            ~mappings:
              [
                Mediator.Gav.copy_collection ~source:"flaky" ~collection:"Items"
                  ~fn:"F" ();
                Mediator.Gav.copy_collection ~source:"good" ~collection:"Items"
                  ~fn:"G" ();
              ]
            ()
        in
        let w = mk () in
        Mediator.Source.update flaky (fun () -> failwith "socket timeout");
        ignore (Option.get (Mediator.Warehouse.refresh_delta w));
        check_runs "quarantined" Mediator.Gav.[ Skipped; Replayed ] w;
        check_fresh "quarantined" w (mk ());
        Mediator.Source.update flaky (fun () -> valued "f" [ "F0"; "F1 new" ]);
        ignore (Option.get (Mediator.Warehouse.refresh_delta w));
        check_runs "recovered" Mediator.Gav.[ Ran; Replayed ] w;
        check_fresh "recovered" w (mk ()));
    t "an addition two mappings share outlives the first one dropping it"
      (fun () ->
        let keyed prefix keys = valued ~label:"key" prefix keys in
        let a =
          Mediator.Source.make ~name:"a" (fun () -> keyed "a" [ "k1"; "k2" ])
        in
        let b = Mediator.Source.make ~name:"b" (fun () -> keyed "b" [ "k1" ]) in
        let keys source =
          Mediator.Gav.mapping_of_string ~source
            {|WHERE Items(x), x -> "key" -> k
              CREATE Key(k) LINK Key(k) -> "name" -> k
              COLLECT Keys(Key(k)) OUTPUT mediated|}
        in
        let mk () =
          Mediator.Warehouse.create ~sources:[ a; b ]
            ~mappings:[ keys "a"; keys "b" ] ()
        in
        let w = mk () in
        Mediator.Source.update a (fun () -> keyed "a" [ "k2" ]);
        ignore (Option.get (Mediator.Warehouse.refresh_delta w));
        check_runs "a dropped k1" Mediator.Gav.[ Ran; Replayed ] w;
        check_fresh "a dropped k1" w (mk ()));
    t "a title-only export keeps every mediated oid" (fun () ->
        let s = org_sources () in
        let w = Sites.Org.warehouse s in
        Mediator.Source.update s.Sites.Org.bib (bib_export ~keys:"" ~titles:0);
        ignore (Mediator.Warehouse.refresh_delta w);
        let before = Mediator.Warehouse.graph w in
        Mediator.Source.update s.Sites.Org.bib (bib_export ~keys:"" ~titles:5);
        let d = Option.get (Mediator.Warehouse.refresh_delta w) in
        let after = Mediator.Warehouse.graph w in
        check_bool "the export changed edges" true (d.Delta.edges_added <> []);
        check_bool "no node came or went" true
          (d.Delta.nodes_added = [] && d.Delta.nodes_removed = []);
        check_bool "same oids, same order" true
          (List.equal Oid.equal (Graph.nodes before) (Graph.nodes after)));
    t "mediation scope holds one integration over 50 re-keyed exports"
      (fun () ->
        let s = org_sources () in
        let w = Sites.Org.warehouse s in
        let terms = Mediator.Warehouse.scope_size w in
        let words () = Obj.reachable_words (Obj.repr w) in
        let held = words () in
        for k = 1 to 50 do
          Mediator.Source.update s.Sites.Org.bib
            (bib_export ~keys:(Printf.sprintf "r%d" k) ~titles:0);
          ignore (Mediator.Warehouse.refresh_delta w)
        done;
        check_int "as many terms as a fresh integration"
          (Mediator.Warehouse.scope_size (fresh_warehouse s))
          (Mediator.Warehouse.scope_size w);
        check_int "as many terms as at the start" terms
          (Mediator.Warehouse.scope_size w);
        check_bool "the warehouse's heap does not grow with exports" true
          (words () * 2 < held * 3));
    t "a quarantined source contributes nothing to the delta" (fun () ->
        let fault = Fault.ctx () in
        let items prefix titles =
          let g = Graph.create ~name:prefix () in
          List.iteri
            (fun i title ->
              let o = Oid.fresh (Printf.sprintf "%s%d" prefix i) in
              Graph.add_edge g o "title" (Graph.V (Value.String title));
              Graph.add_to_collection g "Items" o)
            titles;
          g
        in
        let down = ref false in
        let flaky =
          Mediator.Source.make
            ~policy:(Fault.Policy.stale ~retry:Fault.Policy.no_retry 1)
            ~name:"flaky"
            (fun () ->
              if !down then failwith "socket timeout"
              else items "f" [ "F0"; "F1" ])
        in
        let good =
          Mediator.Source.make ~name:"good" (fun () -> items "g" [ "G0"; "G1" ])
        in
        let copy source fn =
          Mediator.Gav.mapping_of_string ~source
            (Printf.sprintf
               {|WHERE Items(x), x -> l -> v
                 CREATE %s(x) LINK %s(x) -> l -> v
                 COLLECT Items(%s(x)) OUTPUT mediated|}
               fn fn fn)
        in
        let w =
          Mediator.Warehouse.create ~fault ~sources:[ flaky; good ]
            ~mappings:[ copy "flaky" "F"; copy "good" "G" ]
            ()
        in
        down := true;
        Mediator.Source.update flaky (fun () -> failwith "socket timeout");
        Mediator.Source.update good (fun () -> items "g" [ "G0"; "G1 new" ]);
        let d = Option.get (Mediator.Warehouse.refresh_delta w) in
        check_bool "flaky quarantined" true
          (List.exists
             (fun (st : Mediator.Warehouse.source_stat) ->
               st.ss_source = "flaky"
               && match st.ss_outcome with
                  | Mediator.Warehouse.Quarantined _ -> true
                  | _ -> false)
             (Mediator.Warehouse.last_refresh w));
        Alcotest.(check (list string))
          "only the good source's objects moved" [ "G(g1)" ]
          (List.sort_uniq compare
             (List.map Oid.name (Oid.Set.elements (Delta.touched d)))));
    t "an org export retitling 10 entries re-derives 10 drivers" (fun () ->
        let session, _, r, cold = org_ten_retitles () in
        check_int "drivers re-derived" 10 r.Serve.Watch.cy_drivers;
        check_bool "byte-identical to cold build" true
          (page_map (Serve.Watch.built session).Strudel.Site.site
           = page_map cold.Strudel.Site.site));
    (* --- the exact dirty set --- *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"touched and removed are exactly the changed site nodes"
         ~count:15 long_ops_arb dirty_set_exact);
    t "an org export retitling 10 entries touches 10 site nodes" (fun () ->
        (* the fallback replays note every node they re-emit; only the
           retitled publications' presentation nodes change *)
        let session, store, r, cold = org_ten_retitles () in
        check_int "touched" 10 r.Serve.Watch.cy_touched;
        check_int "removed" 0 r.Serve.Watch.cy_removed;
        check_bool "the sink holds the cold build" true
          (store_holds store cold.Strudel.Site.site);
        check_bool "only re-rendered pages were re-emitted" true
          (r.Serve.Watch.cy_rerendered < page_count session));
    (* --- fallback replays --- *)
    t "an org retitle export replays no fallback and 3 of 10 mappings run"
      (fun () ->
        let session, _, r, cold = org_ten_retitles () in
        Alcotest.(check (list (pair string string)))
          "fallbacks replayed" [] r.Serve.Watch.cy_fallbacks;
        Alcotest.(check (option (pair int int)))
          "mappings ran" (Some (3, 10)) r.Serve.Watch.cy_mapped;
        let line = Fmt.str "%a" Serve.Watch.pp_report r in
        check_bool "the cycle line says mapped=3/10" true
          (replace ~sub:" mapped=3/10 " ~by:"" line <> line);
        check_bool "byte-identical to cold build" true
          (page_map (Serve.Watch.built session).Strudel.Site.site
           = page_map cold.Strudel.Site.site));
    t "an org export moving a person's area replays the area block" (fun () ->
        let s = org_sources () in
        let w = Sites.Org.warehouse s in
        let session =
          Serve.Watch.create ~source:(Serve.Watch.Mediated w)
            Sites.Org.definition
        in
        Mediator.Source.update s.Sites.Org.rdb (export_loader (Move 3));
        let r = Serve.Watch.cycle session in
        check_bool "q1.5 replayed" true
          (List.mem_assoc "q1.5" r.Serve.Watch.cy_fallbacks);
        let cold =
          Strudel.Site.build ~data:(Mediator.Warehouse.graph w)
            Sites.Org.definition
        in
        check_bool "byte-identical to cold build" true
          (page_map (Serve.Watch.built session).Strudel.Site.site
           = page_map cold.Strudel.Site.site));
    t "rows exported in another order replay a label-scanning fallback"
      (fun () ->
        let rows order () =
          let g = Graph.create ~name:"ROWS" () in
          List.iter
            (fun i ->
              let o = Oid.fresh (Printf.sprintf "r%d" i) in
              Graph.add_edge g o "v"
                (Graph.V (Value.String (Printf.sprintf "row %d" i)));
              Graph.add_to_collection g "Items" o)
            order;
          g
        in
        let src = Mediator.Source.make ~name:"rows" (rows [ 0; 1; 2; 3; 4 ]) in
        let w =
          Mediator.Warehouse.create ~sources:[ src ]
            ~mappings:[ extent_mapping ] ()
        in
        let session =
          Serve.Watch.create ~source:(Serve.Watch.Mediated w) extent_definition
        in
        check_bool "the block is a fallback" true
          (has_fallback (Struql.Dexec.classes (Serve.Watch.engine session)));
        Mediator.Source.update src (rows [ 4; 3; 2; 1; 0 ]);
        let r = Serve.Watch.cycle session in
        check_bool "the fallback replayed" true
          (r.Serve.Watch.cy_fallbacks <> []);
        let cold =
          Strudel.Site.build ~data:(Mediator.Warehouse.graph w)
            extent_definition
        in
        check_bool "byte-identical to cold build" true
          (page_map (Serve.Watch.built session).Strudel.Site.site
           = page_map cold.Strudel.Site.site));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300
         ~name:"diff = the reference diff on random graph pairs, order signals \
                included"
         graph_pair_arb diff_agrees);
    t "diff reports the labels whose surviving edges changed order" (fun () ->
        let a = Oid.fresh "a" and b = Oid.fresh "b" and c = Oid.fresh "c" in
        let mk edges =
          let g = Graph.create ~name:"L" () in
          List.iter
            (fun (o, l, n) -> Graph.add_edge g o l (Graph.V (Value.Int n)))
            edges;
          g
        in
        let old = mk [ (a, "l", 1); (b, "l", 2); (c, "l", 3); (a, "m", 1) ] in
        let reordered d = d.Delta.label_reordered in
        let labels = Alcotest.(check (list string)) in
        let d =
          Delta.diff ~old
            (mk [ (b, "l", 2); (a, "l", 1); (c, "l", 3); (a, "m", 1) ])
        in
        labels "swapped survivors" [ "l" ] (reordered d);
        check_bool "no edge moved" true
          (d.Delta.edges_added = [] && d.Delta.edges_removed = []);
        labels "one removed, the rest in order" []
          (reordered
             (Delta.diff ~old (mk [ (a, "l", 1); (c, "l", 3); (a, "m", 1) ])));
        labels "one replaced, survivors swapped" [ "l" ]
          (reordered
             (Delta.diff ~old
                (mk [ (c, "l", 3); (a, "l", 1); (b, "l", 9); (a, "m", 1) ])));
        let r = Delta.Rec.create old in
        Delta.Rec.remove_edge r a "l" (Graph.V (Value.Int 1));
        Delta.Rec.add_edge r a "l" (Graph.V (Value.Int 1));
        labels "a recorder reports none" [] (reordered (Delta.Rec.flush r)));
    (* --- constraint verdicts --- *)
    t "every cycle's verdicts equal a cold build's across structural cycles"
      (fun () ->
        let s = org_sources () in
        let w = Sites.Org.warehouse s in
        let session =
          Serve.Watch.create ~source:(Serve.Watch.Mediated w)
            Sites.Org.definition
        in
        let org, empty_it = emptied_org () in
        let violated = ref false in
        List.iter
          (fun (what, source, export) ->
            Mediator.Source.update source export;
            ignore (Serve.Watch.cycle session);
            let cold =
              Strudel.Site.build ~data:(Mediator.Warehouse.graph w)
                Sites.Org.definition
            in
            let kept = (Serve.Watch.built session).Strudel.Site.verification in
            if Strudel.Site.violations cold <> [] then violated := true;
            Alcotest.(check (list string))
              (what ^ ": verdicts = cold")
              (show_verdicts cold.Strudel.Site.verification)
              (show_verdicts kept))
          Sites.Org.
            [
              ("retitle", s.bib, bib_export ~keys:"" ~titles:2);
              (org ^ " emptied", s.rdb, empty_it);
              ("retitle", s.bib, bib_export ~keys:"" ~titles:5);
              (org ^ " restored", s.rdb, rdb_with Fun.id);
              ("retitle", s.bib, bib_export ~keys:"" ~titles:1);
            ];
        check_bool "the emptied org violated a constraint" true !violated);
    t "a new page nothing links to is checked again" (fun () ->
        let g = listing_data 3 in
        let w =
          Serve.Watch.create ~source:(Serve.Watch.Direct g) listing_definition
        in
        let r = Option.get (Serve.Watch.recorder w) in
        let cycle what edit =
          edit ();
          ignore (Serve.Watch.cycle w);
          check_listing_verdicts what w g
        in
        let item4 = Oid.fresh "item4" in
        let cold =
          cycle "an unlisted item" (fun () ->
              Delta.Rec.add_node r item4;
              Delta.Rec.add_edge r item4 "title"
                (Graph.V (Value.String "Item 4"));
              Delta.Rec.add_to_collection r "Items" item4)
        in
        check_int "its page is unreachable and lacks its link up" 2
          (List.length (Strudel.Site.violations cold));
        ignore
          (cycle "listed" (fun () -> Delta.Rec.add_edge r item4 "listed" listed));
        ignore
          (cycle "retitled" (fun () ->
               Delta.Rec.set_value r item4 "title" (Value.String "Four"))));
    t "the cycle after an Abort checks every constraint again" (fun () ->
        let g = listing_data 3 in
        let inject =
          Fault.Inject.create ~p_render:1.0 ~targets:[ "ItemPage(item2)" ] ()
        in
        Fault.Inject.disarm inject;
        let w =
          Serve.Watch.create ~fault:(Fault.ctx ~inject ())
            ~source:(Serve.Watch.Direct g) listing_definition
        in
        let r = Option.get (Serve.Watch.recorder w) in
        let item k =
          List.find
            (fun o -> Oid.name o = Printf.sprintf "item%d" k)
            (Graph.collection g "Items")
        in
        (* the raising cycle unlists item3, a structural change, and
           retitles item2, whose page then fails to render *)
        Fault.Inject.arm inject;
        Delta.Rec.remove_edge r (item 3) "listed" listed;
        Delta.Rec.set_value r (item 2) "title" (Value.String "Two");
        (match Serve.Watch.cycle w with
         | exception Fault.Inject.Injected _ -> ()
         | _ -> Alcotest.fail "the injected render fault did not raise");
        Fault.Inject.disarm inject;
        Delta.Rec.set_value r (item 1) "title" (Value.String "One");
        ignore (Serve.Watch.cycle w);
        let cold = check_listing_verdicts "after the Abort" w g in
        check_bool "the unlisted page is reported" true
          (Strudel.Site.violations cold <> []));
    (* --- the page table --- *)
    t "a new item's page joins in discovery order" (fun () ->
        let nextid = ref 0 in
        check_bool "pages, sink and site graph equal cold" true
          (each_cycle_equals_cold (mk_data 12)
             [ (fun r -> apply_op r nextid (Add 0));
               (fun r -> apply_op r nextid (Add 0)) ]));
    t "hiding a group orphans its pages, cycle and all" (fun () ->
        let g = sections_data () in
        let hide grp r =
          List.iter
            (fun i ->
              Delta.Rec.set_value r i "shown" (Value.String "no"))
            (items_of_group g grp)
        in
        let before =
          page_count
            (Serve.Watch.create ~source:(Serve.Watch.Direct (sections_data ()))
               sections_definition)
        in
        check_bool "pages, sink and site graph equal cold" true
          (each_cycle_equals_cold ~def:sections_definition g
             [ hide "G1"; hide "G2" ]);
        let cold = Strudel.Site.build ~data:g sections_definition in
        check_bool "the orphans are gone" true
          (List.length cold.Strudel.Site.site.Template.Generator.pages
           < before));
    t "a section added and one removed move the root set" (fun () ->
        let g = sections_data () in
        check_bool "pages, sink and site graph equal cold" true
          (each_cycle_equals_cold ~def:sections_definition g
             [
               (fun r ->
                 ignore
                   (add_section (Delta.Rec.add_edge r)
                      (Delta.Rec.add_to_collection r) "sec1"));
               (fun r ->
                 Delta.Rec.remove_node r
                   (Option.get
                      (List.find_opt
                         (fun s -> Oid.name s = "sec0")
                         (Graph.collection g "Sections"))));
             ]));
    t "a retitle that reorders a group's links keeps discovery order"
      (fun () ->
        let g = mk_data 12 in
        let order () =
          List.map Oid.name
            (List.map
               (fun (p : Template.Generator.page) -> p.Template.Generator.obj)
               (Strudel.Site.build ~data:g definition).Strudel.Site.site
                 .Template.Generator.pages)
        in
        let before = order () in
        check_bool "pages, sink and site graph equal cold" true
          (each_cycle_equals_cold g
             [
               (fun r ->
                 Delta.Rec.set_value r (Option.get (nth_member g 8)) "title"
                   (Value.String "A first"));
             ]);
        check_bool "discovery order moved" true (order () <> before));
    t "a placeholder is retried until its fault clears (jobs=1)"
      (placeholder_retried ~jobs:1);
    t "a placeholder is retried until its fault clears (jobs=4)"
      (placeholder_retried ~jobs:4);
    t "a placeholder is retried on a cycle that touches no site node"
      (placeholder_retried ~touching:false ~jobs:1);
    t "a slug collision publishes the oracle's pages" (fun () ->
        (* "x.y" and "x_y" share the slug of their item pages: the
           collision is there from the start, goes away with "x_y" and
           comes back with it *)
        let g = mk_data 6 in
        let add_item add_edge add_coll name =
          let o = Oid.fresh name in
          add_edge o "title" (Graph.V (Value.String name));
          add_edge o "grp" (Graph.V (Value.String "G0"));
          add_coll "Items" o;
          o
        in
        let clashing =
          List.map
            (add_item (Graph.add_edge g) (Graph.add_to_collection g))
            [ "x.y"; "x_y" ]
        in
        let store, sink = store_sink () in
        let w =
          Serve.Watch.create ~sink ~source:(Serve.Watch.Direct g) definition
        in
        let r = Option.get (Serve.Watch.recorder w) in
        let step what edit =
          edit ();
          if what <> "first publish" then ignore (Serve.Watch.cycle w);
          let built = Serve.Watch.built w in
          let sg = built.Strudel.Site.site_graph in
          let oracle =
            Oracle.generate ~templates sg
              ~roots:(Strudel.Site.build_roots sg definition)
          in
          let cold = Strudel.Site.build ~data:g definition in
          check_bool (what ^ ": pages equal the oracle's") true
            (page_map built.Strudel.Site.site = page_map oracle);
          check_bool (what ^ ": pages equal cold") true
            (page_map built.Strudel.Site.site = page_map cold.Strudel.Site.site);
          check_bool (what ^ ": sink holds the oracle's") true
            (store_holds store oracle)
        in
        step "first publish" ignore;
        step "a retitle" (fun () ->
            Delta.Rec.set_value r (Option.get (nth_member g 2)) "title"
              (Value.String "Renamed"));
        step "the clash removed" (fun () ->
            Delta.Rec.remove_node r (List.nth clashing 1));
        step "a retitle without the clash" (fun () ->
            Delta.Rec.set_value r (Option.get (nth_member g 3)) "title"
              (Value.String "Renamed again"));
        step "the clash back" (fun () ->
            ignore
              (add_item (Delta.Rec.add_edge r) (Delta.Rec.add_to_collection r)
                 "x_y")));
    t "a persistent clash re-renders what the clash-free site does"
      (fun () ->
        (* synth-1 with and without the clash, the same 40 one-item
           retitles; the clash site publishes the oracle's pages *)
        let session clash =
          let g = synth_one ~clash in
          let store, sink = store_sink () in
          let w =
            Serve.Watch.create ~sink ~source:(Serve.Watch.Direct g)
              Sites.Scale.definition
          in
          (g, store, w)
        in
        let gc, store, wc = session true and gf, _, wf = session false in
        let retitle g w k =
          let o =
            Option.get (Graph.find_node g (Printf.sprintf "item%d" (25 * k)))
          in
          Delta.Rec.set_value (Option.get (Serve.Watch.recorder w)) o "title"
            (Value.String (Printf.sprintf "Retitled %d" k));
          (Serve.Watch.cycle w).Serve.Watch.cy_rerendered
        in
        check_bool "the clash renames a page" true
          (List.exists
             (fun (p : Template.Generator.page) ->
               p.Template.Generator.url = "ItemPagex_y_1.html")
             (Serve.Watch.built wc).Strudel.Site.site.Template.Generator.pages);
        for k = 0 to 39 do
          let parsed = Template.Generator.templates_parsed () in
          let clashing = retitle gc wc k and clash_free = retitle gf wf k in
          check_int
            (Printf.sprintf "cycle %d: templates parsed" k)
            parsed
            (Template.Generator.templates_parsed ());
          check_int
            (Printf.sprintf "cycle %d: pages re-rendered" k)
            clash_free clashing;
          check_bool
            (Printf.sprintf "cycle %d: pages and sink equal the oracle's" k)
            true
            (publishes_oracle ~def:Sites.Scale.definition store wc gc)
        done);
    t "a renamed placeholder keeps its assigned URL (jobs=1)"
      (renamed_placeholder ~jobs:1);
    t "a renamed placeholder keeps its assigned URL (jobs=4)"
      (renamed_placeholder ~jobs:4);
    t "the page table is idle after a clash cycle" (fun () ->
        let g = mk_data 6 in
        let add name r =
          ignore
            (add_item_raw ~name (Delta.Rec.add_node r) (Delta.Rec.add_edge r)
               (Delta.Rec.add_to_collection r) 0)
        in
        let store, sink = store_sink () in
        let w =
          Serve.Watch.create ~sink ~source:(Serve.Watch.Direct g) definition
        in
        let r = Option.get (Serve.Watch.recorder w) in
        add "x.y" r;
        add "x_y" r;
        ignore (Serve.Watch.cycle w);
        check_bool "the clash cycle publishes the oracle's pages" true
          (publishes_oracle store w g);
        (* a change no page reads keeps the publish as it is *)
        Delta.Rec.add_edge r (owners g).(0) "note"
          (Graph.V (Value.String "unread"));
        let report = Serve.Watch.cycle w in
        check_int "nothing re-rendered" 0 report.Serve.Watch.cy_rerendered;
        check_int "every page reused" (page_count w)
          report.Serve.Watch.cy_reused;
        let sg = (Serve.Watch.built w).Strudel.Site.site_graph in
        let table, _ =
          Strudel.Page_table.create ~templates ~root_family:"Root" sg
            ~roots:(Strudel.Site.build_roots sg definition)
        in
        check_bool "a table primed on the clash is idle" true
          (Strudel.Page_table.idle table);
        ignore (Strudel.Page_table.update table ~touched:[] ~removed:[]);
        check_bool "and stays idle" true (Strudel.Page_table.idle table));
    t "a flip of 0.0 to -0.0 is an edge change, pushed or refreshed"
      (fun () ->
        (* keys as the polymorphic Hashtbl compares them *)
        let key f = Graph.tkey (Graph.V (Value.Float f)) in
        check_bool "the zeros key apart" true (compare (key 0.0) (key (-0.0)) <> 0);
        check_bool "every NaN keys alike" true
          (compare (key Float.nan) (key (-.Float.nan)) = 0);
        (* the file-watch path: rebase the new export, diff, push *)
        let w =
          Serve.Watch.create ~source:(Serve.Watch.Direct (one_float 0.0 ()))
            zeros_definition
        in
        let old = Struql.Dexec.data_graph (Serve.Watch.engine w) in
        let rebased = Delta.rebase ~old (one_float (-0.0) ()) in
        let d = Delta.diff ~old rebased in
        check_bool "push: the diff lists the edge change" true (flips_zero d);
        ignore (Serve.Watch.push ~data:rebased w d);
        check_bool "push: pages equal cold" true
          (page_map (Serve.Watch.built w).Strudel.Site.site
          = page_map
              (Strudel.Site.build ~data:rebased zeros_definition)
                .Strudel.Site.site);
        (* a federated source's new export, through the warehouse *)
        let src = Mediator.Source.make ~name:"rows" (one_float 0.0) in
        let wh =
          Mediator.Warehouse.create ~sources:[ src ]
            ~mappings:[ extent_mapping ] ()
        in
        let session =
          Serve.Watch.create ~source:(Serve.Watch.Mediated wh)
            extent_definition
        in
        Mediator.Source.update src (one_float (-0.0));
        let r = Serve.Watch.cycle session in
        check_bool "refresh: changed" true r.Serve.Watch.cy_changed;
        let cold =
          Strudel.Site.build ~data:(Mediator.Warehouse.graph wh)
            extent_definition
        in
        check_bool "refresh: pages equal cold" true
          (page_map (Serve.Watch.built session).Strudel.Site.site
          = page_map cold.Strudel.Site.site);
        check_bool "refresh: the page prints -0" true
          (List.exists
             (fun (_, _, html) ->
               Test_generator.contains html "<p>-0</p>")
             (page_map cold.Strudel.Site.site)));
    t "three hundred pages on one slug URL publish the oracle's" (fun () ->
        let g = mk_data 6 in
        let add r k =
          ignore
            (add_item_raw ~name:(greek k) (Delta.Rec.add_node r)
               (Delta.Rec.add_edge r) (Delta.Rec.add_to_collection r) (3 * k))
        in
        let setup = Delta.Rec.create g in
        for k = 0 to 299 do
          add setup k
        done;
        ignore (Delta.Rec.flush setup);
        let store, sink = store_sink () in
        let w =
          Serve.Watch.create ~sink ~source:(Serve.Watch.Direct g) definition
        in
        let r = Option.get (Serve.Watch.recorder w) in
        let node k = Option.get (Graph.find_node g (greek k)) in
        check_bool "primed" true (publishes_oracle store w g);
        check_bool "the last one's URL" true
          (List.exists
             (fun (p : Template.Generator.page) ->
               p.Template.Generator.url = "ItemPagex_299.html")
             (Serve.Watch.built w).Strudel.Site.site.Template.Generator.pages);
        List.iter
          (fun (what, edit) ->
            edit ();
            ignore (Serve.Watch.cycle w);
            check_bool what true (publishes_oracle store w g))
          [
            ( "a retitle moves one page ahead of the others",
              fun () ->
                Delta.Rec.set_value r (node 150) "title"
                  (Value.String "Item 000 first") );
            ("an early page leaves", fun () -> Delta.Rec.remove_node r (node 3));
            ("it comes back", fun () -> add r 3);
            ( "a group page moves",
              fun () ->
                Delta.Rec.set_value r (node 7) "grp" (Value.String "G9") );
          ]);
    t "a watch session publishes the zero a cold build does" (fun () ->
        (* two items valued -0.0 and 0.0; once the first leaves, the
           root's value and P's page are the second's *)
        let def = zeros_definition in
        let g = Graph.create ~name:"DATA" () in
        let items =
          List.map
            (fun (name, f) ->
              let o = Graph.new_node g name in
              Graph.add_edge g o "v" (Graph.V (Value.Float f));
              Graph.add_to_collection g "Items" o;
              o)
            [ ("neg", -0.0); ("pos", 0.0) ]
        in
        let store, sink = store_sink () in
        let w = Serve.Watch.create ~sink ~source:(Serve.Watch.Direct g) def in
        Delta.Rec.remove_from_collection
          (Option.get (Serve.Watch.recorder w))
          "Items" (List.hd items);
        ignore (Serve.Watch.cycle w);
        let cold = Strudel.Site.build ~data:g def in
        let root_values (b : Strudel.Site.built) =
          let sg = b.Strudel.Site.site_graph in
          List.map
            (fun tg -> Fmt.str "%a" Graph.pp_target tg)
            (Graph.attr sg (Option.get (Graph.find_node sg "Root()")) "v")
        in
        Alcotest.(check (list string)) "a cold build's root value" [ "0.0" ]
          (root_values cold);
        Alcotest.(check (list string)) "the session's root value" [ "0.0" ]
          (root_values (Serve.Watch.built w));
        Alcotest.(check (list string))
          "the session's URLs" [ "Root.html"; "P0.html" ]
          (List.map
             (fun (p : Template.Generator.page) -> p.Template.Generator.url)
             (Serve.Watch.built w).Strudel.Site.site.Template.Generator.pages);
        check_bool "pages equal cold" true
          (page_map (Serve.Watch.built w).Strudel.Site.site
          = page_map cold.Strudel.Site.site);
        check_bool "sink holds cold" true
          (store_holds store cold.Strudel.Site.site));
    t "a render that raises under Abort leaves the next cycle correct"
      (abort_recovers ~site_node:true (fun r g ->
           Delta.Rec.set_value r (Option.get (nth_member g 9)) "title"
             (Value.String "Nine")));
    t "an edit that touches no site node after an Abort renders afresh"
      (abort_recovers ~site_node:false (fun r g ->
           Delta.Rec.add_edge r (owners g).(0) "note"
             (Graph.V (Value.String "unread"))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"jobs=1 and jobs=4 sessions publish the same pages"
         ~count:5 long_ops_arb jobs_agree);
    t "watch --out: a removal cycle leaves exactly the cold build's files"
      (fun () ->
        let dir = Filename.temp_dir "strudel-watch" "" in
        Fun.protect
          ~finally:(fun () ->
            Array.iter
              (fun f -> Sys.remove (Filename.concat dir f))
              (Sys.readdir dir);
            Sys.rmdir dir)
          (fun () ->
            let g = mk_data 40 in
            let w =
              Serve.Watch.create
                ~sink:(Strudel.Render_pool.file_sink ~dir)
                ~source:(Serve.Watch.Direct g) definition
            in
            let r = Option.get (Serve.Watch.recorder w) in
            List.iter
              (fun i -> Delta.Rec.remove_node r (Option.get (nth_member g i)))
              [ 3; 7 ];
            ignore (Serve.Watch.cycle w);
            let cold =
              (Strudel.Site.build ~data:g definition).Strudel.Site.site
                .Template.Generator.pages
            in
            Alcotest.(check (list string))
              "files = cold URLs"
              (List.sort compare
                 (List.map (fun p -> p.Template.Generator.url) cold))
              (List.sort compare (Array.to_list (Sys.readdir dir)));
            check_bool "files hold the cold bytes" true
              (List.for_all
                 (fun (p : Template.Generator.page) ->
                   read_file (Filename.concat dir p.Template.Generator.url)
                   = p.Template.Generator.html)
                 cold)));
  ]
