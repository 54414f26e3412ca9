open Sgraph
open Strudel

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* click-time pages must be byte-identical to the full build's pages *)
let pages_match def data =
  let full = Site.build ~data def in
  let ct = Materialize.Click_time.start ~data def in
  let full_pages =
    List.map
      (fun (p : Template.Generator.page) ->
        (Oid.name p.Template.Generator.obj, p.Template.Generator.html))
      full.Site.site.Template.Generator.pages
  in
  List.for_all
    (fun (name, html) ->
      (* find the click-time node with the same skolem name *)
      match
        List.find_opt
          (fun o -> Oid.name o = name)
          (Graph.nodes full.Site.site_graph)
      with
      | None -> false
      | Some o_full ->
        (* walk the click-time graph to the same term *)
        (match Skolem.term_of full.Site.scope o_full with
         | None -> true (* non-skolem page: skip *)
         | Some _ ->
           (* browse by name: find after expansion from the roots *)
           let find_by_name () =
             List.find_opt (fun o -> Oid.name o = name)
               (Graph.nodes ct.Materialize.Click_time.partial)
           in
           (* force full expansion by walking everything reachable *)
           let rec expand_all frontier =
             match frontier with
             | [] -> ()
             | o :: rest ->
               Materialize.Click_time.expand ct o;
               let succs =
                 List.filter_map
                   (fun (_, tgt) ->
                     match tgt with
                     | Graph.N n
                       when not
                              (Oid.Set.mem n
                                 ct.Materialize.Click_time.expanded) ->
                       Some n
                     | _ -> None)
                   (Graph.out_edges ct.Materialize.Click_time.partial o)
               in
               expand_all (succs @ rest)
           in
           expand_all (Materialize.Click_time.roots ct);
           (match find_by_name () with
            | None -> false
            | Some o -> Materialize.Click_time.browse ct o = html)))
    full_pages

let suite =
  [
    t "click-time starts with only the roots" (fun () ->
        let data = Sites.Paper_example.data () in
        let ct =
          Materialize.Click_time.start ~data Sites.Paper_example.definition
        in
        check_int "1 root" 1 (List.length (Materialize.Click_time.roots ct));
        let st = Materialize.Click_time.stats ct in
        check_bool "tiny partial graph" true
          (st.Materialize.Click_time.materialized_nodes <= 2));
    t "click-time pages equal full pages (paper example)" (fun () ->
        check_bool "identical" true
          (pages_match Sites.Paper_example.definition (Sites.Paper_example.data ())));
    t "click-time pages equal full pages (homepage)" (fun () ->
        check_bool "identical" true
          (pages_match Sites.Homepage.definition (Sites.Homepage.data ~entries:8 ())));
    t "click-time pages equal full pages (org)" (fun () ->
        let _, w = Sites.Org.data ~people:20 ~orgs:3 () in
        check_bool "identical" true
          (pages_match Sites.Org.definition (Mediator.Warehouse.graph w)));
    t "click-time pages equal full pages (rodin)" (fun () ->
        check_bool "identical" true
          (pages_match Sites.Rodin.definition
             (Sites.Rodin.data ~extra_projects:2 ())));
    t "click-time pages equal full pages (selective collect)" (fun () ->
        let _, def, data = Test_parallel.shape_b () in
        check_bool "identical" true (pages_match def data);
        (* the root's links reach x2 first, so the session fills Items
           before Featured; x1 must still take the Featured template *)
        let featured_last, _ =
          Ddl.parse ~graph_name:"featured-last"
            {|object x2 in C { featured "no" title "Two" }
object x1 in C { featured "yes" title "One" }
|}
        in
        check_bool "featured item expanded last" true
          (pages_match def featured_last));
    t "browsing materializes only what is needed" (fun () ->
        let data = Sites.Homepage.data ~entries:40 () in
        let full = Site.build ~data Sites.Homepage.definition in
        let ct = Materialize.Click_time.start ~data Sites.Homepage.definition in
        let root = List.hd (Materialize.Click_time.roots ct) in
        ignore (Materialize.Click_time.browse ct root);
        let st = Materialize.Click_time.stats ct in
        check_bool "fraction materialized" true
          (st.Materialize.Click_time.materialized_edges
           < Graph.edge_count full.Site.site_graph));
    t "page cache avoids recomputation" (fun () ->
        let data = Sites.Paper_example.data () in
        let ct =
          Materialize.Click_time.start ~cache:true ~data
            Sites.Paper_example.definition
        in
        let root = List.hd (Materialize.Click_time.roots ct) in
        let h1 = Materialize.Click_time.browse ct root in
        let h2 = Materialize.Click_time.browse ct root in
        Alcotest.(check string) "same html" h1 h2;
        let st = Materialize.Click_time.stats ct in
        check_int "1 hit" 1 st.Materialize.Click_time.cache_hits);
    t "random walk is deterministic and terminates" (fun () ->
        let data = Sites.Paper_example.data () in
        let walk () =
          let ct =
            Materialize.Click_time.start ~data Sites.Paper_example.definition
          in
          let v = Materialize.Click_time.random_walk ct ~clicks:15 ~seed:3 in
          (v, (Materialize.Click_time.stats ct).Materialize.Click_time.queries)
        in
        check_bool "deterministic" true (walk () = walk ());
        check_int "visited all clicks" 15 (fst (walk ())));
  ]
