(* Whole-pipeline properties under randomized data: click-time pages
   are byte-identical to full materialization; incremental rebuild
   equals a full rebuild after arbitrary mutations; decomposed queries
   reproduce the site graph. *)

open Sgraph

(* (page object, bytes) in published order *)
let page_map (site : Template.Generator.site) =
  List.map
    (fun (p : Template.Generator.page) ->
      (Oid.name p.Template.Generator.obj, p.Template.Generator.html))
    site.Template.Generator.pages

(* random mutations over a news data graph *)
type mutation =
  | Set_headline of int * string
  | Set_body of int * string
  | Add_section of int * string
  | Drop_article_attr of int        (* remove the byline if present *)
  | Add_related of int * int

let mutation_gen articles =
  let open QCheck.Gen in
  oneof
    [
      map2 (fun i s -> Set_headline (i, "H" ^ s))
        (int_bound (articles - 1))
        (string_size ~gen:(char_range 'a' 'z') (int_range 1 6));
      map2 (fun i s -> Set_body (i, "B" ^ s))
        (int_bound (articles - 1))
        (string_size ~gen:(char_range 'a' 'z') (int_range 1 6));
      map2 (fun i s -> Add_section (i, s))
        (int_bound (articles - 1))
        (oneofl [ "Sports"; "Archive"; "Extra" ]);
      map (fun i -> Drop_article_attr i) (int_bound (articles - 1));
      map2 (fun i j -> Add_related (i, j))
        (int_bound (articles - 1))
        (int_bound (articles - 1));
    ]

let apply_mutations g articles muts =
  List.iter
    (fun m ->
      let art i = Graph.find_node g (Printf.sprintf "art%d" (i mod articles)) in
      match m with
      | Set_headline (i, s) -> (
          match art i with
          | Some a -> Graph.add_edge g a "headline" (Graph.V (Value.String s))
          | None -> ())
      | Set_body (i, s) -> (
          match art i with
          | Some a -> Graph.add_edge g a "body" (Graph.V (Value.String s))
          | None -> ())
      | Add_section (i, s) -> (
          match art i with
          | Some a -> Graph.add_edge g a "section" (Graph.V (Value.String s))
          | None -> ())
      | Drop_article_attr i -> (
          match art i with
          | Some a -> (
              match Graph.attr_value g a "byline" with
              | Some v -> Graph.remove_edge g a "byline" (Graph.V v)
              | None -> ())
          | None -> ())
      | Add_related (i, j) -> (
          match art i, art j with
          | Some a, Some b when not (Oid.equal a b) ->
            Graph.add_edge g a "related" (Graph.N b)
          | _ -> ()))
    muts

let articles = 15

let incremental_equals_full muts =
  let data0 = Sites.Cnn.data ~articles () in
  let cache = Strudel.Render_cache.create () in
  let previous =
    Strudel.Site.build ~render_cache:cache ~data:data0 Sites.Cnn.definition
  in
  let data1 = Sites.Cnn.data ~articles () in
  apply_mutations data1 articles muts;
  let inc = Strudel.Incremental.rebuild ~cache ~previous ~data:data1 () in
  let full = Strudel.Site.build ~data:data1 Sites.Cnn.definition in
  page_map inc.Strudel.Incremental.built.Strudel.Site.site
  = page_map full.Strudel.Site.site

let clicktime_equals_full muts =
  let data = Sites.Cnn.data ~articles () in
  apply_mutations data articles muts;
  let full = Strudel.Site.build ~data Sites.Cnn.definition in
  let ct = Strudel.Materialize.Click_time.start ~data Sites.Cnn.definition in
  (* expand everything reachable *)
  let rec expand_all frontier =
    match frontier with
    | [] -> ()
    | o :: rest ->
      Strudel.Materialize.Click_time.expand ct o;
      let succs =
        List.filter_map
          (fun (_, tgt) ->
            match tgt with
            | Graph.N n
              when not
                     (Oid.Set.mem n ct.Strudel.Materialize.Click_time.expanded)
              ->
              Some n
            | _ -> None)
          (Graph.out_edges ct.Strudel.Materialize.Click_time.partial o)
      in
      expand_all (succs @ rest)
  in
  expand_all (Strudel.Materialize.Click_time.roots ct);
  List.for_all
    (fun (p : Template.Generator.page) ->
      match
        List.find_opt
          (fun o -> Oid.name o = Oid.name p.Template.Generator.obj)
          (Graph.nodes ct.Strudel.Materialize.Click_time.partial)
      with
      | Some o ->
        Strudel.Materialize.Click_time.browse ct o
        = p.Template.Generator.html
      | None -> false)
    full.Strudel.Site.site.Template.Generator.pages

let decompose_equals_direct muts =
  let data = Sites.Cnn.data ~articles () in
  apply_mutations data articles muts;
  let q = Struql.Parser.parse Sites.Cnn.general_query in
  let direct = Oracle.run data q in
  let composed =
    Schema.Decompose.run_all (Schema.Decompose.of_query q) data
  in
  let census g =
    ( Graph.node_count g,
      Graph.edge_count g,
      List.sort compare
        (List.map (fun l -> (l, Graph.label_count g l)) (Graph.labels g)) )
  in
  census direct = census composed

let muts_arb =
  QCheck.make QCheck.Gen.(list_size (int_range 0 8) (mutation_gen articles))

let suite =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"incremental rebuild equals full rebuild (random mutations)"
         ~count:25 muts_arb incremental_equals_full);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"click-time pages equal full pages (random mutations)"
         ~count:15 muts_arb clicktime_equals_full);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"decomposed queries equal direct evaluation (random mutations)"
         ~count:25 muts_arb decompose_equals_direct);
  ]
