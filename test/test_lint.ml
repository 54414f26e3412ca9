(* The static analyzer: one positive and one negative case per
   diagnostic code, expected-finding baselines for the bundled example
   sites, renderer sanity for all three output formats, and a qcheck
   soundness property tying SA041 to render-time attribute reads. *)

open Sgraph
module L = Analysis.Lint
module D = Analysis.Diagnostic

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec find i = i + n <= h && (String.sub hay i n = needle || find (i + 1)) in
  find 0

let empty_tpl = Template.Generator.empty_templates

let mk ?data ?(templates = empty_tpl) ?(root = "Root") ?(constraints = [])
    ?(declared = []) ?(mappings = []) ?(max_guide = 10_000) queries =
  {
    L.name = "test";
    queries;
    templates;
    root_family = root;
    constraints;
    registry = Struql.Builtins.default;
    data;
    declared_sources = declared;
    mapping_sources = mappings;
    max_guide_states = max_guide;
  }

let codes ds = List.map (fun d -> d.D.code) ds
let has c ds = List.mem c (codes ds)
let diag c ds = List.find_opt (fun d -> d.D.code = c) ds

(* A clean two-family specification used as the negative baseline. *)
let q_ok =
  {|INPUT DATA
{ CREATE Root()
  COLLECT Roots(Root()) }
{ WHERE Items(x)
  CREATE P(x)
  LINK Root() -> "Item" -> P(x), P(x) -> "Self" -> x
  COLLECT Ps(P(x)) }
OUTPUT SITE|}

let tpl_ok =
  {
    empty_tpl with
    Template.Generator.by_collection =
      [ ("Roots", "<html>root</html>"); ("Ps", "<p><SFMT @Self></p>") ];
  }

let spec_ok ?data ?constraints () = mk ?data ?constraints ~templates:tpl_ok
    [ ("site", q_ok) ]

(* Small data graph: [n] Items, each carrying every attribute in
   [attrs] with the value "V<attr>". *)
let items_graph ?(n = 2) attrs =
  let g = Graph.create ~name:"DATA" () in
  for i = 1 to n do
    let o = Graph.new_node g (Printf.sprintf "item%d" i) in
    Graph.add_to_collection g "Items" o;
    List.iter
      (fun a -> Graph.add_edge g o a (Graph.V (Value.String ("V" ^ a))))
      attrs
  done;
  g

let plumbing_tests =
  [
    t "clean spec yields no diagnostics" (fun () ->
        check_int "count" 0 (List.length (L.run (spec_ok ()))));
    t "SA001: unparsable query" (fun () ->
        let ds = L.run (mk [ ("q", "WHERE (") ]) in
        check_bool "has" true (has "SA001" ds);
        match diag "SA001" ds with
        | Some { D.span = Some { D.file = "q"; l1; _ }; _ } ->
          check_bool "line set" true (l1 >= 1)
        | _ -> Alcotest.fail "expected a span on query q");
    t "SA002: link from an existing object, with span" (fun () ->
        let q = {|INPUT D
{ WHERE Items(x)
  LINK x -> "a" -> x }
OUTPUT S|} in
        let ds = L.run (mk [ ("q", q) ]) in
        check_bool "has" true (has "SA002" ds);
        match diag "SA002" ds with
        | Some { D.span = Some { D.l1 = 3; _ }; _ } -> ()
        | Some { D.span; _ } ->
          Alcotest.failf "wrong span: %s"
            (match span with
             | Some s -> Printf.sprintf "%d:%d" s.D.l1 s.D.c1
             | None -> "none")
        | None -> Alcotest.fail "missing");
    t "SA003: active-domain variable" (fun () ->
        let q = {|INPUT D
{ CREATE Root() COLLECT Roots(Root()) }
{ CREATE P(y)
  LINK Root() -> "P" -> P(y)
  COLLECT Ps(P(y)) }
OUTPUT S|} in
        let ds = L.run (mk ~templates:tpl_ok [ ("site", q) ]) in
        check_bool "has" true (has "SA003" ds));
    t "SA004: unparsable template" (fun () ->
        let templates =
          {
            tpl_ok with
            Template.Generator.by_collection =
              ("Bad", "<SIF @x><SELSE>") :: tpl_ok.Template.Generator.by_collection;
          }
        in
        let ds = L.run (mk ~templates [ ("site", q_ok) ]) in
        check_bool "has" true (has "SA004" ds));
    t "SA004: a tag body the token stream rejects" (fun () ->
        let templates =
          {
            tpl_ok with
            Template.Generator.by_collection =
              ("Bad", "<SFMT title>") :: tpl_ok.Template.Generator.by_collection;
          }
        in
        let ds = L.run (mk ~templates [ ("site", q_ok) ]) in
        check_bool "has" true (has "SA004" ds));
    t "SA005: undeclared mapping source" (fun () ->
        let ds =
          L.run
            (mk ~templates:tpl_ok ~declared:[ "a" ] ~mappings:[ "a"; "zzz" ]
               [ ("site", q_ok) ])
        in
        check_bool "has" true (has "SA005" ds);
        (match diag "SA005" ds with
         | Some d -> check_bool "names it" true (contains d.D.message "zzz")
         | None -> Alcotest.fail "missing");
        let clean =
          L.run
            (mk ~templates:tpl_ok ~declared:[ "a" ] ~mappings:[ "a"; "*" ]
               [ ("site", q_ok) ])
        in
        check_bool "star ok" false (has "SA005" clean));
  ]

(* --- path emptiness --- *)

let q_path path =
  Printf.sprintf
    {|INPUT DATA
{ CREATE Root()
  COLLECT Roots(Root()) }
{ WHERE Items(x), x -> %s -> y
  CREATE P(x)
  LINK Root() -> "Item" -> P(x), P(x) -> "Val" -> y
  COLLECT Ps(P(x)) }
OUTPUT SITE|}
    path

let path_tests =
  [
    t "SA010: impossible path expression" (fun () ->
        let g = items_graph [ "a" ] in
        let ds =
          L.run
            (mk ~data:g ~templates:tpl_ok
               [ ("site", q_path {|"nope"."deep"|}) ])
        in
        check_bool "has" true (has "SA010" ds);
        match diag "SA010" ds with
        | Some { D.span = Some { D.file = "site"; l1 = 4; _ }; _ } -> ()
        | _ -> Alcotest.fail "expected span on line 4 of site");
    t "SA010 negative: satisfiable path" (fun () ->
        let g = Graph.create ~name:"DATA" () in
        let o = Graph.new_node g "item1" in
        let o2 = Graph.new_node g "item2" in
        Graph.add_to_collection g "Items" o;
        Graph.add_edge g o "a" (Graph.N o2);
        Graph.add_edge g o2 "a" (Graph.V (Value.String "deep"));
        let ds =
          L.run
            (mk ~data:g ~templates:tpl_ok [ ("site", q_path {|"a"."a"|}) ])
        in
        check_bool "no SA010" false (has "SA010" ds));
    t "SA011: edge label absent from the data" (fun () ->
        let g = items_graph [ "a" ] in
        let bad =
          L.run (mk ~data:g ~templates:tpl_ok [ ("site", q_path {|"nope"|}) ])
        in
        check_bool "has" true (has "SA011" bad);
        let ok =
          L.run (mk ~data:g ~templates:tpl_ok [ ("site", q_path {|"a"|}) ])
        in
        check_bool "clean" false (has "SA011" ok));
    t "SA012: absent and empty collections" (fun () ->
        let g = Graph.create ~name:"DATA" () in
        let ds = L.run (mk ~data:g ~templates:tpl_ok [ ("site", q_ok) ]) in
        (match diag "SA012" ds with
         | Some d -> check_bool "absent" true (contains d.D.message "absent")
         | None -> Alcotest.fail "expected SA012");
        let o = Graph.new_node g "x" in
        Graph.add_to_collection g "Items" o;
        Graph.remove_from_collection g "Items" o;
        let ds = L.run (mk ~data:g ~templates:tpl_ok [ ("site", q_ok) ]) in
        (match diag "SA012" ds with
         | Some d -> check_bool "empty" true (contains d.D.message "empty")
         | None -> Alcotest.fail "expected SA012");
        let g = items_graph [ "a" ] in
        let ds = L.run (mk ~data:g ~templates:tpl_ok [ ("site", q_ok) ]) in
        check_bool "clean" false (has "SA012" ds));
    t "SA013: DataGuide bound degrades the analysis" (fun () ->
        let g = items_graph [ "a" ] in
        let ds =
          L.run
            (mk ~data:g ~templates:tpl_ok ~max_guide:1
               [ ("site", q_path {|"nope"."deep"|}) ])
        in
        check_bool "has SA013" true (has "SA013" ds);
        check_bool "no SA010" false (has "SA010" ds));
  ]

(* --- dead / unused specification --- *)

let dead_tests =
  [
    t "SA020: variable bound but never used" (fun () ->
        let q = {|INPUT D
{ CREATE Root() COLLECT Roots(Root()) }
{ WHERE Items(x), x -> "a" -> dead
  CREATE P(x)
  LINK Root() -> "Item" -> P(x)
  COLLECT Ps(P(x)) }
OUTPUT S|} in
        let ds = L.run (mk ~templates:tpl_ok [ ("site", q) ]) in
        (match diag "SA020" ds with
         | Some d -> check_bool "names dead" true (contains d.D.message "dead")
         | None -> Alcotest.fail "expected SA020"));
    t "SA020 negative: underscore silences" (fun () ->
        let q = {|INPUT D
{ CREATE Root() COLLECT Roots(Root()) }
{ WHERE Items(x), x -> "a" -> _dead
  CREATE P(x)
  LINK Root() -> "Item" -> P(x)
  COLLECT Ps(P(x)) }
OUTPUT S|} in
        check_bool "clean" false
          (has "SA020" (L.run (mk ~templates:tpl_ok [ ("site", q) ]))));
    t "SA020 negative: nested filter on an outer variable" (fun () ->
        (* [l = "year"] filters the outer l, it does not bind a fresh
           variable — the paper-example regression *)
        let q = {|INPUT D
{ CREATE Root() COLLECT Roots(Root()) }
{ WHERE Items(x), x -> l -> v
  CREATE P(x)
  LINK Root() -> "Item" -> P(x), P(x) -> l -> v
  COLLECT Ps(P(x))
  { WHERE l = "year"
    CREATE Y(v)
    LINK Root() -> "Year" -> Y(v), Y(v) -> "Of" -> P(x)
    COLLECT Ys(Y(v)) } }
OUTPUT S|} in
        check_bool "clean" false
          (has "SA020" (L.run (mk ~templates:tpl_ok [ ("site", q) ]))));
    t "SA021: collected but never used" (fun () ->
        let q = {|INPUT D
{ CREATE Root()
  COLLECT Roots(Root()), Ghosts(Root()) }
OUTPUT S|} in
        let ds = L.run (mk ~templates:tpl_ok [ ("site", q) ]) in
        (match diag "SA021" ds with
         | Some d ->
           check_bool "names Ghosts" true (contains d.D.message "Ghosts")
         | None -> Alcotest.fail "expected SA021");
        check_bool "templated collection not flagged" false
          (List.exists
             (fun d -> d.D.code = "SA021" && contains d.D.message "Roots")
             ds));
    t "SA022: family unreachable from the root" (fun () ->
        let q = {|INPUT D
{ CREATE Root() COLLECT Roots(Root()) }
{ WHERE Items(x)
  CREATE Orphan(x)
  LINK Orphan(x) -> "Self" -> x
  COLLECT Ps(Orphan(x)) }
OUTPUT S|} in
        let ds = L.run (mk ~templates:tpl_ok [ ("site", q) ]) in
        (match diag "SA022" ds with
         | Some d ->
           check_bool "names Orphan" true (contains d.D.message "Orphan")
         | None -> Alcotest.fail "expected SA022");
        check_bool "linked family not flagged" false
          (has "SA022" (L.run (spec_ok ()))));
    t "SA023: duplicate link clause" (fun () ->
        let q = {|INPUT D
{ CREATE Root() COLLECT Roots(Root()) }
{ WHERE Items(x)
  CREATE P(x)
  LINK Root() -> "Item" -> P(x), Root() -> "Item" -> P(x)
  COLLECT Ps(P(x)) }
OUTPUT S|} in
        check_bool "has" true
          (has "SA023" (L.run (mk ~templates:tpl_ok [ ("site", q) ]))));
    t "SA024: root family never created" (fun () ->
        let ds =
          L.run (mk ~root:"Missing" ~templates:tpl_ok [ ("site", q_ok) ])
        in
        (match diag "SA024" ds with
         | Some d ->
           check_bool "error" true (d.D.severity = D.Error);
           check_bool "names it" true (contains d.D.message "Missing")
         | None -> Alcotest.fail "expected SA024"));
  ]

(* --- constraints --- *)

let constraint_tests =
  [
    t "SA030: always-violated No_edge, with witnesses" (fun () ->
        let ds =
          L.run
            (spec_ok ~constraints:[ Schema.Verify.No_edge ("Root", "Item") ] ())
        in
        match diag "SA030" ds with
        | Some d ->
          check_bool "error" true (d.D.severity = D.Error);
          check_bool "witnesses" true (d.D.related <> []);
          check_bool "span" true (d.D.span <> None)
        | None -> Alcotest.fail "expected SA030");
    t "SA031: statically undecidable Points_to" (fun () ->
        let ds =
          L.run
            (spec_ok
               ~constraints:[ Schema.Verify.Points_to ("Root", "Item", "P") ]
               ())
        in
        match diag "SA031" ds with
        | Some d -> check_bool "info" true (d.D.severity = D.Info)
        | None -> Alcotest.fail "expected SA031");
    t "constraints that hold stay silent" (fun () ->
        let ds =
          L.run
            (spec_ok ~constraints:[ Schema.Verify.No_edge ("Root", "Nope") ] ())
        in
        check_bool "no SA030" false (has "SA030" ds);
        check_bool "no SA031" false (has "SA031" ds));
  ]

(* --- templates --- *)

let template_tests =
  [
    t "SA040: template bound to a never-collected collection" (fun () ->
        let templates =
          {
            tpl_ok with
            Template.Generator.by_collection =
              ("Nope", "<html>x</html>")
              :: tpl_ok.Template.Generator.by_collection;
          }
        in
        check_bool "has" true
          (has "SA040" (L.run (mk ~templates [ ("site", q_ok) ]))));
    t "SA041: impossible attribute reference, with span" (fun () ->
        let templates =
          {
            empty_tpl with
            Template.Generator.by_collection =
              [
                ("Roots", "<html>root</html>");
                ("Ps", "<p>\n<SFMT @Missing></p>");
              ];
          }
        in
        let ds = L.run (mk ~templates [ ("site", q_ok) ]) in
        match diag "SA041" ds with
        | Some d ->
          check_bool "names it" true (contains d.D.message "Missing");
          (match d.D.span with
           | Some s ->
             check_int "line" 2 s.D.l1;
             check_bool "template file" true
               (contains s.D.file "template:collection:Ps")
           | None -> Alcotest.fail "expected a span")
        | None -> Alcotest.fail "expected SA041");
    t "SA041 negative: possible attribute, and wildcard labels" (fun () ->
        check_bool "possible attr clean" false
          (has "SA041" (L.run (spec_ok ())));
        (* a variable-labelled link makes any attribute possible *)
        let q = {|INPUT D
{ CREATE Root() COLLECT Roots(Root()) }
{ WHERE Items(x), x -> l -> v
  CREATE P(x)
  LINK Root() -> "Item" -> P(x), P(x) -> l -> v
  COLLECT Ps(P(x)) }
OUTPUT S|} in
        let templates =
          {
            empty_tpl with
            Template.Generator.by_collection =
              [ ("Roots", "<html>r</html>"); ("Ps", "<SFMT @Anything>") ];
          }
        in
        check_bool "wildcard clean" false
          (has "SA041" (L.run (mk ~templates [ ("site", q) ]))));
    t "SA042: constant link to a missing named template" (fun () ->
        let q = {|INPUT D
{ CREATE Root()
  LINK Root() -> "HTML-template" -> "nope"
  COLLECT Roots(Root()) }
OUTPUT S|} in
        let ds = L.run (mk ~templates:tpl_ok [ ("site", q) ]) in
        (match diag "SA042" ds with
         | Some d ->
           check_bool "names it" true (contains d.D.message "nope");
           check_bool "span" true (d.D.span <> None)
         | None -> Alcotest.fail "expected SA042");
        let templates =
          {
            tpl_ok with
            Template.Generator.named = [ ("nope", "<html>n</html>") ];
          }
        in
        let ds = L.run (mk ~templates [ ("site", q) ]) in
        check_bool "resolves" false (has "SA042" ds));
    t "SA042: object template for a never-created family" (fun () ->
        let templates =
          {
            tpl_ok with
            Template.Generator.by_object = [ ("Zed()", "<html>z</html>") ];
          }
        in
        check_bool "has" true
          (has "SA042" (L.run (mk ~templates [ ("site", q_ok) ]))));
    t "SA043: named template never selected by a constant link" (fun () ->
        let templates =
          {
            tpl_ok with
            Template.Generator.named = [ ("extra", "<b>e</b>") ];
          }
        in
        let ds = L.run (mk ~templates [ ("site", q_ok) ]) in
        match diag "SA043" ds with
        | Some d -> check_bool "info" true (d.D.severity = D.Info)
        | None -> Alcotest.fail "expected SA043");
  ]

(* --- example-site baselines --- *)

let baseline_tests =
  [
    t "all bundled sites lint without errors" (fun () ->
        List.iter
          (fun (name, mk) ->
            let ds = L.run (mk ()) in
            match D.max_severity ds with
            | Some D.Error ->
              Alcotest.failf "%s has lint errors:\n%s" name (D.to_text ds)
            | _ -> ())
          Sites.Lint_specs.by_name);
    t "cnn baseline: dead variable s2" (fun () ->
        let ds = L.run (Sites.Lint_specs.cnn ()) in
        match diag "SA020" ds with
        | Some d -> check_bool "s2" true (contains d.D.message "s2")
        | None -> Alcotest.fail "expected the known SA020");
    t "org baseline: LegacyPages collected but unused" (fun () ->
        let ds = L.run (Sites.Lint_specs.org ()) in
        check_bool "has" true
          (List.exists
             (fun d ->
               d.D.code = "SA021" && contains d.D.message "LegacyPages")
             ds));
    t "paper baseline is warning-free" (fun () ->
        let ds = L.run (Sites.Lint_specs.paper ()) in
        check_bool "no warnings" true
          (match D.max_severity ds with
           | None | Some D.Info -> true
           | _ -> false));
  ]

(* --- renderers and gating --- *)

let seeded_diags () =
  (* one spec that produces SA010 (impossible path), SA030 (violated
     No_edge) and SA042 (broken template reference), each with a span *)
  let q = {|INPUT DATA
{ CREATE Root()
  LINK Root() -> "HTML-template" -> "ghost"
  COLLECT Roots(Root()) }
{ WHERE Items(x), x -> "nope"."deep" -> y
  CREATE P(x)
  LINK Root() -> "Item" -> P(x), P(x) -> "Val" -> y
  COLLECT Ps(P(x)) }
OUTPUT SITE|} in
  L.run
    (mk
       ~data:(items_graph [ "a" ])
       ~templates:tpl_ok
       ~constraints:[ Schema.Verify.No_edge ("Root", "Item") ]
       [ ("site", q) ])

let format_tests =
  [
    t "seeded diagnostics appear with spans in all three formats" (fun () ->
        let ds = seeded_diags () in
        List.iter
          (fun c -> check_bool (c ^ " present") true (has c ds))
          [ "SA010"; "SA030"; "SA042" ];
        let text = D.to_text ds in
        check_bool "text span" true (contains text "site:5:");
        check_bool "text code" true (contains text "error SA010");
        let json = D.to_json ds in
        check_bool "json code" true (contains json {|"code":"SA010"|});
        check_bool "json span" true (contains json {|"startLine":5|});
        check_bool "json summary" true (contains json {|"summary"|});
        let sarif = D.to_sarif ds in
        check_bool "sarif rule" true (contains sarif {|"ruleId":"SA010"|});
        check_bool "sarif schema" true (contains sarif "sarif-2.1.0");
        check_bool "sarif location" true (contains sarif "physicalLocation");
        check_bool "sarif catalog" true (contains sarif {|"id":"SA043"|}));
    t "exit codes follow --fail-on" (fun () ->
        let warn = [ D.make ~code:"SA020" D.Warning "w" ] in
        let err = [ D.make ~code:"SA024" D.Error "e" ] in
        check_int "warning under fail-error" 0 (L.exit_code L.Fail_error warn);
        check_int "warning under fail-warning" 1
          (L.exit_code L.Fail_warning warn);
        check_int "error under fail-error" 1 (L.exit_code L.Fail_error err);
        check_int "clean" 0 (L.exit_code L.Fail_warning []));
    t "fail_on_of_string" (fun () ->
        check_bool "error" true (L.fail_on_of_string "error" = Some L.Fail_error);
        check_bool "warning" true
          (L.fail_on_of_string "warning" = Some L.Fail_warning);
        check_bool "junk" true (L.fail_on_of_string "junk" = None));
  ]

(* --- qcheck: SA041 agrees with render-time attribute reads --- *)

let pool = [ "alpha"; "beta"; "gamma"; "delta" ]

let attr_prop (mask, ti, n) =
  let s = List.filteri (fun i _ -> List.nth mask i) pool in
  let chosen = List.nth pool ti in
  let copy a =
    Printf.sprintf "  { WHERE x -> \"%s\" -> v%s LINK P(x) -> \"C%s\" -> v%s }\n"
      a a a a
  in
  let q =
    "INPUT DATA\n{ CREATE Root()\n  COLLECT Roots(Root()) }\n\
     { WHERE Items(x)\n  CREATE P(x)\n  LINK Root() -> \"Item\" -> P(x)\n\
     \  COLLECT Ps(P(x))\n"
    ^ String.concat "" (List.map copy s)
    ^ "}\nOUTPUT SITE\n"
  in
  let templates =
    {
      empty_tpl with
      Template.Generator.by_collection =
        [
          (* the root must link the items or their pages are never
             realized by the generator *)
          ("Roots", "<ul><SFMTLIST @Item></ul>");
          ("Ps", Printf.sprintf "<p><SFMT @C%s></p>" chosen);
        ];
    }
  in
  let g = items_graph ~n pool in
  let def =
    Strudel.Site.define ~name:"QSITE" ~root_family:"Root" ~templates
      [ ("site", q) ]
  in
  let flagged = has "SA041" (L.run (L.of_definition ~data:g def)) in
  let built = Strudel.Site.build ~data:g def in
  let sentinel = "V" ^ chosen in
  let hits =
    List.length
      (List.filter
         (fun (p : Template.Generator.page) ->
           contains p.Template.Generator.html sentinel)
         built.Strudel.Site.site.Template.Generator.pages)
  in
  (* flagged ⇔ the attribute cannot be read on any page; clean ⇔ the
     read succeeds on every one of the n item pages *)
  if flagged then hits = 0 else hits = n

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"SA041-clean specs never miss an attribute at render time"
         ~count:40
         (QCheck.make
            QCheck.Gen.(
              triple
                (list_repeat 4 bool)
                (int_bound 3)
                (int_range 1 3)))
         attr_prop);
  ]

let suite =
  plumbing_tests @ path_tests @ dead_tests @ constraint_tests @ template_tests
  @ baseline_tests @ format_tests @ qcheck_tests
