open Struql

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let parse = Parser.parse
let parse_conds = Parser.parse_conditions

let queries =
  [
    t "minimal query defaults" (fun () ->
        let q = parse "WHERE C(x) COLLECT D(x)" in
        check_bool "input" true (q.Ast.input = [ "input" ]);
        check_bool "output" true (q.Ast.output = "output");
        check_int "1 block" 1 (List.length q.Ast.blocks));
    t "input/output names" (fun () ->
        let q = parse "INPUT A, B WHERE C(x) COLLECT D(x) OUTPUT R" in
        check_bool "inputs" true (q.Ast.input = [ "A"; "B" ]);
        check_bool "output" true (q.Ast.output = "R"));
    t "fig3 shape" (fun () ->
        let q = parse Sites.Paper_example.site_query in
        check_int "2 top blocks" 2 (List.length q.Ast.blocks);
        let b2 = List.nth q.Ast.blocks 1 in
        check_int "2 nested" 2 (List.length b2.Ast.nested);
        check_int "link clauses" 11 (Ast.query_link_count q);
        check_bool "skolems" true
          (List.sort compare (Ast.query_created_skolems q)
           = [ "AbstractPage"; "AbstractsPage"; "CategoryPage";
               "PaperPresentation"; "RootPage"; "YearPage" ]));
    t "intermixed clauses join one block" (fun () ->
        let q =
          parse
            {|WHERE C(x) CREATE F(x) WHERE x -> "a" -> y LINK F(x) -> "b" -> y|}
        in
        check_int "1 block" 1 (List.length q.Ast.blocks);
        let b = List.hd q.Ast.blocks in
        check_int "2 conds" 2 (List.length b.Ast.where);
        check_int "1 create" 1 (List.length b.Ast.create);
        check_int "1 link" 1 (List.length b.Ast.link));
    t "separators , and ; both work" (fun () ->
        let cs = parse_conds {|C(x); x -> "a" -> y, D(y)|} in
        check_int "3 conds" 3 (List.length cs));
  ]

let conditions =
  [
    t "membership atom" (fun () ->
        match parse_conds "HomePages(p)" with
        | [ Ast.C_atom ("HomePages", [ Ast.T_var "p" ]) ] -> ()
        | _ -> Alcotest.fail "bad atom");
    t "external predicate atom" (fun () ->
        match parse_conds "isPostScript(q)" with
        | [ Ast.C_atom ("isPostScript", [ Ast.T_var "q" ]) ] -> ()
        | _ -> Alcotest.fail "bad atom");
    t "edge with label variable" (fun () ->
        match parse_conds "x -> l -> y" with
        | [ Ast.C_edge (Ast.T_var "x", Ast.L_var "l", Ast.T_var "y") ] -> ()
        | _ -> Alcotest.fail "bad edge");
    t "edge with label constant" (fun () ->
        match parse_conds {|x -> "Paper" -> y|} with
        | [ Ast.C_edge (_, Ast.L_const "Paper", _) ] -> ()
        | _ -> Alcotest.fail "bad edge");
    t "chain produces multiple conditions" (fun () ->
        match parse_conds {|x -> "a" -> y -> l -> z -> "b" -> w|} with
        | [ Ast.C_edge (Ast.T_var "x", Ast.L_const "a", Ast.T_var "y");
            Ast.C_edge (Ast.T_var "y", Ast.L_var "l", Ast.T_var "z");
            Ast.C_edge (Ast.T_var "z", Ast.L_const "b", Ast.T_var "w") ] ->
          ()
        | _ -> Alcotest.fail "bad chain");
    t "star path" (fun () ->
        match parse_conds "x -> * -> y" with
        | [ Ast.C_path (_, Sgraph.Path.Star (Sgraph.Path.Edge Sgraph.Path.Any), _) ] -> ()
        | _ -> Alcotest.fail "bad star");
    t "true path is single any edge" (fun () ->
        match parse_conds "x -> true -> y" with
        | [ Ast.C_path (_, Sgraph.Path.Edge Sgraph.Path.Any, _) ] -> ()
        | _ -> Alcotest.fail "bad true");
    t "rpe concatenation and alternation" (fun () ->
        match parse_conds {|x -> "a"."b" | "c" -> y|} with
        | [ Ast.C_path (_, Sgraph.Path.Alt (Sgraph.Path.Seq _, _), _) ] -> ()
        | _ -> Alcotest.fail "bad rpe");
    t "rpe postfix star on label" (fun () ->
        match parse_conds {|x -> "a"* -> y|} with
        | [ Ast.C_path (_, Sgraph.Path.Star (Sgraph.Path.Edge (Sgraph.Path.Label "a")), _) ] -> ()
        | _ -> Alcotest.fail "bad star label");
    t "label predicate in rpe" (fun () ->
        match parse_conds "x -> isName* -> y" with
        | [ Ast.C_path (_, Sgraph.Path.Star (Sgraph.Path.Edge (Sgraph.Path.Named_pred ("isName", _))), _) ] -> ()
        | _ -> Alcotest.fail "bad pred");
    t "unknown label predicate rejected" (fun () ->
        check_bool "raises" true
          (try ignore (parse_conds "x -> noSuchPred* -> y"); false
           with Parser.Parse_error _ -> true));
    t "comparisons" (fun () ->
        match parse_conds {|l = "year", n < 5, m >= 2, k != "x"|} with
        | [ Ast.C_cmp (Ast.Eq, _, _); Ast.C_cmp (Ast.Lt, _, _);
            Ast.C_cmp (Ast.Ge, _, _); Ast.C_cmp (Ast.Ne, _, _) ] ->
          ()
        | _ -> Alcotest.fail "bad cmp");
    t "in condition" (fun () ->
        match parse_conds {|l in {"Paper", "TechReport"}|} with
        | [ Ast.C_in (Ast.T_var "l", [ Sgraph.Value.String "Paper"; Sgraph.Value.String "TechReport" ]) ] -> ()
        | _ -> Alcotest.fail "bad in");
    t "negation" (fun () ->
        match parse_conds "not(isImageFile(v))" with
        | [ Ast.C_not (Ast.C_atom ("isImageFile", _)) ] -> ()
        | _ -> Alcotest.fail "bad not");
    t "negated edge" (fun () ->
        match parse_conds "not(p -> l -> q)" with
        | [ Ast.C_not (Ast.C_edge _) ] -> ()
        | _ -> Alcotest.fail "bad negated edge");
    t "negation of chain rejected" (fun () ->
        check_bool "raises" true
          (try ignore (parse_conds {|not(p -> "a" -> q -> "b" -> r)|}); false
           with Parser.Parse_error _ -> true));
    t "literals as terms" (fun () ->
        match parse_conds {|x -> "year" -> 1997, y -> "f" -> 2.5, z -> "b" -> true|} with
        | [ Ast.C_edge (_, _, Ast.T_const (Sgraph.Value.Int 1997));
            Ast.C_edge (_, _, Ast.T_const (Sgraph.Value.Float 2.5));
            Ast.C_edge (_, _, Ast.T_const (Sgraph.Value.Bool true)) ] ->
          ()
        | _ -> Alcotest.fail "bad literals");
  ]

let construction =
  [
    t "create with args" (fun () ->
        let q = parse {|WHERE C(x) CREATE F(), G(x), H(x, "k")|} in
        let b = List.hd q.Ast.blocks in
        check_int "3 creates" 3 (List.length b.Ast.create);
        check_bool "arities" true
          (List.map (fun (f, args) -> (f, List.length args)) b.Ast.create
           = [ ("F", 0); ("G", 1); ("H", 2) ]));
    t "link with skolem endpoints" (fun () ->
        let q =
          parse {|WHERE C(x) CREATE F(x), G(x) LINK F(x) -> "a" -> G(x)|}
        in
        let b = List.hd q.Ast.blocks in
        match b.Ast.link with
        | [ (Ast.T_skolem ("F", _), Ast.L_const "a", Ast.T_skolem ("G", _)) ] ->
          ()
        | _ -> Alcotest.fail "bad link");
    t "link with label variable" (fun () ->
        let q = parse {|WHERE x -> l -> v CREATE F(x) LINK F(x) -> l -> v|} in
        let b = List.hd q.Ast.blocks in
        match b.Ast.link with
        | [ (_, Ast.L_var "l", Ast.T_var "v") ] -> ()
        | _ -> Alcotest.fail "bad link label");
    t "nested skolem in link target" (fun () ->
        let q =
          parse
            {|WHERE C(y), y -> "Author" -> u
              CREATE Authors(), Page(u)
              LINK Authors() -> "Author" -> Page(u)|}
        in
        let b = List.hd q.Ast.blocks in
        match b.Ast.link with
        | [ (Ast.T_skolem ("Authors", []), _, Ast.T_skolem ("Page", [ Ast.T_var "u" ])) ] -> ()
        | _ -> Alcotest.fail "bad nested skolem");
    t "collect" (fun () ->
        let q = parse {|WHERE C(x) CREATE F(x) COLLECT Out(F(x)), Plain(x)|} in
        let b = List.hd q.Ast.blocks in
        check_int "2 collects" 2 (List.length b.Ast.collect));
  ]

let errors =
  let expect name src =
    t name (fun () ->
        check_bool "raises" true
          (try ignore (parse src); false with Parser.Parse_error _ -> true))
  in
  [
    expect "unclosed block" "{ WHERE C(x) COLLECT D(x)";
    expect "garbage after query" "WHERE C(x) COLLECT D(x) OUTPUT r zzz";
    expect "create of bare var" "WHERE C(x) CREATE x";
    expect "missing arrow" {|WHERE x -> "a" y COLLECT C(x)|};
    expect "bad in list" "WHERE l in {} COLLECT C(l)";
    t "an error names the offending token's own position" (fun () ->
        match
          parse "WHERE C(x)\nCREATE F(x\nLINK F(x) -> \"a\" -> x\nOUTPUT R"
        with
        | exception Parser.Parse_error (msg, line, col) ->
          Alcotest.(check (pair int int))
            ("position of LINK: " ^ msg) (3, 1) (line, col)
        | _ -> Alcotest.fail "parsed");
  ]

(* pretty-print / re-parse fixpoint *)
let roundtrip_corpus =
  [
    Sites.Paper_example.site_query;
    Sites.Cnn.general_query;
    Sites.Cnn.sports_only_query;
    Sites.Cnn.text_only_copy_query;
    Sites.Homepage.site_query;
    Sites.Org.site_query;
    {|WHERE not(p -> le -> q) CREATE F(p), F(q) LINK F(p) -> le -> F(q) OUTPUT Comp|};
    {|WHERE C(x), x -> "a".("b" | "c")*."d"? -> y, x -> isName+ -> z,
            y != z, n >= 2, l in {"u", "v"}
      CREATE F(x) LINK F(x) -> "r" -> y COLLECT Out(F(x)) OUTPUT O|};
  ]

let roundtrip =
  List.mapi
    (fun i src ->
      t (Printf.sprintf "pretty/parse fixpoint %d" i) (fun () ->
          let q = parse src in
          let printed = Pretty.to_string q in
          let q2 = parse printed in
          check_bool "equal" true (Pretty.query_equal q q2);
          (* and printing again is stable *)
          Alcotest.(check string) "stable" printed (Pretty.to_string q2)))
    roundtrip_corpus

let suite = queries @ conditions @ construction @ errors @ roundtrip
