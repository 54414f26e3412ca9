open Sgraph
open Template

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* a small site graph for rendering *)
let mk () =
  let g = Graph.create ~name:"tg" () in
  let o = Graph.new_node g "obj" in
  Graph.add_edge g o "title" (Graph.V (Value.String "Hello <World>"));
  Graph.add_edge g o "year" (Graph.V (Value.Int 1997));
  Graph.add_edge g o "author" (Graph.V (Value.String "Ann"));
  Graph.add_edge g o "author" (Graph.V (Value.String "Bob"));
  Graph.add_edge g o "ps" (Graph.V (Value.File (Value.Postscript, "p.ps")));
  Graph.add_edge g o "pic" (Graph.V (Value.File (Value.Image, "i.gif")));
  Graph.add_edge g o "site" (Graph.V (Value.Url "http://x.org"));
  let child = Graph.new_node g "child" in
  Graph.add_edge g child "name" (Graph.V (Value.String "Kid"));
  Graph.add_edge g child "rank" (Graph.V (Value.Int 2));
  let child2 = Graph.new_node g "child2" in
  Graph.add_edge g child2 "name" (Graph.V (Value.String "Ada"));
  Graph.add_edge g child2 "rank" (Graph.V (Value.Int 1));
  Graph.add_edge g o "kid" (Graph.N child);
  Graph.add_edge g o "kid" (Graph.N child2);
  (g, o)

let render_str ?(vars = []) g obj tpl =
  let ctx =
    {
      Teval.graph = g;
      vars;
      render_object =
        (fun _ctx mode o ->
          match mode with
          | Teval.Embed -> "[embed " ^ Oid.name o ^ "]"
          | Teval.Link_to (Some a) -> "[link " ^ Oid.name o ^ " as " ^ a ^ "]"
          | Teval.Link_to None -> "[link " ^ Oid.name o ^ "]");
      file_loader = (fun _ -> None);
      on_read = None;
    }
  in
  Teval.render ctx (Tparse.parse tpl) obj

let parsing =
  [
    t "plain html passes through" (fun () ->
        let g, o = mk () in
        check_str "plain" "<h1>x</h1>" (render_str g o "<h1>x</h1>"));
    t "unknown tags left alone" (fun () ->
        let g, o = mk () in
        check_str "p" "<p class=\"x\">y</p>" (render_str g o "<p class=\"x\">y</p>"));
    t "sfmt of string escapes html" (fun () ->
        let g, o = mk () in
        check_str "escaped" "Hello &lt;World&gt;" (render_str g o "<SFMT @title>"));
    t "sfmt of int" (fun () ->
        let g, o = mk () in
        check_str "int" "1997" (render_str g o "<SFMT @year>"));
    t "sfmt multivalued with delim" (fun () ->
        let g, o = mk () in
        check_str "authors" "Ann, Bob"
          (render_str g o {|<SFMT @author DELIM=", ">|}));
    t "sfmt missing attribute renders empty" (fun () ->
        let g, o = mk () in
        check_str "empty" "" (render_str g o "<SFMT @nope>"));
    t "case-insensitive tags" (fun () ->
        let g, o = mk () in
        check_str "lower" "1997" (render_str g o "<sfmt @year>"));
    t "parse error on unbalanced sif" (fun () ->
        check_bool "raises" true
          (try ignore (Tparse.parse "<SIF @x>abc"); false
           with Tparse.Template_error _ -> true));
    t "parse error on stray selse" (fun () ->
        check_bool "raises" true
          (try ignore (Tparse.parse "x<SELSE>y"); false
           with Tparse.Template_error _ -> true));
    t "quoted > inside tag body" (fun () ->
        let g, o = mk () in
        check_str "delim with >" "Ann->Bob"
          (render_str g o {|<SFMT @author DELIM="->">|}));
  ]

let value_rules =
  [
    t "postscript becomes a link" (fun () ->
        let g, o = mk () in
        check_str "ps link" {|<a href="p.ps">p.ps</a>|} (render_str g o "<SFMT @ps>"));
    t "postscript link with tag" (fun () ->
        let g, o = mk () in
        check_str "tagged" {|<a href="p.ps">Hello &lt;World&gt;</a>|}
          (render_str g o "<SFMT @ps LINK=@title>"));
    t "image becomes img" (fun () ->
        let g, o = mk () in
        check_str "img" {|<img src="i.gif" alt="">|} (render_str g o "<SFMT @pic>"));
    t "url becomes anchor" (fun () ->
        let g, o = mk () in
        check_str "url" {|<a href="http://x.org">http://x.org</a>|}
          (render_str g o "<SFMT @site>"));
    t "text file inlined by loader" (fun () ->
        let g, o = mk () in
        Graph.add_edge g o "abs" (Graph.V (Value.File (Value.Text, "a.txt")));
        let ctx =
          {
            Teval.graph = g;
            vars = [];
            render_object = (fun _ _ _ -> "");
            file_loader = (fun p -> if p = "a.txt" then Some "CONTENT" else None);
            on_read = None;
          }
        in
        check_str "inlined" "<pre>CONTENT</pre>"
          (Teval.render ctx (Tparse.parse "<SFMT @abs>") o));
    t "text file without loader is a link" (fun () ->
        let g, o = mk () in
        Graph.add_edge g o "abs" (Graph.V (Value.File (Value.Text, "a.txt")));
        check_str "link" {|<a href="a.txt">a.txt</a>|} (render_str g o "<SFMT @abs>"));
    t "internal object defaults to link" (fun () ->
        let g, o = mk () in
        check_bool "links" true
          (render_str g o {|<SFMT @kid DELIM="|">|} = "[link child]|[link child2]"));
    t "embed directive" (fun () ->
        let g, o = mk () in
        check_bool "embeds" true
          (render_str g o {|<SFMT @kid EMBED DELIM=";">|}
           = "[embed child];[embed child2]"));
    t "link with string tag" (fun () ->
        let g, o = mk () in
        check_bool "anchored" true
          (render_str g o {|<SFMT @kid LINK="here" DELIM=";">|}
           = "[link child as here];[link child2 as here]"));
  ]

let conditionals =
  [
    t "sif nonnull true branch" (fun () ->
        let g, o = mk () in
        check_str "then" "Y" (render_str g o "<SIF @title>Y<SELSE>N</SIF>"));
    t "sif nonnull false branch" (fun () ->
        let g, o = mk () in
        check_str "else" "N" (render_str g o "<SIF @nope>Y<SELSE>N</SIF>"));
    t "sif without selse" (fun () ->
        let g, o = mk () in
        check_str "empty" "" (render_str g o "<SIF @nope>Y</SIF>"));
    t "sif != NULL idiom" (fun () ->
        let g, o = mk () in
        check_str "present" "Y" (render_str g o "<SIF @year != NULL>Y</SIF>");
        check_str "absent" "" (render_str g o "<SIF @nope != NULL>Y</SIF>"));
    t "sif comparisons with coercion" (fun () ->
        let g, o = mk () in
        check_str "eq" "Y" (render_str g o {|<SIF @year = 1997>Y</SIF>|});
        check_str "eq str" "Y" (render_str g o {|<SIF @year = "1997">Y</SIF>|});
        check_str "lt" "Y" (render_str g o {|<SIF @year < 2000>Y</SIF>|});
        check_str "ge fail" "" (render_str g o {|<SIF @year >= 2000>Y</SIF>|}));
    t "sif AND OR NOT with parens" (fun () ->
        let g, o = mk () in
        check_str "and" "Y"
          (render_str g o {|<SIF @year = 1997 AND @title != NULL>Y</SIF>|});
        check_str "or" "Y"
          (render_str g o {|<SIF @nope OR @year = 1997>Y</SIF>|});
        check_str "not" "Y" (render_str g o {|<SIF NOT @nope>Y</SIF>|});
        check_str "parens" "Y"
          (render_str g o {|<SIF (@nope OR @year = 1997) AND @title>Y</SIF>|}));
    t "nested sif" (fun () ->
        let g, o = mk () in
        check_str "nest" "AB"
          (render_str g o "<SIF @title>A<SIF @year>B</SIF></SIF>"));
    t "internal object operand vs NULL" (fun () ->
        let g, o = mk () in
        check_str "node != NULL" "Y" (render_str g o {|<SIF @kid != NULL>Y</SIF>|}));
  ]

let iteration =
  [
    t "sfor binds variable" (fun () ->
        let g, o = mk () in
        check_str "vals" "[Ann][Bob]"
          (render_str g o "<SFOR a IN @author>[<SFMT @a>]</SFOR>"));
    t "sfor delim" (fun () ->
        let g, o = mk () in
        check_str "sep" "Ann--Bob"
          (render_str g o {|<SFOR a IN @author DELIM="--"><SFMT @a></SFOR>|}));
    t "sfor over internal objects with attribute access" (fun () ->
        let g, o = mk () in
        check_str "names" "Kid;Ada;"
          (render_str g o {|<SFOR k IN @kid><SFMT @k.name>;</SFOR>|}));
    t "sfor order by key ascend" (fun () ->
        let g, o = mk () in
        check_str "sorted" "Ada,Kid,"
          (render_str g o
             {|<SFOR k IN @kid ORDER=ascend KEY=rank><SFMT @k.name>,</SFOR>|}));
    t "sfor order descend" (fun () ->
        let g, o = mk () in
        check_str "sorted" "Kid,Ada,"
          (render_str g o
             {|<SFOR k IN @kid ORDER=descend KEY=rank><SFMT @k.name>,</SFOR>|}));
    t "sfor nested" (fun () ->
        let g, o = mk () in
        check_str "product" "(Ann:Kid)(Ann:Ada)(Bob:Kid)(Bob:Ada)"
          (render_str g o
             {|<SFOR a IN @author><SFOR k IN @kid>(<SFMT @a>:<SFMT @k.name>)</SFOR></SFOR>|}));
    t "sfmtlist" (fun () ->
        let g, o = mk () in
        check_str "ul"
          "<ul>\n<li>Ann</li>\n<li>Bob</li>\n</ul>"
          (render_str g o "<SFMTLIST @author>"));
    t "sfmtlist empty attr renders nothing" (fun () ->
        let g, o = mk () in
        check_str "nothing" "" (render_str g o "<SFMTLIST @nope>"));
    t "sfmt order directive" (fun () ->
        let g, o = mk () in
        check_str "desc" "Bob Ann"
          (render_str g o {|<SFMT @author ORDER=descend>|}));
    t "bounded traversal in attr expr" (fun () ->
        let g, o = mk () in
        check_str "two-hop" "Kid Ada" (render_str g o "<SFMT @kid.name>"));
  ]

(* qcheck: no raw markup from attribute values ever reaches the page *)
let printable_string =
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 32 126)) (int_range 0 30))

let renders_escaped v_str =
  let g = Graph.create () in
  let o = Graph.new_node g "o" in
  Graph.add_edge g o "t" (Graph.V (Value.String v_str));
  let out = render_str g o "[<SFMT @t>]" in
  (* strip the brackets and check no unescaped markup chars remain *)
  let inner = String.sub out 1 (String.length out - 2) in
  not (String.contains inner '<')
  && not (String.contains inner '>')
  && (* '&' may appear only as an entity start; decode check: the output
        must re-decode to the input *)
  (let buf = Buffer.create 16 in
   let n = String.length inner in
   let i = ref 0 in
   let ok = ref true in
   while !i < n do
     if inner.[!i] = '&' then begin
       match String.index_from_opt inner !i ';' with
       | Some j ->
         (match String.sub inner (!i + 1) (j - !i - 1) with
          | "lt" -> Buffer.add_char buf '<'
          | "gt" -> Buffer.add_char buf '>'
          | "amp" -> Buffer.add_char buf '&'
          | "quot" -> Buffer.add_char buf '"'
          | _ -> ok := false);
         i := j + 1
       | None -> ok := false; incr i
     end
     else begin
       Buffer.add_char buf inner.[!i];
       incr i
     end
   done;
   !ok && Buffer.contents buf = v_str)

let escaping_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"attribute values are fully escaped and decodable" ~count:500
         (QCheck.make ~print:(fun s -> s) printable_string)
         renders_escaped);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"rendering total on random value kinds"
         ~count:300
         (QCheck.make
            QCheck.Gen.(
              oneof
                [
                  map (fun i -> Value.Int i) small_signed_int;
                  map (fun s -> Value.String s) printable_string;
                  map (fun s -> Value.Url ("http://" ^ s))
                    (string_size ~gen:(char_range 'a' 'z') (int_range 1 8));
                  map (fun s -> Value.File (Value.Postscript, s))
                    (string_size ~gen:(char_range 'a' 'z') (int_range 1 8));
                  return Value.Null;
                  map (fun b -> Value.Bool b) bool;
                ]))
         (fun v ->
           let g = Graph.create () in
           let o = Graph.new_node g "o" in
           Graph.add_edge g o "t" (Graph.V v);
           let _ = render_str g o "<SFMT @t>" in
           let _ = render_str g o "<SIF @t>x</SIF>" in
           let _ = render_str g o "<SFMTLIST @t>" in
           true));
  ]

let template_errors =
  [
    t "unknown directive rejected" (fun () ->
        check_bool "raises" true
          (try ignore (Tparse.parse "<SFMT @x BOGUS=1>"); false
           with Tparse.Template_error _ -> true));
    t "bad ORDER value rejected" (fun () ->
        check_bool "raises" true
          (try ignore (Tparse.parse "<SFMT @x ORDER=sideways>"); false
           with Tparse.Template_error _ -> true));
    t "DELIM requires a string" (fun () ->
        check_bool "raises" true
          (try ignore (Tparse.parse "<SFMT @x DELIM=3>"); false
           with Tparse.Template_error _ -> true));
    t "SFOR without IN rejected" (fun () ->
        check_bool "raises" true
          (try ignore (Tparse.parse "<SFOR a OF @x>y</SFOR>"); false
           with Tparse.Template_error _ -> true));
    t "unterminated tag rejected" (fun () ->
        check_bool "raises" true
          (try ignore (Tparse.parse "<SFMT @x"); false
           with Tparse.Template_error _ -> true));
    t "token-stream errors are Template_errors with line and column"
      (fun () ->
        List.iter
          (fun (src, where) ->
            match Tparse.parse src with
            | exception Tparse.Template_error msg ->
              check_bool
                (Printf.sprintf "%S: %S starts with %S" src msg where)
                true
                (String.length msg >= String.length where
                 && String.sub msg 0 (String.length where) = where)
            | _ -> Alcotest.failf "%S parsed" src)
          [ ("<SFMT title>", "line 1, column 7: ");
            ("<SFOR x IN 3>y</SFOR>", "line 1, column 12: ");
            ("ok\n  <SIF @x = >y</SIF>", "line 2, column 7: ");
            ("<SFMT @x $>", "line 1: ") ]);
  ]

let suite =
  parsing @ value_rules @ conditionals @ iteration @ escaping_props
  @ template_errors
