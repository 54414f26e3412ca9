(* Golden-snapshot generator: prints every rendered page of one example
   site to stdout as "==== <url> ====" blocks.  The dune rules diff the
   output against the committed snapshots under test/golden/; template
   regressions show as reviewable diffs and intentional changes are
   accepted with `dune runtest --auto-promote`.  Sites are built at
   small, seeded sizes so the snapshots stay diffable. *)

let dump (built : Strudel.Site.built) =
  List.iter
    (fun (p : Template.Generator.page) ->
      Printf.printf "==== %s ====\n%s\n" p.Template.Generator.url
        p.Template.Generator.html)
    built.Strudel.Site.site.Template.Generator.pages

(* lint-<site>: the text-format lint report of the site at the same
   small, seeded sizes — the expected-warning baselines of the example
   specifications. *)
let lint spec = print_string (Analysis.Diagnostic.to_text (Analysis.Lint.run spec))

let () =
  match if Array.length Sys.argv > 1 then Sys.argv.(1) else "" with
  | "paper" -> dump (Sites.Paper_example.build ())
  | "cnn" -> dump (Sites.Cnn.build ~articles:6 ())
  | "org" -> dump (Sites.Org.build ~people:8 ~orgs:2 ~projects:3 ~pubs:4 ())
  | "homepage" -> dump (Sites.Homepage.build ~entries:5 ())
  | "rodin" -> dump (Sites.Rodin.build ())
  | "lint-paper" -> lint (Sites.Lint_specs.paper ())
  | "lint-cnn" -> lint (Sites.Lint_specs.cnn ())
  | "lint-org" -> lint (Sites.Lint_specs.org ())
  | "lint-homepage" -> lint (Sites.Lint_specs.homepage ())
  | "lint-rodin" -> lint (Sites.Lint_specs.rodin ())
  | other ->
    prerr_endline
      ("usage: golden_gen (lint-)?(paper|cnn|org|homepage|rodin) — \
        got: " ^ other);
    exit 1
