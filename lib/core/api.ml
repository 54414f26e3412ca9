(** Convenience façade over the whole system.

    [Strudel.Api] re-exports the pieces a site builder touches — the
    graph model, the wrappers, StruQL, templates, schemas — and offers
    one-call helpers for the common flows.  See [examples/] for
    walkthroughs. *)

module Graph = Sgraph.Graph
module Oid = Sgraph.Oid
module Value = Sgraph.Value
module Ddl = Sgraph.Ddl
module Path = Sgraph.Path
module Skolem = Sgraph.Skolem
module Query = Struql.Parser
module Eval = Struql.Eval
module Exec = Struql.Exec
module Pretty = Struql.Pretty
module Site_schema = Schema.Site_schema
module Verify = Schema.Verify
module Templates = Template.Generator
module Bibtex = Wrappers.Bibtex
module Csv = Wrappers.Csv
module Structured_file = Wrappers.Structured_file
module Html_wrapper = Wrappers.Html_wrapper
module Synth = Wrappers.Synth
module Warehouse = Mediator.Warehouse
module Gav = Mediator.Gav
module Source = Mediator.Source
module Store = Repository.Store

(** Parse and evaluate a StruQL query over a graph. *)
let query (g : Graph.t) (src : string) : Graph.t = Exec.run_string g src

(** Evaluate a query against a repository: the query's INPUT names are
    resolved to stored graphs (several inputs evaluate over their
    union, since graphs of one database may share objects), and the
    result is stored under the query's OUTPUT name.  This is the
    database-style entry point — [INPUT BIBTEX, PERSONAL ... OUTPUT
    HomePage] reads two catalogued graphs and catalogues the result. *)
let query_repo ?options (repo : Store.t) (src : string) : Graph.t =
  let q = Struql.Parser.parse src in
  let input =
    match q.Struql.Ast.input with
    | [ one ] -> Store.get repo one
    | names -> Graph.union ~name:"inputs" (List.map (Store.get repo) names)
  in
  let out = Exec.run ?options input q in
  Store.put repo out;
  out

(** Load a data graph from DDL text. *)
let load_ddl ?graph_name src : Graph.t = fst (Ddl.parse ?graph_name src)

(** Load a BibTeX bibliography as a data graph. *)
let load_bibtex ?graph_name src : Graph.t = fst (Bibtex.load ?graph_name src)

(** Build a complete site: data + query + templates → pages. *)
let build_site ~name ~root_family ~query:(q : string)
    ~templates (data : Graph.t) : Site.built =
  Site.build ~data
    (Site.define ~name ~root_family ~templates [ ("site", q) ])

(** Write a built site's pages to a directory. *)
let write ~dir (b : Site.built) =
  Template.Generator.write_site ~dir b.Site.site
