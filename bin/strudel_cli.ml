(* The strudel command-line tool.

   Subcommands mirror the architecture of Fig. 1:
     load    run a wrapper: external data -> data graph (DDL)
     query   evaluate a StruQL query over a data graph
     check   static checks + safety classification of a query
     schema  derive and print the site schema of a query
     build   data + query + templates -> browsable Web site
     verify  check integrity constraints on a site graph
     demo    build one of the bundled example sites *)

open Cmdliner
open Sgraph

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let or_die f =
  try f () with
  | Ddl.Ddl_error (msg, line) ->
    Fmt.epr "DDL error, line %d: %s@." line msg;
    exit 1
  | Struql.Parser.Parse_error (msg, line, col) ->
    if col > 0 then
      Fmt.epr "StruQL parse error, line %d, column %d: %s@." line col msg
    else Fmt.epr "StruQL parse error, line %d: %s@." line msg;
    exit 1
  | Struql.Eval.Eval_error msg ->
    Fmt.epr "evaluation error: %s@." msg;
    exit 1
  | Struql.Plan.No_plan msg ->
    Fmt.epr "no executable plan: %s@." msg;
    exit 1
  | Struql.Plan.Plan_error msg ->
    Fmt.epr "planning error: %s@." msg;
    exit 1
  | Struql.Check.Invalid problems ->
    Fmt.epr "invalid query:@.";
    List.iter (fun p -> Fmt.epr "  %a@." Struql.Check.pp_problem p) problems;
    exit 1
  | Wrappers.Bibtex.Bibtex_error (msg, line) ->
    Fmt.epr "BibTeX error, line %d: %s@." line msg;
    exit 1
  | Wrappers.Csv.Csv_error (msg, line, col) ->
    Fmt.epr "CSV error, line %d, column %d: %s@." line col msg;
    exit 1
  | Wrappers.Structured_file.Structured_error (msg, line) ->
    Fmt.epr "structured-file error, line %d: %s@." line msg;
    exit 1
  | Mediator.Gav.Unknown_source (name, declared) ->
    Fmt.epr "mediator: mapping names unknown source '%s' (declared: %s)@."
      name
      (String.concat ", " declared);
    exit 1
  | Repository.Segment.Corrupt (msg, offset) ->
    Fmt.epr "corrupt segment at byte %d: %s@." offset msg;
    exit 1
  | Repository.Store.Manifest_error msg ->
    Fmt.epr "malformed repository manifest: %s@." msg;
    exit 1
  | Fault.Inject.Injected msg ->
    Fmt.epr "injected fault: %s@." msg;
    exit 1
  | Fault.Manifest.Manifest_error msg ->
    Fmt.epr "malformed fault manifest: %s@." msg;
    exit 1
  | Template.Tparse.Template_error msg ->
    Fmt.epr "template error: %s@." msg;
    exit 1
  | Strudel.Site.Build_error msg ->
    Fmt.epr "build error: %s@." msg;
    exit 1

(* --- common args --- *)

let output_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH"
         ~doc:"Output file or directory (default: stdout).")

let data_arg =
  Arg.(required & opt (some file) None & info [ "d"; "data" ] ~docv:"DDL"
         ~doc:"Data graph in DDL syntax.")

let emit output s =
  match output with None -> print_string s | Some p -> write_file p s

(* --- load --- *)

let load_cmd =
  let format_arg =
    Arg.(value & opt (enum [ ("bibtex", `Bibtex); ("csv", `Csv);
                             ("structured", `Structured); ("html", `Html);
                             ("ddl", `Ddl); ("xml", `Xml) ]) `Ddl
         & info [ "f"; "format" ] ~docv:"FORMAT"
             ~doc:"Input format: bibtex, csv, structured, html, ddl or xml.")
  in
  let xml_out_arg =
    Arg.(value & flag
         & info [ "x"; "xml" ] ~doc:"Emit XML instead of the DDL.")
  in
  let name_arg =
    Arg.(value & opt string "data"
         & info [ "n"; "name" ] ~docv:"NAME"
             ~doc:"Graph name (and CSV collection name).")
  in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let run format name file xml_out output =
    or_die (fun () ->
        let g =
          match format with
          | `Bibtex -> fst (Wrappers.Bibtex.load ~graph_name:name (read_file file))
          | `Csv -> fst (Wrappers.Csv.load ~graph_name:name ~name (read_file file))
          | `Structured ->
            fst (Wrappers.Structured_file.load ~graph_name:name (read_file file))
          | `Html ->
            fst
              (Wrappers.Html_wrapper.load_pages ~graph_name:name
                 [ (Filename.basename file, read_file file) ])
          | `Ddl -> fst (Ddl.parse ~graph_name:name (read_file file))
          | `Xml -> Xml.import ~graph_name:name (read_file file)
        in
        Fmt.epr "%a@." Graph.pp_stats g;
        emit output (if xml_out then Xml.export g else Ddl.print g))
  in
  Cmd.v (Cmd.info "load" ~doc:"Wrap an external source into a data graph.")
    Term.(const run $ format_arg $ name_arg $ file_arg $ xml_out_arg
          $ output_arg)

(* --- query --- *)

let strategy_arg =
  Arg.(value & opt (enum [ ("naive", Struql.Plan.Naive);
                           ("heuristic", Struql.Plan.Heuristic);
                           ("costbased", Struql.Plan.Cost_based) ])
         Struql.Plan.Heuristic
       & info [ "s"; "strategy" ] ~docv:"STRATEGY"
           ~doc:"Optimizer: naive, heuristic or costbased.")

let query_pos_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"QUERY")

let data_opt_arg =
  Arg.(value & opt (some file) None
       & info [ "d"; "data" ] ~docv:"DDL"
           ~doc:"Data graph in DDL syntax (single-input mode).")

let graphs_arg =
  Arg.(value & opt_all (pair ~sep:'=' string file) []
       & info [ "g"; "graph" ] ~docv:"NAME=FILE"
           ~doc:
             "Catalogue a named graph (repeatable); the query's INPUT \
              names resolve against the catalogue.")

(* Resolve the -d / -g options to the graph a query runs over. *)
let input_graph data graphs (q : Struql.Ast.query) =
  match data, graphs with
  | Some d, [] -> fst (Ddl.parse ~graph_name:"input" (read_file d))
  | None, (_ :: _ as graphs) ->
    let repo = Repository.Store.create () in
    List.iter
      (fun (name, file) ->
        Repository.Store.put repo
          (fst (Ddl.parse ~graph_name:name (read_file file))))
      graphs;
    Graph.union ~name:"inputs"
      (List.map (Repository.Store.get repo) q.Struql.Ast.input)
  | Some _, _ :: _ ->
    Fmt.epr "use either -d or -g, not both@.";
    exit 1
  | None, [] ->
    Fmt.epr "one of -d DDL or -g NAME=FILE is required@.";
    exit 1

let query_cmd =
  let stats_arg =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Print the measured per-operator execution profile.")
  in
  let run data graphs query strategy stats output =
    or_die (fun () ->
        let q = Struql.Parser.parse (read_file query) in
        let options = { Struql.Eval.default_options with strategy } in
        let g = input_graph data graphs q in
        let out, prof =
          Struql.Exec.run_with_profile ~options ~timed:stats g q
        in
        if stats then Fmt.epr "%a@." Struql.Exec.pp_profile prof;
        Fmt.epr "%a@." Graph.pp_stats out;
        emit output (Ddl.print out))
  in
  Cmd.v (Cmd.info "query" ~doc:"Evaluate a StruQL query over data graphs.")
    Term.(const run $ data_opt_arg $ graphs_arg $ query_pos_arg $ strategy_arg
          $ stats_arg $ output_arg)

(* --- explain / explain-analyze --- *)

let strategy_opt_arg =
  Arg.(value & opt (some (enum [ ("naive", Struql.Plan.Naive);
                                 ("heuristic", Struql.Plan.Heuristic);
                                 ("costbased", Struql.Plan.Cost_based) ]))
         None
       & info [ "s"; "strategy" ] ~docv:"STRATEGY"
           ~doc:
             "Optimizer: naive, heuristic or costbased (default: show all \
              three).")

let strategies_of = function
  | Some s -> [ s ]
  | None -> [ Struql.Plan.Naive; Struql.Plan.Heuristic; Struql.Plan.Cost_based ]

let explain_cmd =
  let run data graphs query strategy =
    or_die (fun () ->
        let q = Struql.Parser.parse (read_file query) in
        let g = input_graph data graphs q in
        List.iter
          (fun strategy ->
            let options = { Struql.Eval.default_options with strategy } in
            Fmt.pr "%a@."
              Struql.Exec.pp_query_plan
              (Struql.Exec.plan_query ~options g q))
          (strategies_of strategy))
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Show the physical plan of a query: operator order, access paths \
          (index probe vs scan) and cardinality estimates, without running \
          it.")
    Term.(const run $ data_opt_arg $ graphs_arg $ query_pos_arg
          $ strategy_opt_arg)

let shards_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "shards" ] ~docv:"DIR"
           ~doc:
             "A repository directory: $(b,build) saves the data graph \
              there, $(b,explain-analyze) queries the graphs it holds \
              (see $(b,strudel repo)).")

let explain_analyze_cmd =
  let run data graphs query strategy shards_dir =
    or_die (fun () ->
        let q = Struql.Parser.parse (read_file query) in
        let g =
          match shards_dir with
          | None -> input_graph data graphs q
          | Some dir ->
            (* the repository is the data: run over its catalog's union *)
            let repo = Repository.Store.load_dir ~dir in
            Graph.union ~name:"repository"
              (List.rev_map (Repository.Store.get repo)
                 (Repository.Store.names repo))
        in
        List.iter
          (fun strategy ->
            let options = { Struql.Eval.default_options with strategy } in
            (* fresh counter baseline per strategy, so each profile's
               kernel line stands alone *)
            Graph.reset_kernel_counters g;
            let _, prof =
              Struql.Exec.run_with_profile ~options ~timed:true g q
            in
            Fmt.pr "%a@." Struql.Exec.pp_profile prof)
          (strategies_of strategy))
  in
  Cmd.v
    (Cmd.info "explain-analyze"
       ~doc:
         "Run a query on the streaming engine and show the measured plan: \
          per-operator rows in/out, batch watermarks, timings and the peak \
          live-binding count.  With $(b,--shards), the query runs over the \
          union of the repository's graphs.")
    Term.(const run $ data_opt_arg $ graphs_arg $ query_pos_arg
          $ strategy_opt_arg $ shards_dir_arg)

(* --- check --- *)

let check_cmd =
  let query_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"QUERY")
  in
  let run query =
    or_die (fun () ->
        let q = Struql.Parser.parse (read_file query) in
        let report = Struql.Check.check q in
        List.iter
          (fun p -> Fmt.pr "error: %a@." Struql.Check.pp_problem p)
          report.Struql.Check.errors;
        List.iter
          (fun p -> Fmt.pr "warning: %a@." Struql.Check.pp_problem p)
          report.Struql.Check.warnings;
        if report.Struql.Check.errors = [] then begin
          Fmt.pr "query is valid%s@."
            (if report.Struql.Check.warnings = [] then " and range-restricted"
             else " (active-domain semantics apply)");
          Fmt.pr "%d blocks, %d conditions, %d link clauses@."
            (List.length q.Struql.Ast.blocks)
            (Struql.Ast.query_condition_count q)
            (Struql.Ast.query_link_count q)
        end
        else exit 1)
  in
  Cmd.v (Cmd.info "check" ~doc:"Statically check a StruQL query.")
    Term.(const run $ query_arg)

(* --- schema --- *)

let schema_cmd =
  let query_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"QUERY")
  in
  let dot_arg =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz dot format.")
  in
  let run query dot output =
    or_die (fun () ->
        let q = Struql.Parser.parse (read_file query) in
        let s = Schema.Site_schema.of_query q in
        if dot then emit output (Schema.Dot.of_schema s)
        else emit output (Schema.Site_schema.to_string s))
  in
  Cmd.v
    (Cmd.info "schema"
       ~doc:"Derive the site schema of a site-definition query.")
    Term.(const run $ query_arg $ dot_arg $ output_arg)

(* --- decompose --- *)

let decompose_cmd =
  let query_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"QUERY")
  in
  let run query output =
    or_die (fun () ->
        let q = Struql.Parser.parse (read_file query) in
        let pieces = Schema.Decompose.of_query q in
        emit output (Fmt.str "%a" Schema.Decompose.pp pieces);
        Fmt.epr "%d pieces@." (List.length pieces))
  in
  Cmd.v
    (Cmd.info "decompose"
       ~doc:
         "Split a site-definition query into independently evaluable \
          queries (one per create/link/collect).")
    Term.(const run $ query_arg $ output_arg)

(* --- build --- *)

let build_cmd =
  let query_arg =
    Arg.(required & opt (some file) None
         & info [ "q"; "query" ] ~docv:"QUERY" ~doc:"Site-definition query.")
  in
  let root_arg =
    Arg.(value & opt string "RootPage"
         & info [ "root" ] ~docv:"FAMILY"
             ~doc:"Skolem family of the root page(s).")
  in
  let template_arg =
    Arg.(value & opt_all (pair ~sep:'=' string file) []
         & info [ "t"; "template" ] ~docv:"COLLECTION=FILE"
             ~doc:"Template for a collection (repeatable).")
  in
  let dir_arg =
    Arg.(value & opt string "_site/out"
         & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let jobs_arg =
    Arg.(value & opt int 1
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:
               "Render pages on $(docv) OCaml domains (0 = auto-detect \
                the machine's domain count; output is byte-identical \
                at every level).")
  in
  let stats_arg =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:
               "Print the render profile (per-domain pages and wall \
                time, waves, cache counters) after building.")
  in
  let on_error_arg =
    Arg.(value & opt (enum [ ("abort", Fault.Abort); ("degrade", Fault.Degrade) ])
           Fault.Abort
         & info [ "on-error" ] ~docv:"MODE"
             ~doc:
               "What a failed page render does: $(b,abort) the build \
                (default, exit 1) or $(b,degrade) — emit a placeholder \
                error page, record the fault in the manifest and exit 3.")
  in
  let retries_arg =
    Arg.(value & opt int 1
         & info [ "retries" ] ~docv:"N"
             ~doc:
               "Attempt reading and parsing the data graph up to $(docv) \
                times with exponential backoff before giving up.")
  in
  let faults_out_arg =
    Arg.(value & opt (some string) None
         & info [ "faults-out" ] ~docv:"PATH"
             ~doc:
               "Where to write the machine-readable fault manifest \
                (default: $(i,DIR)/faults.json).")
  in
  let run data query root templates strategy dir jobs stats on_error
      retries faults_out shards_dir =
    or_die (fun () ->
        let jobs =
          if jobs <= 0 then Pool.auto_jobs () else jobs
        in
        let fault = Fault.ctx () in
        let t0 = Unix.gettimeofday () in
        let g =
          let retry =
            { Fault.Policy.default_retry with attempts = max 1 retries }
          in
          match
            Fault.Retry.run ~retry (fun ~attempt:_ ->
                fst (Ddl.parse ~graph_name:"input" (read_file data)))
          with
          | Ok g -> g
          | Error (e, _) -> raise e
        in
        let load_ms = (Unix.gettimeofday () -. t0) *. 1000. in
        (* with --shards, also save the data graph to a repository
           directory as a segment; the site queries run over [g] either
           way *)
        Option.iter
          (fun sdir ->
            let repo = Repository.Store.create () in
            Repository.Store.put repo g;
            Repository.Store.save_dir ~format:`Segment
              ~sources:[ ("input", 0) ] repo ~dir:sdir)
          shards_dir;
        let templates =
          {
            Template.Generator.empty_templates with
            Template.Generator.by_collection =
              List.map (fun (c, f) -> (c, read_file f)) templates;
          }
        in
        let def =
          Strudel.Site.define ~name:"site" ~root_family:root ~templates
            ~strategy
            [ ("site", read_file query) ]
        in
        (* pages are written as they render, never held *)
        let built =
          Strudel.Site.build ~jobs ~on_error ~fault
            ~sink:(Strudel.Render_pool.file_sink ~dir) ~data:g def
        in
        Fmt.pr "%d pages written to %s@."
          built.Strudel.Site.render_profile.Strudel.Render_pool.rp_pages
          dir;
        if stats then begin
          (* the per-source outcome table (the degenerate one-source
             federation of a file build; warehouse builds report every
             source the same way) *)
          Fmt.pr "sources:@.%a"
            Mediator.Warehouse.pp_stats
            [ { Mediator.Warehouse.ss_source = data;
                ss_outcome = Mediator.Warehouse.Changed;
                ss_duration_ms = load_ms;
                ss_version = 0 } ];
          Option.iter
            (fun dir ->
              Fmt.pr "%a@." Repository.Store.pp_manifest
                (Repository.Store.load_manifest ~dir))
            shards_dir;
          List.iter
            (fun prof -> Fmt.pr "%a@." Struql.Exec.pp_profile prof)
            built.Strudel.Site.query_stats;
          Fmt.pr "%a@." Strudel.Render_pool.pp_profile
            built.Strudel.Site.render_profile
        end;
        let manifest = Strudel.Site.manifest built in
        let manifest_path =
          match faults_out with
          | Some p -> p
          | None -> Filename.concat dir "faults.json"
        in
        write_file manifest_path (Fault.Manifest.to_json manifest);
        (match Fault.Manifest.status manifest with
         | Fault.Manifest.Clean -> ()
         | Fault.Manifest.Degraded ->
           Fmt.epr "build degraded: %d fault(s), see %s@."
             (List.length (Fault.Manifest.faults manifest))
             manifest_path);
        exit (Fault.Manifest.exit_code manifest))
  in
  Cmd.v (Cmd.info "build" ~doc:"Build a browsable site from data + query + templates.")
    Term.(const run $ data_arg $ query_arg $ root_arg $ template_arg
          $ strategy_arg $ dir_arg $ jobs_arg $ stats_arg
          $ on_error_arg $ retries_arg $ faults_out_arg $ shards_dir_arg)

(* --- faults: inspect a build manifest --- *)

let faults_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FAULTS_JSON")
  in
  let run file =
    or_die (fun () ->
        let m = Fault.Manifest.of_json (read_file file) in
        Fmt.pr "%a@." Fault.Manifest.pp m;
        exit (Fault.Manifest.exit_code m))
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Pretty-print a build's fault manifest (faults.json) and exit \
          with its status code (0 clean, 3 degraded).")
    Term.(const run $ file_arg)

(* --- verify --- *)

let verify_cmd =
  let reachable_arg =
    Arg.(value & opt (some string) None
         & info [ "reachable-from" ] ~docv:"FAMILY"
             ~doc:"Check all pages reachable from the family.")
  in
  let points_arg =
    Arg.(value & opt_all (t3 ~sep:',' string string string) []
         & info [ "points-to" ] ~docv:"A,LABEL,B"
             ~doc:"Check every A page has a LABEL link to some B page.")
  in
  let no_label_arg =
    Arg.(value & opt_all string []
         & info [ "no-label" ] ~docv:"LABEL"
             ~doc:"Check the label appears nowhere in the site.")
  in
  let run data reachable points no_labels =
    or_die (fun () ->
        let g, _ = Ddl.parse ~graph_name:"site" (read_file data) in
        let cs =
          (match reachable with
           | Some f -> [ Schema.Verify.Reachable_from f ]
           | None -> [])
          @ List.map (fun (a, l, b) -> Schema.Verify.Points_to (a, l, b)) points
          @ List.map (fun l -> Schema.Verify.No_attribute_anywhere l) no_labels
        in
        let results = Schema.Verify.check_all_site g cs in
        List.iter
          (fun (c, v) ->
            Fmt.pr "%a: %a@." Schema.Verify.pp_constraint c
              Schema.Verify.pp_verdict v)
          results;
        if
          List.exists
            (fun (_, v) ->
              match v with Schema.Verify.Violated _ -> true | _ -> false)
            results
        then exit 1)
  in
  Cmd.v (Cmd.info "verify" ~doc:"Check integrity constraints on a site graph.")
    Term.(const run $ data_arg $ reachable_arg $ points_arg $ no_label_arg)

(* --- lint: static analysis of a site specification --- *)

let lint_cmd =
  let spec_arg =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"SITE"
             ~doc:
               "A bundled example site (quickstart, homepage, cnn, org, \
                rodin — a path like examples/cnn also works) or a StruQL \
                site-definition query file (combine with $(b,-d), \
                $(b,-t) and $(b,--root)).  Optional with \
                $(b,--list-codes).")
  in
  let list_codes_arg =
    Arg.(value & flag
         & info [ "list-codes" ]
             ~doc:
               "Print the stable diagnostic catalog (code, default \
                severity, description) and exit.")
  in
  let format_arg =
    Arg.(value & opt (enum [ ("text", `Text); ("json", `Json);
                             ("sarif", `Sarif) ]) `Text
         & info [ "f"; "format" ] ~docv:"FORMAT"
             ~doc:"Report format: text, json or sarif (2.1.0).")
  in
  let fail_on_arg =
    Arg.(value & opt (enum [ ("error", Analysis.Lint.Fail_error);
                             ("warning", Analysis.Lint.Fail_warning) ])
           Analysis.Lint.Fail_error
         & info [ "fail-on" ] ~docv:"SEVERITY"
             ~doc:
               "Exit 1 when a diagnostic at or above $(docv) is present: \
                error (default) or warning.")
  in
  let root_arg =
    Arg.(value & opt string "RootPage"
         & info [ "root" ] ~docv:"FAMILY"
             ~doc:"Skolem family of the root page(s) (query-file mode).")
  in
  let template_arg =
    Arg.(value & opt_all (pair ~sep:'=' string file) []
         & info [ "t"; "template" ] ~docv:"COLLECTION=FILE"
             ~doc:"Template for a collection (repeatable, query-file mode).")
  in
  let resolve_bundled name =
    let base =
      String.lowercase_ascii (Filename.remove_extension (Filename.basename name))
    in
    match base with
    | "quickstart" | "paper" | "paper_example" ->
      Some (Sites.Lint_specs.paper ())
    | "homepage" -> Some (Sites.Lint_specs.homepage ())
    | "cnn" -> Some (Sites.Lint_specs.cnn ~articles:100 ())
    | "org" -> Some (Sites.Lint_specs.org ~people:50 ~orgs:5 ())
    | "rodin" -> Some (Sites.Lint_specs.rodin ())
    | _ -> None
  in
  let run list_codes spec_name data templates root format fail_on output =
    or_die (fun () ->
        if list_codes then begin
          List.iter
            (fun (code, sev, desc) ->
              Fmt.pr "%s  %-7s  %s@." code
                (Analysis.Diagnostic.severity_name sev)
                desc)
            Analysis.Diagnostic.catalog;
          exit 0
        end;
        let spec_name =
          match spec_name with
          | Some s -> s
          | None ->
            Fmt.epr "a SITE argument is required (or use --list-codes)@.";
            exit 2
        in
        let spec =
          match resolve_bundled spec_name with
          | Some s -> s
          | None when Sys.file_exists spec_name ->
            let templates =
              {
                Template.Generator.empty_templates with
                Template.Generator.by_collection =
                  List.map (fun (c, f) -> (c, read_file f)) templates;
              }
            in
            {
              Analysis.Lint.name = Filename.basename spec_name;
              queries = [ (spec_name, read_file spec_name) ];
              templates;
              root_family = root;
              constraints = [];
              registry = Struql.Builtins.default;
              data =
                Option.map
                  (fun d ->
                    fst (Ddl.parse ~graph_name:"input" (read_file d)))
                  data;
              declared_sources = [];
              mapping_sources = [];
              max_guide_states = 10_000;
            }
          | None ->
            Fmt.epr
              "unknown site '%s' (bundled: quickstart, homepage, cnn, org, \
               rodin) and no such file@."
              spec_name;
            exit 2
        in
        let diags = Analysis.Lint.run spec in
        let rendered =
          match format with
          | `Text -> Analysis.Diagnostic.to_text diags
          | `Json -> Analysis.Diagnostic.to_json diags
          | `Sarif -> Analysis.Diagnostic.to_sarif diags
        in
        emit output rendered;
        exit (Analysis.Lint.exit_code fail_on diags))
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyze a site specification without building it: \
          path emptiness, dead/unused spec, constraint verification and \
          template lint, as structured SA0xx diagnostics.  $(b,--list-codes) \
          prints the full stable catalog, including the race-sanitizer \
          codes emitted by $(b,strudel dsan).")
    Term.(const run $ list_codes_arg $ spec_arg $ data_opt_arg $ template_arg
          $ root_arg $ format_arg $ fail_on_arg $ output_arg)

(* --- dsan: race-sanitized runs of the parallel runtime --- *)

let dsan_cmd =
  let site_arg =
    Arg.(value & pos 0 (enum [ ("quickstart", `Quickstart);
                               ("homepage", `Homepage); ("cnn", `Cnn);
                               ("org", `Org); ("rodin", `Rodin) ]) `Org
         & info [] ~docv:"SITE"
             ~doc:
               "Bundled example site the sanitized workload runs on \
                (org also exercises the warehouse's parallel refresh).")
  in
  let jobs_arg =
    Arg.(value & opt int 4
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Domains for the parallel phases (builds, serving).")
  in
  let schedules_arg =
    Arg.(value & opt int 1
         & info [ "schedules" ] ~docv:"K"
             ~doc:
               "Distinct perturber seeds to explore: the whole workload \
                runs $(docv) times, each under a different deterministic \
                schedule perturbation.")
  in
  let seed_arg =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Base perturber seed (schedule k uses SEED + k).")
  in
  let format_arg =
    Arg.(value & opt (enum [ ("text", `Text); ("json", `Json);
                             ("sarif", `Sarif) ]) `Text
         & info [ "f"; "format" ] ~docv:"FORMAT"
             ~doc:"Report format: text, json or sarif (2.1.0).")
  in
  let fail_on_arg =
    Arg.(value & opt (enum [ ("error", Analysis.Lint.Fail_error);
                             ("warning", Analysis.Lint.Fail_warning) ])
           Analysis.Lint.Fail_error
         & info [ "fail-on" ] ~docv:"SEVERITY"
             ~doc:
               "Exit 1 when a diagnostic at or above $(docv) is present \
                (races are errors; the run summary is info).")
  in
  let run site jobs schedules seed format fail_on output =
    or_die (fun () ->
        let jobs = max 2 jobs in
        let def, data =
          match site with
          | `Quickstart ->
            (Sites.Paper_example.definition, Sites.Paper_example.data ())
          | `Homepage ->
            (Sites.Homepage.definition, Sites.Homepage.data ~entries:40 ())
          | `Cnn -> (Sites.Cnn.definition, Sites.Cnn.data ~articles:60 ())
          | `Org ->
            let _, w = Sites.Org.data ~people:60 ~orgs:4 () in
            (Sites.Org.definition, Mediator.Warehouse.graph w)
          | `Rodin -> (Sites.Rodin.definition, Sites.Rodin.data ())
        in
        let request path =
          {
            Serve.Http.meth = Serve.Http.GET;
            target = path;
            path;
            version = "HTTP/1.1";
            headers = [];
            body = "";
          }
        in
        let workload () =
          (* two parallel builds sharing a render cache: the second run
             verifies traces on worker domains instead of rendering *)
          let cache = Strudel.Render_cache.create () in
          ignore (Strudel.Site.build ~jobs ~render_cache:cache ~data def);
          ignore (Strudel.Site.build ~jobs ~render_cache:cache ~data def);
          (* an engine hammered from [jobs] domains: each request pins
             the published epoch and looks its page up *)
          let eng = Serve.Engine.create ~source:(Serve.Engine.Static data) def in
          Pool.run Pool.shared ~jobs (fun _ ->
              for _ = 1 to 25 do
                List.iter
                  (fun path -> ignore (Serve.Engine.handle eng (request path)))
                  [ "/"; "/healthz"; "/readyz" ]
              done);
          (* org: the warehouse's parallel source loads and view swap *)
          match site with
          | `Org ->
            let srcs, _ = Sites.Org.data ~people:40 ~orgs:3 () in
            let w =
              Mediator.Warehouse.create ~jobs
                ~sources:
                  [ srcs.Sites.Org.rdb; srcs.Sites.Org.projects;
                    srcs.Sites.Org.bib; srcs.Sites.Org.html ]
                ~mappings:Sites.Org.mediation_mappings ()
            in
            ignore (Mediator.Warehouse.refresh ~jobs w)
          | _ -> ()
        in
        let schedules = max 1 schedules in
        let race_diags = ref [] in
        let ops = ref 0 and locs = ref 0 and yields = ref 0 in
        for k = 0 to schedules - 1 do
          Dsan.reset ();
          Dsan.enable ~seed:(seed + k) ();
          workload ();
          Dsan.disable ();
          race_diags :=
            List.map Analysis.Dsan_report.diagnostic_of_race (Dsan.races ())
            @ !race_diags;
          let st = Dsan.stats () in
          ops := !ops + st.Dsan.st_ops;
          locs := max !locs st.Dsan.st_locations;
          yields := !yields + st.Dsan.st_yields
        done;
        let races =
          List.sort_uniq Analysis.Diagnostic.compare !race_diags
        in
        let stats =
          {
            Dsan.st_ops = !ops;
            st_locations = !locs;
            st_yields = !yields;
            st_races = List.length races;
          }
        in
        let diags =
          races @ [ Analysis.Dsan_report.summary ~schedules ~stats () ]
        in
        let rendered =
          match format with
          | `Text -> Analysis.Diagnostic.to_text diags
          | `Json -> Analysis.Diagnostic.to_json diags
          | `Sarif -> Analysis.Diagnostic.to_sarif diags
        in
        emit output rendered;
        exit (Analysis.Lint.exit_code fail_on diags))
  in
  Cmd.v
    (Cmd.info "dsan"
       ~doc:
         "Run the domain-parallel runtime (parallel builds, cached \
          rebuilds, concurrent serving, warehouse refresh) under the \
          happens-before race sanitizer and report any data races as \
          SA060/SA061 diagnostics, plus an SA062 run summary.")
    Term.(const run $ site_arg $ jobs_arg $ schedules_arg $ seed_arg
          $ format_arg $ fail_on_arg $ output_arg)

(* --- browse: click-time materialization simulator --- *)

let browse_cmd =
  let which_arg =
    Arg.(value & pos 0 (enum [ ("quickstart", `Quickstart);
                               ("homepage", `Homepage); ("cnn", `Cnn);
                               ("org", `Org) ]) `Homepage
         & info [] ~docv:"SITE")
  in
  let clicks_arg =
    Arg.(value & opt int 20
         & info [ "clicks" ] ~docv:"N" ~doc:"Number of simulated clicks.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED")
  in
  let no_cache_arg =
    Arg.(value & flag & info [ "no-cache" ] ~doc:"Disable the page cache.")
  in
  let run which clicks seed no_cache =
    or_die (fun () ->
        let data, def =
          match which with
          | `Quickstart ->
            (Sites.Paper_example.data (), Sites.Paper_example.definition)
          | `Homepage -> (Sites.Homepage.data (), Sites.Homepage.definition)
          | `Cnn -> (Sites.Cnn.data ~articles:100 (), Sites.Cnn.definition)
          | `Org ->
            let _, w = Sites.Org.data ~people:100 ~orgs:6 () in
            (Mediator.Warehouse.graph w, Sites.Org.definition)
        in
        let ct =
          Strudel.Materialize.Click_time.start ~cache:(not no_cache) ~data def
        in
        let visited =
          Strudel.Materialize.Click_time.random_walk ct ~clicks ~seed
        in
        let st = Strudel.Materialize.Click_time.stats ct in
        Fmt.pr
          "visited %d pages in %d clicks@.expansions: %d, link-clause \
           evaluations: %d, cache hits: %d@.materialized: %d nodes, %d \
           edges@.peak live bindings: %d@."
          visited clicks st.Strudel.Materialize.Click_time.expansions
          st.Strudel.Materialize.Click_time.queries
          st.Strudel.Materialize.Click_time.cache_hits
          st.Strudel.Materialize.Click_time.materialized_nodes
          st.Strudel.Materialize.Click_time.materialized_edges
          st.Strudel.Materialize.Click_time.peak_live)
  in
  Cmd.v
    (Cmd.info "browse"
       ~doc:"Simulate click-time browsing of an example site.")
    Term.(const run $ which_arg $ clicks_arg $ seed_arg $ no_cache_arg)

(* --- serve: the strudeld HTTP daemon --- *)

let serve_cmd =
  let which_arg =
    Arg.(value & pos 0 (enum [ ("quickstart", `Quickstart);
                               ("homepage", `Homepage); ("cnn", `Cnn);
                               ("org", `Org) ]) `Homepage
         & info [] ~docv:"SITE"
             ~doc:
               "Bundled site to serve (quickstart, homepage, cnn or org — \
                org runs over the warehousing mediator, so refreshes pick \
                up new epochs).  Ignored when --data/--query are given.")
  in
  let data_opt_arg =
    Arg.(value & opt (some file) None
         & info [ "d"; "data" ] ~docv:"DDL" ~doc:"Data graph in DDL syntax.")
  in
  let query_opt_arg =
    Arg.(value & opt (some file) None
         & info [ "q"; "query" ] ~docv:"QUERY" ~doc:"Site-definition query.")
  in
  let root_arg =
    Arg.(value & opt string "RootPage"
         & info [ "root" ] ~docv:"FAMILY"
             ~doc:"Skolem family of the root page(s).")
  in
  let template_arg =
    Arg.(value & opt_all (pair ~sep:'=' string file) []
         & info [ "t"; "template" ] ~docv:"COLLECTION=FILE"
             ~doc:"Template for a collection (repeatable).")
  in
  let host_arg =
    Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind.")
  in
  let port_arg =
    Arg.(value & opt int 8080
         & info [ "p"; "port" ] ~docv:"PORT"
             ~doc:"Port to bind (0 picks an ephemeral port).")
  in
  let workers_arg =
    Arg.(value & opt int 4
         & info [ "workers" ] ~docv:"N" ~doc:"Request worker domains.")
  in
  let max_inflight_arg =
    Arg.(value & opt int 64
         & info [ "max-inflight" ] ~docv:"N"
             ~doc:
               "Admitted-connection bound: beyond it new connections are \
                shed with 503 + Retry-After (0 = unbounded).")
  in
  let deadline_arg =
    Arg.(value & opt float 5000.
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Per-request deadline; an overrun answer becomes 503 \
                   (0 disables).")
  in
  let read_timeout_arg =
    Arg.(value & opt float 10_000.
         & info [ "read-timeout-ms" ] ~docv:"MS"
             ~doc:"Slow-client read timeout (408).")
  in
  let write_timeout_arg =
    Arg.(value & opt float 10_000.
         & info [ "write-timeout-ms" ] ~docv:"MS"
             ~doc:"Slow-client write timeout.")
  in
  let drain_deadline_arg =
    Arg.(value & opt float 10_000.
         & info [ "drain-deadline-ms" ] ~docv:"MS"
             ~doc:
               "How long a SIGTERM/SIGINT drain waits for in-flight \
                work before force-closing it (exit 4); negative waits \
                forever.")
  in
  let refresh_every_arg =
    Arg.(value & opt float 0.
         & info [ "refresh-every" ] ~docv:"SECONDS"
             ~doc:
               "Poll the warehouse for source changes this often and \
                swap in the new epoch without restarting (0 = only on \
                SIGHUP).")
  in
  let run which data query root templates host port workers max_inflight
      deadline_ms read_timeout_ms write_timeout_ms drain_deadline_ms
      refresh_every =
    or_die (fun () ->
        let source, def =
          match (data, query) with
          | Some d, Some q ->
            let g, _ = Ddl.parse ~graph_name:"input" (read_file d) in
            let templates =
              {
                Template.Generator.empty_templates with
                Template.Generator.by_collection =
                  List.map (fun (c, f) -> (c, read_file f)) templates;
              }
            in
            ( Serve.Engine.Static g,
              Strudel.Site.define ~name:"site" ~root_family:root ~templates
                [ ("site", read_file q) ] )
          | None, None -> begin
            match which with
            | `Quickstart ->
              ( Serve.Engine.Static (Sites.Paper_example.data ()),
                Sites.Paper_example.definition )
            | `Homepage ->
              ( Serve.Engine.Static (Sites.Homepage.data ()),
                Sites.Homepage.definition )
            | `Cnn ->
              ( Serve.Engine.Static (Sites.Cnn.data ~articles:200 ()),
                Sites.Cnn.definition )
            | `Org ->
              let _, w = Sites.Org.data ~people:100 ~orgs:6 () in
              (Serve.Engine.Federated w, Sites.Org.definition)
          end
          | _ ->
            Fmt.epr "serve: a custom site needs both --data and --query@.";
            exit 2
        in
        let engine = Serve.Engine.create ~source def in
        let config =
          Serve.Daemon.
            {
              default_config with
              workers;
              max_inflight;
              deadline_ms;
              read_timeout_ms;
              write_timeout_ms;
              drain_deadline_ms;
            }
        in
        let daemon =
          Serve.Daemon.create ~config
            ~on_drain:(fun () -> Serve.Engine.set_draining engine true)
            ~degraded:(fun () -> Serve.Engine.degraded engine)
            ~handler:(fun ~worker:_ req -> Serve.Engine.handle engine req)
            ()
        in
        Serve.Daemon.install_signal_handlers daemon;
        let refresh_now = Atomic.make false in
        (try
           Sys.set_signal Sys.sighup
             (Sys.Signal_handle (fun _ -> Atomic.set refresh_now true))
         with Invalid_argument _ | Sys_error _ -> ());
        let listener, bound =
          Serve.Daemon.tcp_listener ~read_timeout_ms ~write_timeout_ms ~host
            ~port ()
        in
        Fmt.pr "strudeld: %s on http://%s:%d — %d pages, epoch %d@."
          def.Strudel.Site.name host bound
          (Serve.Engine.page_count engine)
          (Serve.Engine.epoch engine);
        (* the refresher: live epoch pickup on a poll interval or SIGHUP,
           off the serving path *)
        let refresher =
          Domain.spawn (fun () ->
              let tick = 0.25 in
              let rec loop elapsed =
                if not (Serve.Daemon.stopping daemon) then begin
                  Unix.sleepf tick;
                  let elapsed = elapsed +. tick in
                  let due = refresh_every > 0. && elapsed >= refresh_every in
                  if Atomic.exchange refresh_now false || due then begin
                    (if Serve.Engine.refresh engine then
                       Fmt.pr "strudeld: epoch %d installed (%d pages)@."
                         (Serve.Engine.epoch engine)
                         (Serve.Engine.page_count engine));
                    loop 0.
                  end
                  else loop elapsed
                end
              in
              loop 0.)
        in
        Serve.Daemon.serve daemon listener;
        Domain.join refresher;
        let st = Serve.Daemon.stats daemon in
        Fmt.pr
          "strudeld: drained — served %d, shed %d, refused %d, client \
           aborts %d, timeouts %d, deadline 503s %d, aborted in-flight %d@."
          st.Serve.Daemon.d_served st.Serve.Daemon.d_shed
          st.Serve.Daemon.d_refused st.Serve.Daemon.d_client_aborts
          st.Serve.Daemon.d_timeouts st.Serve.Daemon.d_deadlines
          st.Serve.Daemon.d_aborted_inflight;
        exit (Serve.Daemon.exit_code daemon))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run strudeld: serve a site's published pages over HTTP."
       ~man:
         [ `S Manpage.s_description;
           `P
             "Serves exactly what a cold build publishes, at its URLs \
              and with its bytes: pages render when an epoch is \
              installed, never on request.  A static site is built \
              once; a federated site (org) runs a watch session, and a \
              refresh installs the pages its cycle re-rendered as a new \
              epoch with one atomic swap.";
           `P
             "Exit codes: 0 clean drain, 3 drained degraded (placeholder \
              pages served, quarantined sources or recorded faults), 4 \
              drain deadline exceeded (in-flight connections aborted), \
              1 fatal error." ])
    Term.(const run $ which_arg $ data_opt_arg $ query_opt_arg $ root_arg
          $ template_arg $ host_arg $ port_arg $ workers_arg
          $ max_inflight_arg $ deadline_arg $ read_timeout_arg
          $ write_timeout_arg $ drain_deadline_arg $ refresh_every_arg)

(* --- watch: differential site maintenance, ingest to publish --- *)

let watch_cmd =
  let which_arg =
    Arg.(value & pos 0 (enum [ ("org", `Org); ("custom", `Custom) ]) `Custom
         & info [] ~docv:"SITE"
             ~doc:
               "What to watch: $(b,org) (the bundled mediated org \
                site, polling its warehouse) or $(b,custom) (default; \
                needs $(b,--data), $(b,--query), $(b,--root) and \
                templates — re-reads the data file when its mtime \
                changes).")
  in
  let data_opt_arg =
    Arg.(value & opt (some file) None
         & info [ "data" ] ~docv:"FILE" ~doc:"Data graph (DDL) to watch.")
  in
  let query_opt_arg =
    Arg.(value & opt (some file) None
         & info [ "query" ] ~docv:"FILE" ~doc:"StruQL site-definition query.")
  in
  let root_arg =
    Arg.(value & opt string "Root"
         & info [ "root" ] ~docv:"FAMILY" ~doc:"Root Skolem family.")
  in
  let template_arg =
    Arg.(value & opt_all (pair ~sep:'=' string file) []
         & info [ "t"; "template" ] ~docv:"COLLECTION=FILE"
             ~doc:"Template for a collection (repeatable).")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"DIR"
             ~doc:
               "Publish pages below $(docv) (streamed in canonical \
                order on the initial build and on every changed \
                cycle), with the fault manifest $(b,strudel build) \
                writes, $(docv)/faults.json.  Without it, cycles \
                maintain the in-memory site only.")
  in
  let jobs_arg =
    Arg.(value & opt int 1
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:
               "Parallelism of re-renders and (mediated) source \
                loads, on $(docv) OCaml domains; 0 auto-detects.  \
                Published bytes are identical across values.")
  in
  let interval_arg =
    Arg.(value & opt float 1.0
         & info [ "interval" ] ~docv:"SECONDS"
             ~doc:"How often to poll for changes.")
  in
  let max_cycles_arg =
    Arg.(value & opt int 0
         & info [ "max-cycles" ] ~docv:"N"
             ~doc:
               "Stop after $(docv) poll cycles (0 = run until \
                interrupted).")
  in
  let full_arg =
    Arg.(value & flag
         & info [ "full" ]
             ~doc:
               "Kill switch: disable differential evaluation and \
                re-derive every block each cycle (bytes are identical \
                either way; this trades speed for simplicity when \
                debugging).")
  in
  let stats_arg =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:
               "On exit, print the engine's cumulative delta counters \
                and each block's classification (driven / static / \
                fallback with reason).")
  in
  let run which data query root templates out jobs interval max_cycles full
      stats =
    or_die (fun () ->
        if full then Struql.Exec.delta_enabled := false;
        let jobs =
          if jobs <= 0 then Pool.auto_jobs () else jobs
        in
        let fault = Fault.ctx () in
        let sink =
          Option.map (fun dir -> Strudel.Render_pool.file_sink ~dir) out
        in
        let session, ingest =
          match which with
          | `Org ->
            let _, w = Sites.Org.data () in
            ( Serve.Watch.create ~jobs ~on_error:Fault.Degrade ~fault ?sink
                ~source:(Serve.Watch.Mediated w) Sites.Org.definition,
              fun s -> Some (Serve.Watch.cycle s) )
          | `Custom ->
            let data_file, query_file =
              match (data, query) with
              | Some d, Some q -> (d, q)
              | _ ->
                Fmt.epr "watch: a custom site needs both --data and --query@.";
                exit 2
            in
            let templates =
              {
                Template.Generator.empty_templates with
                Template.Generator.by_collection =
                  List.map (fun (c, f) -> (c, read_file f)) templates;
              }
            in
            let def =
              Strudel.Site.define ~name:"site" ~root_family:root ~templates
                [ ("site", read_file query_file) ]
            in
            let g, _ = Ddl.parse ~graph_name:"input" (read_file data_file) in
            let session =
              Serve.Watch.create ~jobs ~on_error:Fault.Degrade ~fault ?sink
                ~source:(Serve.Watch.Direct g) def
            in
            let mtime () = (Unix.stat data_file).Unix.st_mtime in
            let last = ref (mtime ()) in
            ( session,
              fun s ->
                let m = mtime () in
                if m = !last then None
                else begin
                  last := m;
                  let old = Struql.Dexec.data_graph (Serve.Watch.engine s) in
                  let fresh, _ =
                    Ddl.parse ~graph_name:"input" (read_file data_file)
                  in
                  let rebased = Delta.rebase ~old fresh in
                  let delta = Delta.diff ~old rebased in
                  Some (Serve.Watch.push ~data:rebased s delta)
                end )
        in
        (* the fault manifest a build of the published pages writes,
           swapped in whole after the prime and every changed cycle *)
        let publish_faults () =
          Option.iter
            (fun dir ->
              Repository.Segment.write_file
                ~path:(Filename.concat dir "faults.json")
                (Fault.Manifest.to_json
                   (Strudel.Site.manifest (Serve.Watch.built session))))
            out
        in
        publish_faults ();
        let b = Serve.Watch.built session in
        Fmt.pr "watch: %s primed — %d pages%s@."
          b.Strudel.Site.def.Strudel.Site.name
          b.Strudel.Site.render_profile.Strudel.Render_pool.rp_pages
          (match out with Some d -> " published to " ^ d | None -> "");
        let degraded = ref false in
        let note_degraded (r : Serve.Watch.cycle_report) =
          if r.Serve.Watch.cy_quarantined <> [] then degraded := true
        in
        let cycles = ref 0 in
        let continue_ = ref true in
        while !continue_ do
          (match ingest session with
           | Some r ->
             note_degraded r;
             if r.Serve.Watch.cy_changed then publish_faults ();
             if r.Serve.Watch.cy_changed || r.Serve.Watch.cy_quarantined <> []
             then Fmt.pr "%a@." Serve.Watch.pp_report r
           | None -> ());
          incr cycles;
          if max_cycles > 0 && !cycles >= max_cycles then continue_ := false;
          if !continue_ then Unix.sleepf interval
        done;
        if stats then begin
          Fmt.pr "%a@."
            Struql.Dexec.pp_counters
            (Struql.Dexec.counters (Serve.Watch.engine session));
          List.iter
            (fun (path, c) -> Fmt.pr "  %-28s %s@." path c)
            (Struql.Dexec.classes (Serve.Watch.engine session))
        end;
        if Fault.fault_count fault > 0 then degraded := true;
        exit (if !degraded then 3 else 0))
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:"Watch sources and maintain the published site differentially."
       ~man:
         [ `S Manpage.s_description;
           `P
             "The Delta-StruQL loop: when sources change, the data \
              delta is computed (a mediated warehouse refresh rebases \
              fresh oids onto the previous view; a watched file is \
              re-read and diffed), the site graph is maintained \
              differentially — only drivers whose neighbourhood the \
              delta touches re-derive; aggregate/negation blocks \
              replay in full with the reason recorded — and only \
              pages whose read traces saw the change re-render.  \
              Published bytes are always identical to a cold \
              $(b,strudel build) over the same data.";
           `P
             "Exit codes: 0 every cycle published cleanly, 3 degraded \
              (a source was quarantined or a fault was recorded; the \
              site keeps serving stale data for that source), 2 usage \
              error, 1 fatal error." ])
    Term.(const run $ which_arg $ data_opt_arg $ query_opt_arg $ root_arg
          $ template_arg $ out_arg $ jobs_arg $ interval_arg
          $ max_cycles_arg $ full_arg $ stats_arg)

(* --- repo: inspect a repository directory --- *)

let repo_cmd =
  let dir_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
           ~doc:"Repository directory holding MANIFEST and the graphs' files.")
  in
  let check_arg =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:
               "Additionally decode every file the manifest names in full \
                (a segment's checksum, strings, nodes, edges and \
                collections; a DDL file's text) and report where each \
                bad one fails; exit 1 on any.")
  in
  let status_run dir check =
    or_die (fun () ->
        let m = Repository.Store.load_manifest ~dir in
        Fmt.pr "%a@." Repository.Store.pp_manifest m;
        if check then begin
          let bad = ref 0 in
          List.iter
            (fun (e : Repository.Store.entry) ->
              let file = e.Repository.Store.e_file in
              match Repository.Store.load_entry ~dir e with
              | _ -> Fmt.pr "%s: ok@." file
              | exception Repository.Segment.Corrupt (msg, off) ->
                incr bad;
                Fmt.pr "%s: CORRUPT at byte %d: %s@." file off msg
              | exception Ddl.Ddl_error (msg, line) ->
                incr bad;
                Fmt.pr "%s: DDL error, line %d: %s@." file line msg
              | exception Sys_error msg ->
                incr bad;
                Fmt.pr "%s: unreadable: %s@." file msg)
            m.Repository.Store.m_entries;
          if !bad > 0 then begin
            Fmt.epr "%d bad file(s)@." !bad;
            exit 1
          end
        end)
  in
  let status =
    Cmd.v
      (Cmd.info "status"
         ~doc:
           "Show a repository's manifest: epoch, per-source versions \
            and each graph's file and statistics.")
      Term.(const status_run $ dir_arg $ check_arg)
  in
  Cmd.group
    (Cmd.info "repo" ~doc:"Inspect a repository directory.")
    [ status ]

(* --- demo --- *)

let demo_cmd =
  let which_arg =
    Arg.(value & pos 0 (enum [ ("quickstart", `Quickstart);
                               ("homepage", `Homepage); ("cnn", `Cnn);
                               ("org", `Org) ]) `Quickstart
         & info [] ~docv:"SITE")
  in
  let dir_arg =
    Arg.(value & opt string "_site/demo"
         & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let run which dir =
    or_die (fun () ->
        let built =
          match which with
          | `Quickstart -> Sites.Paper_example.build ()
          | `Homepage -> Sites.Homepage.build ()
          | `Cnn -> Sites.Cnn.build ~articles:100 ()
          | `Org -> Sites.Org.build ~people:50 ~orgs:5 ()
        in
        let rec mkdirs d =
          if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
            mkdirs (Filename.dirname d);
            Sys.mkdir d 0o755
          end
        in
        mkdirs dir;
        Template.Generator.write_site ~dir built.Strudel.Site.site;
        Fmt.pr "%d pages written to %s@."
          (Template.Generator.page_count built.Strudel.Site.site)
          dir)
  in
  Cmd.v (Cmd.info "demo" ~doc:"Build a bundled example site.")
    Term.(const run $ which_arg $ dir_arg)

let () =
  let doc = "STRUDEL: a declarative Web-site management system" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "strudel" ~doc)
          [ load_cmd; query_cmd; explain_cmd; explain_analyze_cmd; check_cmd;
            schema_cmd; decompose_cmd; build_cmd; faults_cmd; verify_cmd;
            lint_cmd; dsan_cmd; browse_cmd; serve_cmd; watch_cmd; repo_cmd;
            demo_cmd ]))
