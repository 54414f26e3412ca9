(* The fault-tolerance layer: retry/backoff on virtual time, source
   policies (fail-fast / skip / stale snapshot), wrapper quarantine,
   binary corruption offsets, and the seeded fault-injection harness
   driving the two end-to-end properties — degraded builds stay
   link-consistent (jobs ∈ {1,4}), and a build after the faults clear
   is byte-identical to one that never faulted. *)

open Sgraph

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let job_levels = [ 1; 4 ]

(* --- retry / backoff --- *)

let backoff =
  {
    Fault.Policy.attempts = 5;
    base_delay_ms = 100.;
    multiplier = 2.;
    max_delay_ms = 500.;
    deadline_ms = infinity;
  }

let schedule_exponential_capped () =
  Alcotest.(check (list (float 0.001)))
    "schedule" [ 100.; 200.; 400.; 500. ]
    (Fault.Retry.schedule backoff);
  Alcotest.(check (list (float 0.001)))
    "no_retry has no waits" []
    (Fault.Retry.schedule Fault.Policy.no_retry)

let retry_succeeds_after_failures () =
  let clock, sleeps = Fault.Clock.virtual_ () in
  let calls = ref 0 in
  let r =
    Fault.Retry.run ~clock ~retry:backoff (fun ~attempt ->
        incr calls;
        if attempt < 2 then failwith "flaky" else "ok")
  in
  check_bool "succeeded" true (r = Ok "ok");
  check_int "three calls" 3 !calls;
  Alcotest.(check (list (float 0.001)))
    "slept the schedule prefix" [ 100.; 200. ] (sleeps ())

let retry_exhausts_attempts () =
  let clock, sleeps = Fault.Clock.virtual_ () in
  let retry = { backoff with Fault.Policy.attempts = 3 } in
  let r =
    Fault.Retry.run ~clock ~retry (fun ~attempt:_ -> failwith "down")
  in
  (match r with
   | Error (Failure msg, attempts) ->
     check_string "last exception" "down" msg;
     check_int "attempts" 3 attempts
   | _ -> Alcotest.fail "expected Error after 3 attempts");
  check_int "two waits" 2 (List.length (sleeps ()))

let retry_deadline_truncates () =
  let clock, sleeps = Fault.Clock.virtual_ () in
  let retry = { backoff with Fault.Policy.deadline_ms = 250. } in
  let r =
    Fault.Retry.run ~clock ~retry (fun ~attempt:_ -> failwith "down")
  in
  (* delays would be 100,200,400,500 — but 100 elapsed + 200 > 250,
     so only the first wait happens *)
  (match r with
   | Error (_, attempts) -> check_int "gave up after 2 attempts" 2 attempts
   | Ok _ -> Alcotest.fail "expected exhaustion");
  Alcotest.(check (list (float 0.001))) "one wait" [ 100. ] (sleeps ())

(* --- source policies --- *)

let quick_retry attempts =
  { Fault.Policy.no_retry with Fault.Policy.attempts; base_delay_ms = 10. }

let failing_source ~policy name =
  Mediator.Source.make ~policy ~name (fun () -> failwith (name ^ " down"))

let good_graph () =
  let g = Graph.create ~name:"A" () in
  let x = Graph.new_node g "x1" in
  Graph.add_to_collection g "As" x;
  Graph.add_edge g x "name" (Graph.V (Value.String "one"));
  g

let fail_fast_reraises () =
  let clock, _ = Fault.Clock.virtual_ () in
  let s = failing_source ~policy:Fault.Policy.fail_fast "ff" in
  check_bool "raises" true
    (try
       ignore (Mediator.Source.load_with ~clock s);
       false
     with Failure _ -> true)

let skip_source_records_and_skips () =
  let clock, sleeps = Fault.Clock.virtual_ () in
  let fault = Fault.ctx () in
  let s =
    failing_source
      ~policy:(Fault.Policy.skip_source ~retry:(quick_retry 3) ())
      "flaky"
  in
  check_bool "skipped" true
    (Mediator.Source.load_with ~clock ~fault s = None);
  check_int "one report" 1 (Fault.fault_count fault);
  check_int "two backoff waits" 2 (List.length (sleeps ()));
  let r = List.hd (Fault.reports fault) in
  check_bool "ingest stage" true (r.Fault.f_stage = Fault.Ingest);
  check_string "source" "flaky" r.Fault.f_source;
  check_bool "cause mentions attempts" true
    (Test_cli.contains r.Fault.f_cause "3 attempt")

let retry_recovers_without_fault () =
  let clock, _ = Fault.Clock.virtual_ () in
  let fault = Fault.ctx () in
  let calls = ref 0 in
  let s =
    Mediator.Source.make
      ~policy:(Fault.Policy.skip_source ~retry:(quick_retry 3) ())
      ~name:"eventually"
      (fun () ->
        incr calls;
        if !calls < 3 then failwith "not yet" else good_graph ())
  in
  check_bool "loaded" true
    (Mediator.Source.load_with ~clock ~fault s <> None);
  check_int "three attempts" 3 !calls;
  check_int "no faults on eventual success" 0 (Fault.fault_count fault)

(* Nodes a, b, c whose [t] edges went in as a, c, b: a node-major
   replay would list the label's extent as a, b, c. *)
let acb_graph name =
  let g = Graph.create ~name () in
  let a = Graph.new_node g "a" in
  let b = Graph.new_node g "b" in
  let c = Graph.new_node g "c" in
  List.iter
    (fun (o, v) -> Graph.add_edge g o "t" (Graph.V (Value.Int v)))
    [ (a, 1); (c, 3); (b, 2) ];
  g

(* A site whose root page lists one page per [t] edge, in the label
   extent's order. *)
let t_scan_site =
  Strudel.Site.define ~name:"tscan" ~root_family:"Root"
    [
      ( "scan",
        {|{ CREATE Root() }
{ WHERE x -> "t" -> v
  CREATE P(x)
  LINK Root() -> "p" -> P(x), P(x) -> "v" -> v
  COLLECT Ps(P(x)) }
OUTPUT Site|} );
    ]

let t_scan_pages data =
  List.map
    (fun p -> (p.Template.Generator.url, p.Template.Generator.html))
    (Strudel.Site.build ~data t_scan_site).Strudel.Site.site
      .Template.Generator.pages

let stale_serves_snapshot () =
  let clock, _ = Fault.Clock.virtual_ () in
  let fault = Fault.ctx () in
  let snapshots = Repository.Store.create () in
  let s =
    Mediator.Source.make
      ~policy:(Fault.Policy.stale ~retry:(quick_retry 1) 1)
      ~name:"st" good_graph
  in
  (match Mediator.Source.load_with ~clock ~snapshots ~fault s with
   | Some g -> check_int "fresh load" 1 (Graph.collection_size g "As")
   | None -> Alcotest.fail "initial load failed");
  check_bool "snapshot persisted" true
    (Repository.Store.mem snapshots "source:st");
  Mediator.Source.update s (fun () -> failwith "export broke");
  (match Mediator.Source.load_with ~clock ~snapshots ~fault s with
   | Some g -> check_int "stale graph served" 1 (Graph.collection_size g "As")
   | None -> Alcotest.fail "stale snapshot not served");
  check_int "staleness recorded" 1 (Fault.fault_count fault);
  check_bool "cause mentions stale" true
    (Test_cli.contains
       (List.hd (Fault.reports fault)).Fault.f_cause
       "stale snapshot (1 version(s) behind)");
  (* the stored snapshot lists every index as the live graph does, so a
     site scanning a label builds the same pages from either *)
  let s = Mediator.Source.make ~name:"acb" (fun () -> acb_graph "T") in
  let live =
    match Mediator.Source.load_with ~clock ~snapshots s with
    | Some g -> g
    | None -> Alcotest.fail "acb load failed"
  in
  let snapshot = Repository.Store.get snapshots "source:acb" in
  check_bool "snapshot in every index order" true
    (Shape.of_graph snapshot = Shape.of_graph live);
  check_bool "same pages from the snapshot" true
    (t_scan_pages snapshot = t_scan_pages live)

let stale_age_exceeded_skips () =
  let clock, _ = Fault.Clock.virtual_ () in
  let fault = Fault.ctx () in
  let s =
    Mediator.Source.make
      ~policy:(Fault.Policy.stale ~retry:(quick_retry 1) 0)
      ~name:"st0" good_graph
  in
  ignore (Mediator.Source.load_with ~clock ~fault s);
  Mediator.Source.update s (fun () -> failwith "export broke");
  check_bool "no snapshot young enough" true
    (Mediator.Source.load_with ~clock ~fault s = None);
  check_bool "cause mentions skip" true
    (Test_cli.contains
       (List.hd (List.rev (Fault.reports fault))).Fault.f_cause
       "no usable snapshot")

let warehouse_skips_failed_source () =
  let clock, _ = Fault.Clock.virtual_ () in
  let fault = Fault.ctx () in
  let good = Mediator.Source.of_graph ~name:"a" (good_graph ()) in
  let bad =
    failing_source
      ~policy:(Fault.Policy.skip_source ~retry:(quick_retry 2) ())
      "b"
  in
  let w =
    Mediator.Warehouse.create ~clock ~fault ~sources:[ good; bad ]
      ~mappings:
        [
          Mediator.Gav.copy_collection ~source:"a" ~collection:"As" ();
          Mediator.Gav.copy_collection ~source:"b" ~collection:"Bs" ();
        ]
      ()
  in
  let g = Mediator.Warehouse.graph w in
  check_int "good source integrated" 1 (Graph.collection_size g "As");
  check_int "failed source contributed nothing" 0
    (Graph.collection_size g "Bs");
  check_bool "fault surfaced" true (Mediator.Warehouse.faults w <> [])

(* --- wrapper quarantine --- *)

let csv_strict_positions () =
  (match Wrappers.Csv.table_of_string ~name:"t" "a,b\n1,x\"y\n" with
   | exception Wrappers.Csv.Csv_error (msg, line, col) ->
     check_string "message" "quote inside unquoted field" msg;
     check_int "line" 2 line;
     check_int "column" 4 col
   | _ -> Alcotest.fail "stray quote must abort the strict load");
  match Wrappers.Csv.table_of_string ~name:"t" "a,b\n1,\"oops" with
  | exception Wrappers.Csv.Csv_error (msg, line, _) ->
    check_string "message" "unterminated quoted field" msg;
    check_int "line" 2 line
  | _ -> Alcotest.fail "unterminated quote must abort the strict load"

let csv_quarantines_ragged_rows () =
  let fault = Fault.ctx () in
  let src = "id,name\np1,Alice\np2\np3,Carol,extra\np4,Dave\n" in
  let tbl = Wrappers.Csv.table_of_string ~fault ~name:"People" src in
  check_int "good rows kept" 2 (List.length tbl.Wrappers.Csv.rows);
  check_int "ragged rows quarantined" 2 (Fault.fault_count fault);
  List.iter
    (fun (r : Fault.report) ->
      check_string "source" "People" r.Fault.f_source;
      check_bool "located by line" true
        (Test_cli.contains r.Fault.f_location "line");
      check_bool "cause names raggedness" true
        (Test_cli.contains r.Fault.f_cause "ragged row"))
    (Fault.reports fault)

let csv_resyncs_after_bad_quote () =
  let fault = Fault.ctx () in
  let src = "id,name\np1,Alice\np2,Bo\"b\np3,Carol\n" in
  let tbl = Wrappers.Csv.table_of_string ~fault ~name:"People" src in
  check_int "rows after the bad one still load" 2
    (List.length tbl.Wrappers.Csv.rows);
  check_int "one quarantine" 1 (Fault.fault_count fault);
  check_bool "excerpt quotes the raw row" true
    (Test_cli.contains
       (List.hd (Fault.reports fault)).Fault.f_excerpt
       "p2,Bo")

let bibtex_quarantines_bad_entry () =
  let fault = Fault.ctx () in
  let src =
    "@article{good1,\n  title = {One},\n  author = {A. Author}\n}\n\n\
     @article{bad1\n  title missing comma}\n\n\
     @article{good2,\n  title = {Two},\n  author = {B. Author}\n}\n"
  in
  let entries = Wrappers.Bibtex.parse_entries ~fault src in
  check_int "good entries survive" 2 (List.length entries);
  Alcotest.(check (list string))
    "in order" [ "good1"; "good2" ]
    (List.map (fun e -> e.Wrappers.Bibtex.key) entries);
  check_int "one quarantine" 1 (Fault.fault_count fault);
  let r = List.hd (Fault.reports fault) in
  check_bool "located by entry" true
    (Test_cli.contains r.Fault.f_location "entry");
  check_bool "excerpt shows the bad entry" true
    (Test_cli.contains r.Fault.f_excerpt "@article{bad1")

let structured_quarantines_bad_line () =
  let fault = Fault.ctx () in
  let src =
    "id: p1\nname: Alice\n\nid: p2\nthis line has no separator\nname: Bob\n"
  in
  let g, os = Wrappers.Structured_file.load ~fault src in
  check_int "both blocks load" 2 (List.length os);
  check_int "one quarantine" 1 (Fault.fault_count fault);
  check_bool "p2 keeps its good fields" true
    (match Graph.find_node g "p2" with
     | Some o -> Graph.attr_value g o "name" = Some (Value.String "Bob")
     | None -> false);
  check_bool "excerpt is the bad line" true
    (Test_cli.contains
       (List.hd (Fault.reports fault)).Fault.f_excerpt
       "no separator")

let html_pages_quarantined_by_injection () =
  let inject =
    Fault.Inject.create ~seed:5 ~p_parse:1.0 ~targets:[ "HTML" ] ()
  in
  let fault = Fault.ctx ~inject () in
  let g, os =
    Wrappers.Html_wrapper.load_pages ~fault
      [ ("one", "<title>One</title>"); ("two", "<title>Two</title>") ]
  in
  check_int "every page quarantined" 0 (List.length os);
  check_int "every page reported" 2 (Fault.fault_count fault);
  check_int "graph holds no pages" 0 (Graph.collection_size g "Pages")

let synth_corruption_is_opt_in () =
  let a = Wrappers.Synth.org_csv ~people:30 ~orgs:4 () in
  let b = Wrappers.Synth.org_csv ~corrupt:0 ~people:30 ~orgs:4 () in
  check_bool "corrupt:0 is byte-identical" true (a = b);
  let c = Wrappers.Synth.org_csv ~corrupt:40 ~people:30 ~orgs:4 () in
  check_bool "corrupt:40 differs" true (fst c <> fst a)

let synth_corrupt_sources_load_under_quarantine () =
  let people_csv, _ = Wrappers.Synth.org_csv ~corrupt:40 ~people:30 ~orgs:4 () in
  let fault = Fault.ctx () in
  let tbl = Wrappers.Csv.table_of_string ~fault ~name:"People" people_csv in
  check_bool "some rows quarantined" true (Fault.fault_count fault > 0);
  check_bool "some rows survive" true (tbl.Wrappers.Csv.rows <> []);
  let width = List.length tbl.Wrappers.Csv.headers in
  check_bool "surviving rows are rectangular" true
    (List.for_all
       (fun r -> List.length r = width)
       tbl.Wrappers.Csv.rows);
  let fault2 = Fault.ctx () in
  let entries =
    Wrappers.Bibtex.parse_entries ~fault:fault2
      (Wrappers.Synth.bibtex ~corrupt:40 ~entries:20 ())
  in
  check_bool "bad entries quarantined" true (Fault.fault_count fault2 > 0);
  check_bool "good entries survive" true (entries <> []);
  let fault3 = Fault.ctx () in
  let _, os =
    Wrappers.Structured_file.load ~fault:fault3
      (Wrappers.Synth.projects_file ~corrupt:40 ~projects:12 ~people:30 ())
  in
  check_bool "separator-less lines quarantined" true
    (Fault.fault_count fault3 > 0);
  check_int "every block still loads" 12 (List.length os)

(* --- segment corruption offsets --- *)

let segment_corrupt_offsets () =
  let module S = Repository.Segment in
  let s = S.encode (good_graph ()) in
  (match S.of_string (String.sub s 0 (String.length s - 3)) with
   | exception S.Corrupt (_, off) ->
     check_bool "truncation detected past the magic" true (off > 0);
     check_bool "offset within the input" true (off <= String.length s - 3)
   | _ -> Alcotest.fail "truncated input must not decode");
  (match S.of_string "XXXXXXXXXXXXXXXX" with
   | exception S.Corrupt (msg, off) ->
     check_int "bad magic is at offset 0" 0 off;
     check_bool "names the magic" true (Test_cli.contains msg "magic")
   | _ -> Alcotest.fail "bad magic must not decode");
  match S.of_string (s ^ "junk") with
  | exception S.Corrupt (msg, off) ->
    check_int "trailing bytes located at the end" (String.length s) off;
    check_bool "names trailing bytes" true (Test_cli.contains msg "trailing")
  | _ -> Alcotest.fail "trailing bytes must not decode"

(* --- degraded builds: link consistency under injection --- *)

(* every internal href of every emitted page (placeholder or not) *)
let internal_hrefs (site : Template.Generator.site) =
  let refs = ref [] in
  List.iter
    (fun (p : Template.Generator.page) ->
      let html = p.Template.Generator.html in
      let marker = "href=\"" in
      let rec scan from =
        match
          if from >= String.length html then None
          else
            let rec find i =
              if i + String.length marker > String.length html then None
              else if String.sub html i (String.length marker) = marker then
                Some i
              else find (i + 1)
            in
            find from
        with
        | None -> ()
        | Some i ->
          let start = i + String.length marker in
          (match String.index_from_opt html start '"' with
           | None -> ()
           | Some j ->
             let url = String.sub html start (j - start) in
             if
               (not (Test_cli.contains url "://"))
               && String.length url > 5
               && Filename.check_suffix url ".html"
             then refs := url :: !refs;
             scan (j + 1))
      in
      scan 0)
    site.Template.Generator.pages;
  !refs

let placeholder_count (site : Template.Generator.site) =
  List.length
    (List.filter Template.Generator.is_placeholder
       site.Template.Generator.pages)

let degraded_builds_stay_link_consistent =
  List.map
    (fun (name, def, data) ->
      t
        (Printf.sprintf
           "%s: degraded build is link-consistent and jobs-independent" name)
        (fun () ->
          let built =
            List.map
              (fun jobs ->
                let inject = Fault.Inject.create ~seed:42 ~p_render:0.4 () in
                let fault = Fault.ctx ~inject () in
                let b =
                  Strudel.Site.build ~jobs ~on_error:Fault.Degrade ~fault
                    ~data def
                in
                let site = b.Strudel.Site.site in
                let urls =
                  List.map
                    (fun (p : Template.Generator.page) ->
                      p.Template.Generator.url)
                    site.Template.Generator.pages
                in
                (* no page vanished: every internal link still resolves
                   to an emitted page, placeholders included *)
                List.iter
                  (fun href ->
                    check_bool
                      (Printf.sprintf "%s jobs=%d link %s resolves" name jobs
                         href)
                      true (List.mem href urls))
                  (internal_hrefs site);
                (* one placeholder per recorded render fault *)
                let render_faults =
                  List.filter
                    (fun (r : Fault.report) -> r.Fault.f_stage = Fault.Render)
                    b.Strudel.Site.faults
                in
                check_int
                  (Printf.sprintf "%s jobs=%d placeholders = faults" name
                     jobs)
                  (List.length render_faults)
                  (placeholder_count site);
                let m = Strudel.Site.manifest b in
                check_bool
                  (Printf.sprintf "%s jobs=%d manifest tracks degradation"
                     name jobs)
                  (b.Strudel.Site.faults <> [])
                  (Fault.Manifest.exit_code m = 3);
                b)
              job_levels
          in
          match built with
          | [ b1; b4 ] ->
            check_bool
              (Printf.sprintf "%s degraded pages identical across jobs" name)
              true
              (Test_parallel.page_triples b1.Strudel.Site.site
              = Test_parallel.page_triples b4.Strudel.Site.site);
            check_string
              (Printf.sprintf "%s faults.json identical across jobs" name)
              (Fault.Manifest.to_json (Strudel.Site.manifest b1))
              (Fault.Manifest.to_json (Strudel.Site.manifest b4))
          | _ -> assert false))
    (Test_parallel.sites_under_test ())

let injection_actually_fires () =
  (* the harness is vacuous if seed 42 never fails a page anywhere *)
  let total =
    List.fold_left
      (fun acc (_, def, data) ->
        let inject = Fault.Inject.create ~seed:42 ~p_render:0.4 () in
        let fault = Fault.ctx ~inject () in
        let b =
          Strudel.Site.build ~on_error:Fault.Degrade ~fault ~data def
        in
        acc + placeholder_count b.Strudel.Site.site)
      0
      (Test_parallel.sites_under_test ())
  in
  check_bool "some pages degraded across the example sites" true (total > 0)

(* --- recovery: faults clear, output converges --- *)

let recovery_restores_clean_bytes =
  List.map
    (fun (name, def, data) ->
      t (Printf.sprintf "%s: build after faults clear is byte-identical" name)
        (fun () ->
          let clean = Strudel.Site.build ~data def in
          let reference =
            Test_parallel.page_triples clean.Strudel.Site.site
          in
          List.iter
            (fun jobs ->
              let inject =
                Fault.Inject.create ~seed:7 ~p_render:0.5 ()
              in
              let fault = Fault.ctx ~inject () in
              let degraded =
                Strudel.Site.build ~jobs ~on_error:Fault.Degrade ~fault ~data
                  def
              in
              ignore degraded;
              (* the faults "clear": same pipeline, injector disarmed *)
              Fault.Inject.disarm inject;
              let fault2 = Fault.ctx ~inject () in
              let recovered =
                Strudel.Site.build ~jobs ~on_error:Fault.Degrade ~fault:fault2
                  ~data def
              in
              check_int
                (Printf.sprintf "%s jobs=%d recovered build is fault-free"
                   name jobs)
                0
                (Fault.fault_count fault2);
              check_bool
                (Printf.sprintf "%s jobs=%d recovered bytes = clean bytes"
                   name jobs)
                true
                (Test_parallel.page_triples recovered.Strudel.Site.site
                = reference))
            job_levels))
    (Test_parallel.sites_under_test ())

let incremental_rerenders_placeholders () =
  let data = Wrappers.Synth.news_graph ~articles:12 () in
  let def = Sites.Cnn.definition in
  let clean = Strudel.Site.build ~data def in
  let inject = Fault.Inject.create ~seed:7 ~p_render:0.5 () in
  let fault = Fault.ctx ~inject () in
  let cache = Strudel.Render_cache.create () in
  let degraded =
    Strudel.Site.build ~render_cache:cache ~on_error:Fault.Degrade ~fault
      ~data def
  in
  let broken = placeholder_count degraded.Strudel.Site.site in
  check_bool "degraded build has placeholders" true (broken > 0);
  (* incremental rebuild over unchanged data, faults gone: every clean
     page's trace still verifies, but placeholders must not be reused *)
  let report =
    Strudel.Incremental.rebuild ~cache ~previous:degraded ~data ()
  in
  check_bool "placeholders re-rendered despite unchanged data" true
    (report.Strudel.Incremental.pages_rerendered >= broken);
  check_bool "incremental recovery restores clean bytes" true
    (Test_parallel.page_triples
       report.Strudel.Incremental.built.Strudel.Site.site
    = Test_parallel.page_triples clean.Strudel.Site.site)

(* --- determinism of the harness --- *)

let injection_is_deterministic () =
  let data = Wrappers.Synth.news_graph ~articles:12 () in
  let run () =
    let inject = Fault.Inject.create ~seed:11 ~p_render:0.3 () in
    let fault = Fault.ctx ~inject () in
    let b =
      Strudel.Site.build ~on_error:Fault.Degrade ~fault ~data
        Sites.Cnn.definition
    in
    (Test_parallel.page_triples b.Strudel.Site.site, b.Strudel.Site.faults)
  in
  let p1, f1 = run () in
  let p2, f2 = run () in
  check_bool "pages identical across runs" true (p1 = p2);
  check_bool "fault reports identical across runs" true (f1 = f2)

let targeted_injection_scopes_faults () =
  let inject =
    Fault.Inject.create ~seed:3 ~p_parse:1.0 ~targets:[ "elsewhere" ] ()
  in
  let fault = Fault.ctx ~inject () in
  let tbl =
    Wrappers.Csv.table_of_string ~fault ~name:"People" "id,name\np1,Alice\n"
  in
  check_int "untargeted source untouched" 1
    (List.length tbl.Wrappers.Csv.rows);
  check_int "no reports" 0 (Fault.fault_count fault)

(* --- manifest round-trip --- *)

let sample_reports =
  [
    Fault.report ~stage:Fault.Ingest ~source:"bib" ~location:"entry 3, line 9"
      ~cause:"expected ',' after citation key"
      ~excerpt:"@article{bad\n  title \"quoted\"}" ();
    Fault.report ~stage:Fault.Render ~source:"site"
      ~location:"YearPage1997.html" ~cause:{|injected fault: render "Year(1997)"|}
      ();
  ]

let manifest_round_trips () =
  let m = Fault.Manifest.make ~site:"demo" sample_reports in
  check_int "degraded exits 3" 3 (Fault.Manifest.exit_code m);
  let m' = Fault.Manifest.of_json (Fault.Manifest.to_json m) in
  check_bool "faults survive the round trip" true
    (Fault.Manifest.faults m' = Fault.Manifest.faults m);
  check_bool "status recomputed" true
    (Fault.Manifest.status m' = Fault.Manifest.Degraded);
  let clean = Fault.Manifest.make ~site:"demo" [] in
  check_int "clean exits 0" 0 (Fault.Manifest.exit_code clean);
  let clean' = Fault.Manifest.of_json (Fault.Manifest.to_json clean) in
  check_bool "clean round trip" true (Fault.Manifest.faults clean' = [])

let manifest_rejects_malformed () =
  List.iter
    (fun bad ->
      check_bool ("rejects " ^ String.escaped bad) true
        (try
           ignore (Fault.Manifest.of_json bad);
           false
         with Fault.Manifest.Manifest_error _ -> true))
    [
      "";
      "{";
      "not json";
      {|{"site": "x", "faults": "nope"}|};
      {|{"site": "x", "faults": [{"stage": "demolish"}]}|};
      {|{"site": "x"} trailing|};
    ]

(* printable content without the characters [clip] normalizes away, so
   the round trip must be exact *)
let field_arb =
  QCheck.string_small_of
    (QCheck.Gen.oneof
       [
         QCheck.Gen.char_range 'a' 'z';
         QCheck.Gen.oneofl [ '"'; '\\'; ' '; '{'; '}'; '['; ']'; ':'; ',' ];
       ])

let manifest_round_trip_prop =
  QCheck.Test.make ~count:100
    ~name:"manifest JSON round-trips arbitrary report fields"
    QCheck.(quad field_arb field_arb field_arb field_arb)
    (fun (source, location, cause, excerpt) ->
      let r =
        Fault.report ~stage:Fault.Integrate ~source ~location ~cause ~excerpt
          ()
      in
      let m = Fault.Manifest.make ~site:source [ r ] in
      Fault.Manifest.faults (Fault.Manifest.of_json (Fault.Manifest.to_json m))
      = [ r ])

let quarantine_never_raises_prop =
  QCheck.Test.make ~count:20
    ~name:"corrupt synthetic sources always load under a fault ctx"
    QCheck.(pair (int_bound 1000) (int_bound 50))
    (fun (seed, corrupt) ->
      let fault = Fault.ctx () in
      let people_csv, orgs_csv =
        Wrappers.Synth.org_csv ~seed ~corrupt ~people:20 ~orgs:3 ()
      in
      let p =
        Wrappers.Csv.table_of_string ~fault ~name:"People" people_csv
      in
      let o = Wrappers.Csv.table_of_string ~fault ~name:"Orgs" orgs_csv in
      ignore
        (Wrappers.Bibtex.parse_entries ~fault
           (Wrappers.Synth.bibtex ~seed ~corrupt ~entries:15 ()));
      ignore
        (Wrappers.Structured_file.load ~fault
           (Wrappers.Synth.projects_file ~seed ~corrupt ~projects:8
              ~people:20 ()));
      let rect (t : Wrappers.Csv.table) =
        List.for_all
          (fun r -> List.length r = List.length t.Wrappers.Csv.headers)
          t.Wrappers.Csv.rows
      in
      rect p && rect o)

let suite =
  [
    t "backoff schedule is exponential and capped" schedule_exponential_capped;
    t "retry succeeds after transient failures" retry_succeeds_after_failures;
    t "retry exhausts its attempt budget" retry_exhausts_attempts;
    t "deadline truncates the backoff schedule" retry_deadline_truncates;
    t "fail-fast policy re-raises" fail_fast_reraises;
    t "skip-source policy records and skips" skip_source_records_and_skips;
    t "retry recovers without recording a fault" retry_recovers_without_fault;
    t "stale policy serves the last good snapshot" stale_serves_snapshot;
    t "stale policy respects the age bound" stale_age_exceeded_skips;
    t "warehouse integrates around a failed source"
      warehouse_skips_failed_source;
    t "strict CSV errors carry line and column" csv_strict_positions;
    t "CSV quarantines ragged rows" csv_quarantines_ragged_rows;
    t "CSV resynchronizes after a bad quote" csv_resyncs_after_bad_quote;
    t "BibTeX quarantines a malformed entry" bibtex_quarantines_bad_entry;
    t "structured files quarantine separator-less lines"
      structured_quarantines_bad_line;
    t "HTML pages quarantined under injection"
      html_pages_quarantined_by_injection;
    t "synthetic corruption is opt-in and deterministic"
      synth_corruption_is_opt_in;
    t "corrupt synthetic sources load under quarantine"
      synth_corrupt_sources_load_under_quarantine;
    t "binary decoder reports corruption byte offsets" segment_corrupt_offsets;
  ]
  @ degraded_builds_stay_link_consistent
  @ [ t "seed 42 injects faults somewhere" injection_actually_fires ]
  @ recovery_restores_clean_bytes
  @ [
      t "incremental rebuild re-renders placeholders"
        incremental_rerenders_placeholders;
      t "same seed, same faults, same bytes" injection_is_deterministic;
      t "targeted injection spares other sources"
        targeted_injection_scopes_faults;
      t "manifest round-trips through JSON" manifest_round_trips;
      t "manifest rejects malformed JSON" manifest_rejects_malformed;
      QCheck_alcotest.to_alcotest manifest_round_trip_prop;
      QCheck_alcotest.to_alcotest quarantine_never_raises_prop;
    ]
