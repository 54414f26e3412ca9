(* The happens-before race sanitizer: vector-clock/lockset semantics on
   hand-built fixtures (a deliberately racy one must be reported with
   both sites; lock, publish/consume and fork/join ordering must
   suppress the report), determinism under a fixed seed, the SA060-062
   diagnostic bridge, stability pinning of the catalog codes (a retired
   code stays out), and no-false-positive runs of the real parallel
   runtime — builds, cached rebuilds, warehouse refresh (also under a
   pinned view), serving a
   static engine and a federated one across epoch swaps — with the
   sanitizer armed at jobs 2 and 8, and a daemon's exit code read on
   another domain. *)

open Sgraph

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Every sanitized scenario runs inside this bracket: fresh shadow
   state before, disarmed after, whatever happens. *)
let sanitized ?(seed = 7) f =
  Dsan.reset ();
  Dsan.enable ~seed ();
  Fun.protect ~finally:Dsan.disable f

let pos_line ((_, line, _, _) : Dsan.pos) = line

(* --- Fixtures ---

   The child performs its accesses, the parent [Domain.join]s the real
   domain WITHOUT telling the sanitizer (no [Dsan.joined]), then makes
   the conflicting access: execution is deterministic (the accesses
   never physically overlap) but the recorded synchronization orders
   nothing, so the happens-before check must flag the pair — exactly
   the schedule-insensitivity the sanitizer claims.  The suppression
   fixtures add one ordering mechanism each and must stay silent. *)

let racy_ww () =
  let obj = Dsan.alloc ~name:"fixture.racy_ww" in
  let d = Domain.spawn (fun () -> Dsan.write ~site:__POS__ obj 0) in
  Domain.join d;
  Dsan.write ~site:__POS__ obj 0

let racy_rw () =
  let obj = Dsan.alloc ~name:"fixture.racy_rw" in
  let d = Domain.spawn (fun () -> Dsan.write ~site:__POS__ obj 3) in
  Domain.join d;
  Dsan.read ~site:__POS__ obj 3

let locked_ww () =
  let obj = Dsan.alloc ~name:"fixture.locked_ww" in
  let lid = Dsan.lock_id ~name:"fixture.lock" in
  let m = Mutex.create () in
  let write () =
    Mutex.lock m;
    Dsan.acquire ~site:__POS__ lid;
    Dsan.write ~site:__POS__ obj 0;
    Dsan.release ~site:__POS__ lid;
    Mutex.unlock m
  in
  let d = Domain.spawn write in
  Domain.join d;
  write ()

let published_ww () =
  let obj = Dsan.alloc ~name:"fixture.published_ww" in
  let point = Dsan.atomic_id ~name:"fixture.point" in
  let d =
    Domain.spawn (fun () ->
        Dsan.write ~site:__POS__ obj 0;
        Dsan.publish ~site:__POS__ point)
  in
  Domain.join d;
  Dsan.consume ~site:__POS__ point;
  Dsan.write ~site:__POS__ obj 0

let forked_ww () =
  let obj = Dsan.alloc ~name:"fixture.forked_ww" in
  let tok = Dsan.fork () in
  let d =
    Domain.spawn (fun () ->
        Dsan.born tok;
        Dsan.write ~site:__POS__ obj 0;
        Dsan.dying tok)
  in
  Domain.join d;
  Dsan.joined tok;
  Dsan.write ~site:__POS__ obj 0

(* A reader domain lists a node's out-edges; the parent joins it
   without telling the sanitizer and then mutates the graph: the
   graph's own per-read instrumentation must expose the pair. *)
let racy_graph () =
  let g = Graph.create ~name:"fixture.graph" () in
  let a = Graph.new_node g "a" in
  let d = Domain.spawn (fun () -> ignore (Graph.out_edges g a)) in
  Domain.join d;
  Graph.add_edge g a "x" (Graph.V (Value.Int 1))

(* --- Unit: detection and suppression --- *)

let unit_tests =
  [
    t "disabled: instrumentation is inert" (fun () ->
        Dsan.reset ();
        check_bool "disabled by default" false (Dsan.enabled ());
        racy_ww ();
        check_int "no races recorded" 0 (Dsan.race_count ());
        check_int "no ops recorded" 0 (Dsan.stats ()).Dsan.st_ops);
    t "disabled: creating objects leaves the name registry alone" (fun () ->
        check_bool "disabled" false (Dsan.enabled ());
        let before = Dsan.registered () in
        for _ = 1 to 1000 do
          ignore (Graph.create ())
        done;
        check_int "registry size" before (Dsan.registered ()));
    t "write-write race: reported with both sites and locksets" (fun () ->
        sanitized (fun () ->
            racy_ww ();
            let races = Dsan.races () in
            check_int "one race" 1 (List.length races);
            let r = List.hd races in
            check_bool "kind" true (r.Dsan.r_kind = `Write_write);
            check_string "object" "fixture.racy_ww" r.Dsan.r_object;
            check_int "field" 0 r.Dsan.r_field;
            check_bool "distinct domains" true (r.Dsan.r_tid1 <> r.Dsan.r_tid2);
            check_bool "distinct sites" true
              (pos_line r.Dsan.r_site1 <> pos_line r.Dsan.r_site2);
            check_bool "no locks on either side" true
              (r.Dsan.r_locks1 = [] && r.Dsan.r_locks2 = [])));
    t "read-write race: reported as SA061 kind" (fun () ->
        sanitized (fun () ->
            racy_rw ();
            let races = Dsan.races () in
            check_int "one race" 1 (List.length races);
            let r = List.hd races in
            check_bool "kind" true (r.Dsan.r_kind = `Read_write);
            check_int "field" 3 r.Dsan.r_field));
    t "a graph mutation racing a reader domain is reported" (fun () ->
        sanitized (fun () ->
            racy_graph ();
            match Dsan.races () with
            | [ r ] ->
              check_string "object" "Graph(fixture.graph)" r.Dsan.r_object;
              check_bool "kind" true (r.Dsan.r_kind = `Read_write)
            | rs -> Alcotest.failf "%d races, expected one" (List.length rs)));
    t "mutex release->acquire suppresses the report" (fun () ->
        sanitized (fun () ->
            locked_ww ();
            check_int "no race" 0 (Dsan.race_count ())));
    t "publish->consume suppresses the report" (fun () ->
        sanitized (fun () ->
            published_ww ();
            check_int "no race" 0 (Dsan.race_count ())));
    t "fork/born/dying/joined suppresses the report" (fun () ->
        sanitized (fun () ->
            forked_ww ();
            check_int "no race" 0 (Dsan.race_count ())));
    t "duplicate races dedupe; reset clears" (fun () ->
        sanitized (fun () ->
            racy_ww ();
            racy_ww ();
            (* same object name, fields, kind and site pair: one report *)
            check_int "identical race pair deduped" 1 (Dsan.race_count ()));
        Dsan.reset ();
        check_int "reset clears races" 0 (Dsan.race_count ()));
  ]

(* --- Determinism --- *)

let race_key (r : Dsan.race) =
  (r.Dsan.r_object, r.Dsan.r_field,
   (match r.Dsan.r_kind with `Write_write -> "ww" | `Read_write -> "rw"),
   pos_line r.Dsan.r_site1, pos_line r.Dsan.r_site2)

let determinism_tests =
  [
    t "same seed, same workload: identical reports" (fun () ->
        let run () =
          sanitized ~seed:42 (fun () -> racy_ww (); racy_rw ());
          List.map race_key (Dsan.races ())
        in
        let a = run () in
        let b = run () in
        let c = run () in
        check_bool "non-empty" true (a <> []);
        check_bool "run 2 identical" true (a = b);
        check_bool "run 3 identical" true (a = c));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:20
         ~name:"any perturber seed: racy fixture always caught, exactly once"
         QCheck.small_int
         (fun seed ->
           sanitized ~seed (fun () -> racy_ww ());
           Dsan.race_count () = 1));
  ]

(* --- The diagnostic bridge and the stable catalog --- *)

let catalog_tests =
  [
    t "SA060/SA061/SA062 are in the stable catalog" (fun () ->
        let find code =
          List.find_opt
            (fun (c, _, _) -> c = code)
            Analysis.Diagnostic.catalog
        in
        (match find "SA060" with
         | Some (_, sev, desc) ->
           check_bool "SA060 severity" true (sev = Analysis.Diagnostic.Error);
           check_string "SA060 text"
             "data race: two unordered writes to the same shared location"
             desc
         | None -> Alcotest.fail "SA060 missing");
        (match find "SA061" with
         | Some (_, sev, _) ->
           check_bool "SA061 severity" true (sev = Analysis.Diagnostic.Error)
         | None -> Alcotest.fail "SA061 missing");
        match find "SA062" with
        | Some (_, sev, _) ->
          check_bool "SA062 severity" true (sev = Analysis.Diagnostic.Info)
        | None -> Alcotest.fail "SA062 missing");
    t "catalog is append-only: every pre-dsan code still present" (fun () ->
        let codes = List.map (fun (c, _, _) -> c) Analysis.Diagnostic.catalog in
        List.iter
          (fun c -> check_bool c true (List.mem c codes))
          [ "SA001"; "SA002"; "SA003"; "SA004"; "SA005"; "SA010"; "SA011";
            "SA012"; "SA013"; "SA020"; "SA021"; "SA022"; "SA023"; "SA024";
            "SA030"; "SA031"; "SA040"; "SA041"; "SA042"; "SA043" ];
        (* retired with the shard-aware evaluator; never reused *)
        check_bool "SA050 retired" false (List.mem "SA050" codes));
    t "race -> diagnostic: code, severity, span, both access notes"
      (fun () ->
        sanitized (fun () -> racy_ww ());
        let rs = Dsan.races () in
        let d = Analysis.Dsan_report.diagnostic_of_race (List.hd rs) in
        check_string "code" "SA060" d.Analysis.Diagnostic.code;
        check_bool "severity" true
          (d.Analysis.Diagnostic.severity = Analysis.Diagnostic.Error);
        check_bool "span is this file" true
          (match d.Analysis.Diagnostic.span with
           | Some s ->
             Filename.basename s.Analysis.Diagnostic.file = "test_dsan.ml"
           | None -> false);
        check_int "two access notes" 2
          (List.length d.Analysis.Diagnostic.related));
    t "report: sorted races plus SA062 summary; SARIF renders" (fun () ->
        sanitized (fun () -> racy_rw (); racy_ww ());
        Dsan.disable ();
        let diags = Analysis.Dsan_report.report ~schedules:3 () in
        check_int "two races + summary" 3 (List.length diags);
        let last = List.nth diags 2 in
        check_string "summary code" "SA062" last.Analysis.Diagnostic.code;
        check_bool "summary counts schedules" true
          (let m = last.Analysis.Diagnostic.message in
           let has_sub sub =
             let n = String.length sub and len = String.length m in
             let rec go i =
               i + n <= len && (String.sub m i n = sub || go (i + 1))
             in
             go 0
           in
           has_sub "3 schedule(s)" && has_sub "2 race(s)");
        let sarif = Analysis.Diagnostic.to_sarif diags in
        check_bool "sarif mentions SA060" true
          (let n = String.length "SA060" and len = String.length sarif in
           let rec go i =
             i + n <= len && (String.sub sarif i n = "SA060" || go (i + 1))
           in
           go 0));
  ]

(* --- No false positives on the real runtime --- *)

let page_triples (site : Template.Generator.site) =
  List.map
    (fun (p : Template.Generator.page) ->
      (p.Template.Generator.url, p.Template.Generator.html))
    site.Template.Generator.pages

let job_levels = [ 2; 8 ]

let request path =
  {
    Serve.Http.meth = Serve.Http.GET;
    target = path;
    path;
    version = "HTTP/1.1";
    headers = [];
    body = "";
  }

let clean_runtime_tests =
  [
    t "sanitized parallel builds: zero races, output unchanged" (fun () ->
        let def = Sites.Paper_example.definition in
        let data = Sites.Paper_example.data () in
        let reference =
          page_triples (Strudel.Site.build ~data def).Strudel.Site.site
        in
        List.iter
          (fun jobs ->
            sanitized (fun () ->
                let cache = Strudel.Render_cache.create () in
                let b1 = Strudel.Site.build ~jobs ~render_cache:cache ~data def in
                let b2 = Strudel.Site.build ~jobs ~render_cache:cache ~data def in
                check_bool
                  (Printf.sprintf "jobs=%d first build identical" jobs)
                  true
                  (page_triples b1.Strudel.Site.site = reference);
                check_bool
                  (Printf.sprintf "jobs=%d cached build identical" jobs)
                  true
                  (page_triples b2.Strudel.Site.site = reference);
                check_int (Printf.sprintf "jobs=%d races" jobs) 0
                  (Dsan.race_count ());
                check_bool "sanitizer actually saw the run" true
                  ((Dsan.stats ()).Dsan.st_ops > 0)))
          job_levels);
    t "sanitized warehouse refresh: zero races" (fun () ->
        List.iter
          (fun jobs ->
            sanitized (fun () ->
                let srcs, _ = Sites.Org.data ~people:20 ~orgs:3 () in
                let w =
                  Mediator.Warehouse.create ~jobs
                    ~sources:
                      [ srcs.Sites.Org.rdb; srcs.Sites.Org.projects;
                        srcs.Sites.Org.bib; srcs.Sites.Org.html ]
                    ~mappings:Sites.Org.mediation_mappings ()
                in
                ignore (Mediator.Warehouse.refresh ~jobs w);
                check_bool "warehouse built" true
                  (Graph.node_count (Mediator.Warehouse.graph w) > 0);
                check_int (Printf.sprintf "jobs=%d races" jobs) 0
                  (Dsan.race_count ())))
          job_levels);
    t "sanitized warehouse refresh under a pinned view: zero races, \
       pinned epoch kept"
      (fun () ->
        let items name k =
          let g = Graph.create ~name () in
          for i = 1 to 4 do
            let o = Graph.new_node g (Printf.sprintf "%s%d" name i) in
            Graph.add_to_collection g "Items" o;
            Graph.add_edge g o "v" (Graph.V (Value.Int k))
          done;
          g
        in
        let names = [ "a"; "b"; "c"; "d" ] in
        List.iter
          (fun jobs ->
            sanitized (fun () ->
                let srcs =
                  List.map
                    (fun n -> Mediator.Source.of_graph ~name:n (items n 1))
                    names
                in
                let w =
                  Mediator.Warehouse.create ~jobs ~sources:srcs
                    ~mappings:
                      (List.map
                         (fun n ->
                           Mediator.Gav.copy_collection ~source:n
                             ~collection:"Items" ())
                         names)
                    ()
                in
                let pinned = Mediator.Warehouse.pin w in
                List.iter2
                  (fun s n -> Mediator.Source.update s (fun () -> items n 2))
                  srcs names;
                check_bool "refresh happened" true
                  (Mediator.Warehouse.refresh ~jobs w);
                check_int "current epoch 2" 2
                  (Mediator.Warehouse.view_epoch (Mediator.Warehouse.pin w));
                check_int "pinned view keeps epoch 1" 1
                  (Mediator.Warehouse.view_epoch pinned);
                check_int (Printf.sprintf "jobs=%d races" jobs) 0
                  (Dsan.race_count ());
                check_bool "sanitizer actually saw the run" true
                  ((Dsan.stats ()).Dsan.st_ops > 0)))
          job_levels);
    t "sanitized serving: zero races under concurrent requests" (fun () ->
        let def = Sites.Paper_example.definition in
        let data = Sites.Paper_example.data () in
        List.iter
          (fun jobs ->
            sanitized (fun () ->
                let eng =
                  Serve.Engine.create ~source:(Serve.Engine.Static data) def
                in
                Pool.run Pool.shared ~jobs (fun _ ->
                    for _ = 1 to 20 do
                      List.iter
                        (fun path ->
                          ignore (Serve.Engine.handle eng (request path)))
                        [ "/"; "/healthz"; "/readyz" ]
                    done);
                check_int (Printf.sprintf "jobs=%d races" jobs) 0
                  (Dsan.race_count ())))
          job_levels);
    (* request domains GET "/" and every page while the main domain
       installs three epochs: each response must be the cold build of
       the epoch its X-Strudel-Epoch header names *)
    t "sanitized serving across epoch swaps: zero races, every response \
       from its epoch's cold build"
      (fun () ->
        let items_of ep =
          [ ("x1", "one"); ("x2", Printf.sprintf "v%d" ep);
            (Printf.sprintf "y%d" ep, "new") ]
        in
        (* each epoch's cold build, computed before the sanitizer runs *)
        let expected =
          Array.init 5 (fun ep ->
              if ep = 0 then []
              else
                page_triples
                  (Test_serve.mini_built (items_of ep)).Strudel.Site.site)
        in
        let paths =
          "/"
          :: List.sort_uniq compare
               (List.concat_map
                  (List.map (fun (url, _) -> "/" ^ url))
                  (Array.to_list expected))
        in
        let consistent resp path =
          match
            List.assoc_opt "X-Strudel-Epoch" resp.Serve.Http.resp_headers
          with
          | None -> false
          | Some ep ->
            let pages = expected.(int_of_string ep) in
            let url =
              if path = "/" then fst (List.hd pages)
              else String.sub path 1 (String.length path - 1)
            in
            (match List.assoc_opt url pages with
             | Some html ->
               resp.Serve.Http.status = 200 && resp.Serve.Http.resp_body = html
             | None -> resp.Serve.Http.status = 404)
        in
        List.iter
          (fun jobs ->
            sanitized (fun () ->
                let s, w = Test_serve.mini_warehouse (items_of 1) in
                let eng =
                  Serve.Engine.create ~source:(Serve.Engine.Federated w)
                    Test_serve.mini_def
                in
                let stop = Atomic.make false in
                let seen = Atomic.make 0 and bad = Atomic.make 0 in
                let hammer () =
                  let tok = Dsan.fork () in
                  let d =
                    Domain.spawn (fun () ->
                        Dsan.born tok;
                        Fun.protect
                          ~finally:(fun () -> Dsan.dying tok)
                          (fun () ->
                            while not (Atomic.get stop) do
                              List.iter
                                (fun path ->
                                  let resp =
                                    Serve.Engine.handle eng (request path)
                                  in
                                  Atomic.incr seen;
                                  if not (consistent resp path) then
                                    Atomic.incr bad)
                                paths
                            done))
                  in
                  (tok, d)
                in
                let hammers = List.init jobs (fun _ -> hammer ()) in
                while Atomic.get seen < jobs do
                  Domain.cpu_relax ()
                done;
                for ep = 2 to 4 do
                  Mediator.Source.update s (fun () ->
                      Test_serve.mini_graph (items_of ep));
                  check_bool "refreshed" true (Serve.Engine.refresh eng)
                done;
                Atomic.set stop true;
                List.iter
                  (fun (tok, d) ->
                    Domain.join d;
                    Dsan.joined tok)
                  hammers;
                check_int "final epoch" 4 (Serve.Engine.epoch eng);
                check_int (Printf.sprintf "jobs=%d inconsistent responses" jobs)
                  0 (Atomic.get bad);
                check_int (Printf.sprintf "jobs=%d races" jobs) 0
                  (Dsan.race_count ())))
          job_levels);
    (* a daemon served on a domain the sanitizer was not told about, as
       an embedding program may do: its exit code must still reach the
       domain that reads it after the join without a report *)
    t "sanitized daemon: exit code read after an unrecorded join" (fun () ->
        sanitized (fun () ->
            let listener =
              {
                Serve.Daemon.l_accept =
                  (fun () ->
                    Unix.sleepf 0.002;
                    None);
                l_close = ignore;
              }
            in
            let d =
              Serve.Daemon.create
                ~handler:(fun ~worker:_ _ -> Serve.Http.response ~status:200 "")
                ()
            in
            let srv = Domain.spawn (fun () -> Serve.Daemon.serve d listener) in
            Serve.Daemon.stop d;
            Domain.join srv;
            check_int "exit 0" 0 (Serve.Daemon.exit_code d);
            check_int "races" 0 (Dsan.race_count ())));
  ]

let suite = unit_tests @ determinism_tests @ catalog_tests @ clean_runtime_tests
