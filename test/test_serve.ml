(* The strudeld serving layer: HTTP codec, admission gate, the engine's
   differential against full builds (slug collisions included), live
   epoch pickup, and the daemon's overload/timeout/drain contract — the
   behavior tests run on synthetic connections and the virtual clock
   (no sockets, no sleeps in the logic under test). *)

open Sgraph
module Http = Serve.Http
module Gate = Serve.Gate
module Engine = Serve.Engine
module Daemon = Serve.Daemon
module CT = Strudel.Materialize.Click_time

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- helpers --- *)

let read_of_string s =
  let pos = ref 0 in
  fun b off len ->
    let n = min len (String.length s - !pos) in
    if n <= 0 then 0
    else begin
      Bytes.blit_string s !pos b off n;
      pos := !pos + n;
      n
    end

let parse_one s =
  match Http.read_request ~read:(read_of_string s) (Http.create_buf ()) with
  | Some r -> r
  | None -> Alcotest.fail "expected a request"

let req ?(meth = Http.GET) ?(headers = []) path =
  { Http.meth; target = path; path; version = "HTTP/1.1"; headers; body = "" }

let header resp name =
  let name = String.lowercase_ascii name in
  List.find_map
    (fun (k, v) -> if String.lowercase_ascii k = name then Some v else None)
    resp.Http.resp_headers

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let await ?(timeout = 10.) msg cond =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if cond () then ()
    else if Unix.gettimeofday () -. t0 > timeout then
      Alcotest.failf "timed out waiting for %s" msg
    else begin
      Unix.sleepf 0.005;
      go ()
    end
  in
  go ()

(* --- the mini federated site used by the epoch tests --- *)

let mini_query =
  {|{ CREATE RootPage() COLLECT Roots(RootPage()) }
{ WHERE As(x), x -> "name" -> n
  CREATE ItemPage(x)
  LINK RootPage() -> "Item" -> ItemPage(x),
       ItemPage(x) -> "name" -> n
  COLLECT Items(ItemPage(x)) }
OUTPUT MINI|}

let mini_templates =
  {
    Template.Generator.empty_templates with
    Template.Generator.by_collection =
      [
        ("Roots", "<h1>Items</h1>\n<SFMTLIST @Item ORDER=ascend KEY=name>\n");
        ("Items", "<h1><SFMT @name></h1>\n");
      ];
  }

let mini_def =
  Strudel.Site.define ~name:"mini" ~root_family:"RootPage"
    ~templates:mini_templates
    [ ("site", mini_query) ]

let mini_graph items =
  let g = Graph.create ~name:"A" () in
  List.iter
    (fun (n, v) ->
      let x = Graph.new_node g n in
      Graph.add_to_collection g "As" x;
      Graph.add_edge g x "name" (Graph.V (Value.String v)))
    items;
  g

let mini_warehouse items =
  let s = Mediator.Source.of_graph ~name:"a" (mini_graph items) in
  let w =
    Mediator.Warehouse.create ~sources:[ s ]
      ~mappings:[ Mediator.Gav.copy_collection ~source:"a" ~collection:"As" () ]
      ()
  in
  (s, w)

(* What a full build serves for this data — the differential oracle.
   Built over a fresh warehouse's mediated graph, the same shape the
   engine materializes from (mediated nodes carry prefixed names). *)
let mini_data items =
  let _, w = mini_warehouse items in
  Mediator.Warehouse.graph w

let mini_built items = Strudel.Site.build ~data:(mini_data items) mini_def

let body_of resp = resp.Http.resp_body
let status_of resp = resp.Http.status

let get ?headers engine path = Engine.handle engine (req ?headers path)

(* --- synthetic daemon transport --- *)

type sconn = {
  conn : Daemon.conn;
  out : Buffer.t;
  out_m : Mutex.t;
  sc_closed : bool ref;
}

let output sc =
  Mutex.lock sc.out_m;
  let s = Buffer.contents sc.out in
  Mutex.unlock sc.out_m;
  s

(* [input] is delivered then EOF; [mode] perturbs the transport:
   `Read_times_out raises Timeout on the first read, `Write_fails
   raises Client_closed on the first write (the EPIPE case). *)
let mk_conn ?(mode = `Ok) input =
  let pos = ref 0 in
  let out = Buffer.create 256 in
  let out_m = Mutex.create () in
  let closed = ref false in
  let read b off len =
    if mode = `Read_times_out then raise Daemon.Timeout;
    if !closed then raise Daemon.Client_closed;
    let n = min len (String.length input - !pos) in
    if n <= 0 then 0
    else begin
      Bytes.blit_string input !pos b off n;
      pos := !pos + n;
      n
    end
  in
  let write s =
    if mode = `Write_fails then raise Daemon.Client_closed;
    if !closed then raise Daemon.Client_closed;
    Mutex.lock out_m;
    Buffer.add_string out s;
    Mutex.unlock out_m
  in
  let close () = closed := true in
  {
    conn =
      { Daemon.c_read = read; c_write = write; c_close = close;
        c_peer = "synthetic" };
    out;
    out_m;
    sc_closed = closed;
  }

(* Conns queued up front are delivered in order; the accept tick is a
   tiny real sleep so the loop isn't a busy spin. *)
let mk_listener conns =
  let q = Queue.create () in
  List.iter (fun c -> Queue.add c q) conns;
  let m = Mutex.create () in
  let closed = ref false in
  let accept () =
    Mutex.lock m;
    let r = if Queue.is_empty q then None else Some (Queue.pop q) in
    Mutex.unlock m;
    if r = None then Unix.sleepf 0.002;
    r
  in
  ({ Daemon.l_accept = accept; l_close = (fun () -> closed := true) }, closed)

let mk_latch () =
  let m = Mutex.create () in
  let c = Condition.create () in
  let opened = ref false in
  let entered = ref false in
  let wait () =
    Mutex.lock m;
    entered := true;
    while not !opened do
      Condition.wait c m
    done;
    Mutex.unlock m
  in
  let release () =
    Mutex.lock m;
    opened := true;
    Condition.broadcast c;
    Mutex.unlock m
  in
  let entered () =
    Mutex.lock m;
    let e = !entered in
    Mutex.unlock m;
    e
  in
  (wait, release, entered)

let ok_handler ~worker:_ _req = Http.response ~status:200 "ok\n"

let get_wire path = Printf.sprintf "GET %s HTTP/1.1\r\nhost: t\r\n\r\n" path

(* --- suites --- *)

let http_tests =
  [
    t "parses a request line, headers and keep-alive default" (fun () ->
        let r = parse_one "GET /a.html?x=1 HTTP/1.1\r\nHost: h\r\nX-A: b\r\n\r\n" in
        check_bool "GET" true (r.Http.meth = Http.GET);
        check_string "target" "/a.html?x=1" r.Http.target;
        check_string "path" "/a.html" r.Http.path;
        check_string "host lowercased" "h"
          (Option.get (Http.header r "HOST"));
        check_bool "keep-alive" true (Http.keep_alive r));
    t "connection: close and HTTP/1.0 disable keep-alive" (fun () ->
        let r = parse_one "GET / HTTP/1.1\r\nConnection: close\r\n\r\n" in
        check_bool "close" false (Http.keep_alive r);
        let r10 = parse_one "GET / HTTP/1.0\r\n\r\n" in
        check_bool "1.0 closes" false (Http.keep_alive r10));
    t "pipelined requests parse from one buffer" (fun () ->
        let buf = Http.create_buf () in
        let read = read_of_string "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n" in
        let a = Option.get (Http.read_request ~read buf) in
        let b = Option.get (Http.read_request ~read buf) in
        check_string "first" "/a" a.Http.path;
        check_string "second" "/b" b.Http.path;
        check_bool "then EOF" true (Http.read_request ~read buf = None));
    t "bad input raises Bad_request, not an unbounded read" (fun () ->
        let bad s =
          match parse_one s with
          | exception Http.Bad_request _ -> true
          | _ -> false
        in
        check_bool "garbage line" true (bad "NONSENSE\r\n\r\n");
        check_bool "absolute-form target" true
          (bad "GET http://x/ HTTP/1.1\r\n\r\n");
        check_bool "dot segments" true (bad "GET /../etc HTTP/1.1\r\n\r\n");
        check_bool "oversized request line" true
          (bad ("GET /" ^ String.make 9000 'a' ^ " HTTP/1.1\r\n\r\n")));
    t "serialize emits exact content-length; HEAD keeps it" (fun () ->
        let resp = Http.response ~status:200 "hello" in
        let wire = Http.serialize resp in
        check_bool "length" true (contains ~needle:"Content-Length: 5" wire);
        check_bool "body" true (contains ~needle:"\r\n\r\nhello" wire);
        let head = Http.serialize ~head_only:true resp in
        check_bool "head keeps entity length" true
          (contains ~needle:"Content-Length: 5" head);
        check_bool "head omits body" false (contains ~needle:"hello" head));
  ]

let gate_tests =
  [
    t "admits to the bound, sheds past it, readmits after release"
      (fun () ->
        let g = Gate.create ~max_inflight:2 in
        check_bool "1" true (Gate.try_admit g = Gate.Admitted);
        check_bool "2" true (Gate.try_admit g = Gate.Admitted);
        check_bool "3 shed" true (Gate.try_admit g = Gate.Shed);
        Gate.release g;
        check_bool "readmitted" true (Gate.try_admit g = Gate.Admitted);
        let s = Gate.stats g in
        check_int "admitted" 3 s.Gate.g_admitted;
        check_int "shed" 1 s.Gate.g_shed);
    t "draining refuses everything; wait_idle is the barrier" (fun () ->
        let g = Gate.create ~max_inflight:0 in
        check_bool "admit" true (Gate.try_admit g = Gate.Admitted);
        Gate.begin_drain g;
        check_bool "refused" true (Gate.try_admit g = Gate.Refused);
        check_bool "gives up while busy" false
          (Gate.wait_idle ~give_up:(fun () -> true) g);
        Gate.release g;
        check_bool "idle" true (Gate.wait_idle g));
  ]

let engine_static_tests =
  [
    t "differential: served bytes equal the full build's pages" (fun () ->
        List.iter
          (fun (site, def, data) ->
            let built = Strudel.Site.build ~data def in
            let e = Engine.create ~source:(Engine.Static data) def in
            let pages = built.Strudel.Site.site.Template.Generator.pages in
            check_bool (site ^ ": some pages") true (List.length pages > 5);
            check_int (site ^ ": page count") (List.length pages)
              (Engine.page_count e);
            List.iter
              (fun (p : Template.Generator.page) ->
                let url = p.Template.Generator.url in
                let resp = get e ("/" ^ url) in
                check_int (site ^ ": status " ^ url) 200 (status_of resp);
                check_string (site ^ ": bytes " ^ url)
                  p.Template.Generator.html (body_of resp))
              pages;
            (* "/" is the root page *)
            let root = get e "/" in
            check_int (site ^ ": root ok") 200 (status_of root);
            check_bool (site ^ ": root is one of the built pages") true
              (List.exists
                 (fun (p : Template.Generator.page) ->
                   p.Template.Generator.html = body_of root)
                 pages))
          (Test_parallel.sites_under_test ()
          @ [ Test_parallel.shape_a (); Test_parallel.shape_b () ]));
    t "404, 405 and the operational endpoints" (fun () ->
        let e =
          Engine.create ~source:(Engine.Static (Sites.Paper_example.data ()))
            Sites.Paper_example.definition
        in
        check_int "404" 404 (status_of (get e "/no-such-page.html"));
        let post = Engine.handle e (req ~meth:Http.POST "/") in
        check_int "405" 405 (status_of post);
        check_string "allow" "GET, HEAD" (Option.get (header post "allow"));
        let hz = get e "/healthz" in
        check_int "healthz" 200 (status_of hz);
        check_bool "healthz ok" true (contains ~needle:"\"status\":\"ok\"" (body_of hz));
        check_int "readyz" 200 (status_of (get e "/readyz"));
        Engine.set_draining e true;
        check_int "readyz drains" 503 (status_of (get e "/readyz"));
        check_int "faultz" 200 (status_of (get e "/faultz")));
    t "etag revalidation: 304 on if-none-match, new tag per epoch entry"
      (fun () ->
        let e =
          Engine.create ~source:(Engine.Static (Sites.Paper_example.data ()))
            Sites.Paper_example.definition
        in
        let r1 = get e "/" in
        let tag = Option.get (header r1 "etag") in
        let r2 = get e ~headers:[ ("if-none-match", tag) ] "/" in
        check_int "304" 304 (status_of r2);
        check_string "304 empty body" "" (body_of r2);
        check_string "304 keeps etag" tag (Option.get (header r2 "etag"));
        let r3 = get e ~headers:[ ("if-none-match", "\"stale\"") ] "/" in
        check_int "mismatched tag re-serves" 200 (status_of r3));
    t "a request renders nothing: an injector armed after create fails \
       no page"
      (fun () ->
        let data = Sites.Paper_example.data () in
        let def = Sites.Paper_example.definition in
        let built = Strudel.Site.build ~data def in
        let inject = Fault.Inject.create ~p_render:1.0 () in
        Fault.Inject.disarm inject;
        let e =
          Engine.create ~fault:(Fault.ctx ~inject ())
            ~source:(Engine.Static data) def
        in
        Fault.Inject.arm inject;
        List.iter
          (fun (p : Template.Generator.page) ->
            let resp = get e ("/" ^ p.Template.Generator.url) in
            check_int ("status " ^ p.Template.Generator.url) 200
              (status_of resp);
            check_string ("bytes " ^ p.Template.Generator.url)
              p.Template.Generator.html (body_of resp))
          built.Strudel.Site.site.Template.Generator.pages;
        check_bool "not degraded" false (Engine.degraded e));
    t "click-time browse errors are structured (no escapes)" (fun () ->
        let ct = CT.start ~data:(Sites.Paper_example.data ())
            Sites.Paper_example.definition
        in
        let stranger = Graph.new_node (Graph.create ()) "not-in-this-site" in
        (match CT.try_browse ct stranger with
        | Error (CT.Unknown_object _) -> ()
        | Ok _ | Error (CT.Render_failed _) ->
          Alcotest.fail "expected Unknown_object");
        check_bool "browse raises Browse_error" true
          (match CT.browse ct stranger with
          | exception CT.Browse_error (CT.Unknown_object _) -> true
          | _ -> false));
    t "injected render failure: page-scoped 503 + manifest" (fun () ->
        let built = mini_built [ ("x1", "one"); ("x2", "two") ] in
        let victim =
          List.find
            (fun (p : Template.Generator.page) ->
              contains ~needle:"x1" (Oid.name p.Template.Generator.obj))
            built.Strudel.Site.site.Template.Generator.pages
        in
        let victim_name = Oid.name victim.Template.Generator.obj in
        let inject =
          Fault.Inject.create ~seed:7 ~p_render:1.0 ~targets:[ victim_name ] ()
        in
        let e =
          Engine.create ~fault:(Fault.ctx ~inject ())
            ~source:(Engine.Static (mini_data [ ("x1", "one"); ("x2", "two") ]))
            mini_def
        in
        let url = "/" ^ victim.Template.Generator.url in
        let r = get e url in
        check_int "503" 503 (status_of r);
        check_bool "manifest body" true
          (contains ~needle:"\"status\": \"degraded\"" (body_of r)
           || contains ~needle:"degraded" (body_of r));
        check_string "retry-after" "1" (Option.get (header r "retry-after"));
        check_string "degraded kind" "render-failed"
          (Option.get (header r "x-strudel-degraded"));
        (* the placeholder stays until a changed cycle renders it: no
           request retries the render *)
        check_int "still 503" 503 (status_of (get e url));
        (* only that page degraded; the rest of the site serves *)
        check_int "root fine" 200 (status_of (get e "/"));
        check_bool "degraded" true (Engine.degraded e);
        (* disarmed, a fresh engine renders the page *)
        Fault.Inject.disarm inject;
        let e2 =
          Engine.create ~fault:(Fault.ctx ~inject ())
            ~source:(Engine.Static (mini_data [ ("x1", "one"); ("x2", "two") ]))
            mini_def
        in
        check_int "recovered" 200 (status_of (get e2 url)));
    (* The item pages of "x.y" and "x_y" (mediated as AsObj(x.y) and
       AsObj(x_y)) share the slug ItemPageAsObjx_y: a cold build renames
       the second to ItemPageAsObjx_y_1.html and rewrites the root's
       link to it. *)
    t "collision: a federated engine serves every cold-build page at its \
       URL, across refreshes"
      (fun () ->
        let items1 = [ ("x.y", "dot"); ("x_y", "under") ] in
        let items2 = [ ("x.y", "dot!"); ("x_y", "under") ] in
        let items3 = [ ("x_y", "under") ] in
        let renamed = "ItemPageAsObjx_y_1.html" in
        let s, w = mini_warehouse items1 in
        let e = Engine.create ~source:(Engine.Federated w) mini_def in
        let served_as_built label items =
          let pages =
            (mini_built items).Strudel.Site.site.Template.Generator.pages
          in
          check_int (label ^ ": page count") (List.length pages)
            (Engine.page_count e);
          List.iter
            (fun (p : Template.Generator.page) ->
              let url = p.Template.Generator.url in
              let resp = get e ("/" ^ url) in
              check_int (label ^ ": status " ^ url) 200 (status_of resp);
              check_string (label ^ ": bytes " ^ url)
                p.Template.Generator.html (body_of resp))
            pages;
          List.map (fun (p : Template.Generator.page) -> p.Template.Generator.url)
            pages
        in
        check_bool "the renamed page is served" true
          (List.mem renamed (served_as_built "clash" items1));
        Mediator.Source.update s (fun () -> mini_graph items2);
        check_bool "refreshed" true (Engine.refresh e);
        check_bool "the clash is kept" true
          (List.mem renamed (served_as_built "kept" items2));
        Mediator.Source.update s (fun () -> mini_graph items3);
        check_bool "refreshed" true (Engine.refresh e);
        check_bool "the clash is gone" false
          (List.mem renamed (served_as_built "removed" items3));
        check_int "the renamed URL is gone" 404
          (status_of (get e ("/" ^ renamed))));
  ]

let engine_epoch_tests =
  [
    t "refresh installs the new epoch atomically; bytes match a fresh build"
      (fun () ->
        let items1 = [ ("x1", "one"); ("x2", "two") ] in
        let items2 = [ ("x1", "one"); ("x2", "two!"); ("x3", "three") ] in
        let s, w = mini_warehouse items1 in
        let e = Engine.create ~source:(Engine.Federated w) mini_def in
        check_int "epoch 1" 1 (Engine.epoch e);
        check_bool "no-op refresh" false (Engine.refresh e);
        (* differential for epoch 1 *)
        let built1 = mini_built items1 in
        List.iter
          (fun (p : Template.Generator.page) ->
            check_string ("e1 " ^ p.Template.Generator.url)
              p.Template.Generator.html
              (body_of (get e ("/" ^ p.Template.Generator.url))))
          built1.Strudel.Site.site.Template.Generator.pages;
        (* the source publishes a new export *)
        Mediator.Source.update s (fun () -> mini_graph items2);
        check_bool "refresh rebuilds" true (Engine.refresh e);
        check_int "epoch 2" 2 (Engine.epoch e);
        let built2 = mini_built items2 in
        List.iter
          (fun (p : Template.Generator.page) ->
            let resp = get e ("/" ^ p.Template.Generator.url) in
            check_string ("e2 " ^ p.Template.Generator.url)
              p.Template.Generator.html (body_of resp);
            check_string "epoch header" "2"
              (Option.get (header resp "x-strudel-epoch")))
          built2.Strudel.Site.site.Template.Generator.pages);
    t "epoch swap invalidates exactly the pages whose reads changed"
      (fun () ->
        let items1 = [ ("x1", "one"); ("x2", "two") ] in
        let s, w = mini_warehouse items1 in
        let e = Engine.create ~source:(Engine.Federated w) mini_def in
        let url_of needle =
          let built = mini_built items1 in
          let p =
            List.find
              (fun (p : Template.Generator.page) ->
                contains ~needle (Oid.name p.Template.Generator.obj))
              built.Strudel.Site.site.Template.Generator.pages
          in
          "/" ^ p.Template.Generator.url
        in
        let u1 = url_of "x1" and u2 = url_of "x2" in
        let etag r = Option.get (header r "etag") in
        let r1 = get e u1 and r2 = get e u2 in
        (* x2's name changes; x1 is untouched *)
        Mediator.Source.update s (fun () ->
            mini_graph [ ("x1", "one"); ("x2", "TWO") ]);
        check_bool "refreshed" true (Engine.refresh e);
        let r1' = get e u1 in
        check_int "still 200" 200 (status_of r1');
        check_string "unchanged page keeps its tag" (etag r1) (etag r1');
        check_string "unchanged page keeps its bytes" (body_of r1)
          (body_of r1');
        let r2' = get e u2 in
        check_bool "changed page gets a new tag" true (etag r2 <> etag r2');
        check_bool "new bytes served" true
          (contains ~needle:"TWO" (body_of r2'));
        check_int "the old tag no longer revalidates" 200
          (status_of (get e ~headers:[ ("if-none-match", etag r2) ] u2)));
    t "no request ever observes a half-refreshed epoch (concurrent hammer)"
      (fun () ->
        let items_of ep =
          [ ("x1", "one"); ("x2", "v" ^ string_of_int ep) ]
        in
        (* the oracle: root-page bytes for each epoch's data, computed
           from independent full builds before the daemon exists *)
        let expected =
          Array.init 5 (fun i ->
              if i = 0 then ""
              else
                let built = mini_built (items_of i) in
                let root =
                  List.find
                    (fun (p : Template.Generator.page) ->
                      contains ~needle:"RootPage"
                        (Oid.name p.Template.Generator.obj))
                    built.Strudel.Site.site.Template.Generator.pages
                in
                root.Template.Generator.html)
        in
        let s, w = mini_warehouse (items_of 1) in
        let e = Engine.create ~source:(Engine.Federated w) mini_def in
        let stop = Atomic.make false in
        let bad = Atomic.make 0 in
        let seen = Atomic.make 0 in
        let hammer =
          Domain.spawn (fun () ->
              while not (Atomic.get stop) do
                let resp = get e "/" in
                let ep =
                  int_of_string (Option.get (header resp "x-strudel-epoch"))
                in
                Atomic.incr seen;
                if body_of resp <> expected.(ep) then Atomic.incr bad
              done)
        in
        for ep = 2 to 4 do
          Mediator.Source.update s (fun () -> mini_graph (items_of ep));
          check_bool "refreshed" true (Engine.refresh e);
          Unix.sleepf 0.01
        done;
        Atomic.set stop true;
        Domain.join hammer;
        check_int "no mixed-epoch responses" 0 (Atomic.get bad);
        check_bool "hammer actually ran" true (Atomic.get seen > 0);
        check_int "final epoch" 4 (Engine.epoch e));
    t "quarantined source degrades its refresh, never the process"
      (fun () ->
        let items = [ ("x1", "one") ] in
        let s =
          Mediator.Source.make ~name:"a"
            ~policy:(Fault.Policy.skip_source ~retry:Fault.Policy.no_retry ())
            (fun () -> mini_graph items)
        in
        let w =
          Mediator.Warehouse.create ~fault:(Fault.ctx ()) ~sources:[ s ]
            ~mappings:
              [ Mediator.Gav.copy_collection ~source:"a" ~collection:"As" () ]
            ()
        in
        let e = Engine.create ~source:(Engine.Federated w) mini_def in
        check_int "item served" 200
          (status_of (get e "/"));
        (* the next export is broken: the load fails and the policy
           quarantines the source *)
        Mediator.Source.update s (fun () -> failwith "db down");
        ignore (Engine.refresh e);
        check_bool "degraded" true (Engine.degraded e);
        let hz = get e "/healthz" in
        check_bool "healthz reports the source" true
          (contains ~needle:"\"a\"" (body_of hz));
        check_bool "healthz degraded" true
          (contains ~needle:"\"status\":\"degraded\"" (body_of hz));
        (* the site still answers *)
        check_int "root still serves" 200 (status_of (get e "/")));
  ]

let daemon_tests =
  [
    t "serves keep-alive requests on synthetic conns, drains clean"
      (fun () ->
        let sc = mk_conn (get_wire "/a" ^ get_wire "/b") in
        let listener, closed = mk_listener [ sc.conn ] in
        let d = Daemon.create ~handler:ok_handler () in
        let srv = Domain.spawn (fun () -> Daemon.serve d listener) in
        await "both responses" (fun () ->
            (Daemon.stats d).Daemon.d_served >= 2);
        Daemon.stop d;
        Domain.join srv;
        check_int "exit 0" 0 (Daemon.exit_code d);
        check_bool "listener closed" true !closed;
        check_int "served" 2 (Daemon.stats d).Daemon.d_served;
        let out = output sc in
        check_bool "two 200s" true
          (contains ~needle:"HTTP/1.1 200" out
           && contains ~needle:"ok\n" out));
    t "overload sheds with 503 + retry-after past max-inflight" (fun () ->
        let wait, release, entered = mk_latch () in
        let handler ~worker:_ _req =
          wait ();
          Http.response ~status:200 "late\n"
        in
        let a = mk_conn (get_wire "/a") in
        let b = mk_conn (get_wire "/b") in
        let listener, _ = mk_listener [ a.conn; b.conn ] in
        let config =
          { Daemon.default_config with workers = 1; max_inflight = 1 }
        in
        let d = Daemon.create ~config ~handler () in
        let srv = Domain.spawn (fun () -> Daemon.serve d listener) in
        await "A in flight" entered;
        await "B shed" (fun () -> (Daemon.stats d).Daemon.d_shed >= 1);
        let bout = output b in
        check_bool "503" true (contains ~needle:"HTTP/1.1 503" bout);
        check_bool "retry-after" true (contains ~needle:"Retry-After: 1" bout);
        check_bool "closes" true (contains ~needle:"Connection: close" bout);
        release ();
        await "A served" (fun () -> (Daemon.stats d).Daemon.d_served >= 1);
        Daemon.stop d;
        Domain.join srv;
        check_bool "A answered after the shed" true
          (contains ~needle:"late" (output a));
        check_int "exit 0" 0 (Daemon.exit_code d));
    t "request deadline: overrun answer becomes 503 (virtual clock)"
      (fun () ->
        let clock, _ = Fault.Clock.virtual_ () in
        let handler ~worker:_ _req =
          clock.Fault.Clock.sleep_ms 6_000.;
          Http.response ~status:200 "slow\n"
        in
        let sc = mk_conn (get_wire "/slow") in
        let listener, _ = mk_listener [ sc.conn ] in
        let config =
          { Daemon.default_config with workers = 1; deadline_ms = 5_000.;
            clock }
        in
        let d = Daemon.create ~config ~handler () in
        let srv = Domain.spawn (fun () -> Daemon.serve d listener) in
        await "deadline hit" (fun () ->
            (Daemon.stats d).Daemon.d_deadlines >= 1);
        Daemon.stop d;
        Domain.join srv;
        let out = output sc in
        check_bool "503 deadline" true
          (contains ~needle:"HTTP/1.1 503" out
           && contains ~needle:"deadline exceeded" out);
        check_bool "slow body suppressed" false (contains ~needle:"slow" out));
    t "slow client: read timeout answers 408 and is counted" (fun () ->
        let sc = mk_conn ~mode:`Read_times_out "" in
        let listener, _ = mk_listener [ sc.conn ] in
        let d = Daemon.create ~handler:ok_handler () in
        let srv = Domain.spawn (fun () -> Daemon.serve d listener) in
        await "timeout counted" (fun () ->
            (Daemon.stats d).Daemon.d_timeouts >= 1);
        Daemon.stop d;
        Domain.join srv;
        check_bool "408 written" true
          (contains ~needle:"HTTP/1.1 408" (output sc));
        check_int "exit 0" 0 (Daemon.exit_code d));
    t "vanished client (EPIPE) is a counted outcome; the next conn serves"
      (fun () ->
        let gone = mk_conn ~mode:`Write_fails (get_wire "/a") in
        let fine = mk_conn (get_wire "/b") in
        let listener, _ = mk_listener [ gone.conn; fine.conn ] in
        let config = { Daemon.default_config with workers = 1 } in
        let d = Daemon.create ~config ~handler:ok_handler () in
        let srv = Domain.spawn (fun () -> Daemon.serve d listener) in
        await "abort counted" (fun () ->
            (Daemon.stats d).Daemon.d_client_aborts >= 1);
        await "next conn served" (fun () ->
            (Daemon.stats d).Daemon.d_served >= 1);
        Daemon.stop d;
        Domain.join srv;
        check_bool "b got its answer" true
          (contains ~needle:"HTTP/1.1 200" (output fine));
        check_int "exit 0, aborts are not failures" 0 (Daemon.exit_code d));
    t "SIGTERM drain: in-flight completes, new conns unserved, exit 0"
      (fun () ->
        let wait, release, entered = mk_latch () in
        let handler ~worker:_ _req =
          wait ();
          Http.response ~status:200 "finished\n"
        in
        let inflight = mk_conn (get_wire "/work") in
        let late = mk_conn (get_wire "/late") in
        let listener, closed = mk_listener [ inflight.conn ] in
        let d = Daemon.create ~handler () in
        Daemon.install_signal_handlers d;
        let srv = Domain.spawn (fun () -> Daemon.serve d listener) in
        await "request in flight" entered;
        Unix.kill (Unix.getpid ()) Sys.sigterm;
        await "drain begins" (fun () -> Daemon.stopping d);
        await "listener closed" (fun () -> !closed);
        (* a connection arriving now is never accepted *)
        ignore late;
        release ();
        Domain.join srv;
        Sys.set_signal Sys.sigterm Sys.Signal_default;
        Sys.set_signal Sys.sigint Sys.Signal_default;
        check_bool "in-flight completed" true
          (contains ~needle:"finished" (output inflight));
        check_string "late conn untouched" "" (output late);
        check_int "clean exit" 0 (Daemon.exit_code d);
        check_int "nothing aborted" 0
          (Daemon.stats d).Daemon.d_aborted_inflight);
    t "drain deadline 0: in-flight is force-closed, exit 4" (fun () ->
        let wait, release, entered = mk_latch () in
        let handler ~worker:_ _req =
          wait ();
          Http.response ~status:200 "too late\n"
        in
        let sc = mk_conn (get_wire "/stuck") in
        let listener, _ = mk_listener [ sc.conn ] in
        let config =
          { Daemon.default_config with workers = 1; drain_deadline_ms = 0. }
        in
        let d = Daemon.create ~config ~handler () in
        let srv = Domain.spawn (fun () -> Daemon.serve d listener) in
        await "in flight" entered;
        Daemon.stop d;
        await "force-closed" (fun () ->
            (Daemon.stats d).Daemon.d_aborted_inflight >= 1);
        check_bool "conn closed under the worker" true !(sc.sc_closed);
        release ();
        Domain.join srv;
        check_int "exit 4" 4 (Daemon.exit_code d));
    t "degraded drain exits 3" (fun () ->
        let sc = mk_conn (get_wire "/a") in
        let listener, _ = mk_listener [ sc.conn ] in
        let d =
          Daemon.create ~degraded:(fun () -> true) ~handler:ok_handler ()
        in
        let srv = Domain.spawn (fun () -> Daemon.serve d listener) in
        await "served" (fun () -> (Daemon.stats d).Daemon.d_served >= 1);
        Daemon.stop d;
        Domain.join srv;
        check_int "exit 3" 3 (Daemon.exit_code d));
    t "real TCP smoke: ephemeral port, one request, drain" (fun () ->
        let e =
          Engine.create
            ~source:(Engine.Static (Sites.Paper_example.data ()))
            Sites.Paper_example.definition
        in
        let config = { Daemon.default_config with workers = 2 } in
        let d =
          Daemon.create ~config
            ~handler:(fun ~worker:_ req -> Engine.handle e req)
            ()
        in
        let listener, port =
          Daemon.tcp_listener ~tick_ms:20. ~host:"127.0.0.1" ~port:0 ()
        in
        let srv = Domain.spawn (fun () -> Daemon.serve d listener) in
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd
          (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
        let wire = "GET /healthz HTTP/1.1\r\nhost: t\r\nConnection: close\r\n\r\n" in
        ignore (Unix.write_substring fd wire 0 (String.length wire));
        let buf = Buffer.create 256 in
        let b = Bytes.create 4096 in
        let rec slurp () =
          match Unix.read fd b 0 4096 with
          | 0 -> ()
          | n ->
            Buffer.add_subbytes buf b 0 n;
            slurp ()
          | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
        in
        slurp ();
        Unix.close fd;
        let got = Buffer.contents buf in
        check_bool "200 over the wire" true (contains ~needle:"HTTP/1.1 200" got);
        check_bool "health body" true (contains ~needle:"\"status\"" got);
        Daemon.stop d;
        Domain.join srv;
        check_int "clean exit" 0 (Daemon.exit_code d));
  ]

let suite =
  http_tests @ gate_tests @ engine_static_tests
  @ engine_epoch_tests @ daemon_tests
