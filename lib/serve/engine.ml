(** The serving engine (see the interface). *)

open Sgraph
module CT = Strudel.Materialize.Click_time
module Generator = Template.Generator
module Warehouse = Mediator.Warehouse

type source =
  | Static of Graph.t
  | Federated of Warehouse.t

(* One installed epoch: the site graph a cold build of the pinned data
   evaluates, plus its route table.  After [build_epoch]
   returns nothing here mutates, so worker domains read it without
   locks; ETag memoization is the one mutable corner and takes its own
   mutex. *)
type epoch_state = {
  ep_epoch : int;
  ep_graph : Graph.t;
  ep_routes : (string, Oid.t) Hashtbl.t;  (* page url -> page object *)
  ep_root : string;                       (* url "/" resolves to *)
  ep_etag_m : Mutex.t;
  ep_etags : (string, string) Hashtbl.t;  (* page url -> strong ETag *)
  (* sanitizer identities: field 0 = [ep_etags], the one mutable corner *)
  ds_ep_obj : int;
  ds_ep_m : int;
}

type t = {
  def : Strudel.Site.definition;
  warehouse : Warehouse.t option;
  fault : Fault.ctx;
  injector : Fault.Inject.t option;
  cache : Strudel.Render_cache.t option;
  cache_m : Mutex.t;
  compiled : Generator.compiled array;  (* one slot per serving worker *)
  brk : Breaker.t;
  swap_m : Mutex.t;  (* serializes refreshes, not requests *)
  current : epoch_state Atomic.t;
  draining : bool Atomic.t;
      (* atomic: set by the daemon's shutdown path while serving
         workers read it in [readyz] *)
  c_requests : int Atomic.t;
  c_page_ok : int Atomic.t;
  c_not_modified : int Atomic.t;
  c_not_found : int Atomic.t;
  c_unavailable : int Atomic.t;
  c_rejected : int Atomic.t;
  (* sanitizer identities for the release/acquire publication points
     and the two engine-level mutexes *)
  ds_current : int;
  ds_draining : int;
  ds_cache_m : int;
  ds_swap_m : int;
}

(* --- Epoch construction --- *)

let page_url o = Generator.slug (Oid.name o) ^ ".html"

(* Routes: every node reachable from the root family over node targets,
   in breadth-first order from the roots; the first node to claim a URL
   keeps it. *)
let build_epoch def ~epoch data =
  let g, _, _, _ = Strudel.Site.build_site_graph def data in
  let roots = Strudel.Site.roots_of g def.Strudel.Site.root_family in
  let routes = Hashtbl.create 64 in
  let visited = Oid.Tbl.create 64 in
  let queue = Queue.create () in
  List.iter (fun o -> Queue.add o queue) roots;
  while not (Queue.is_empty queue) do
    let o = Queue.pop queue in
    if not (Oid.Tbl.mem visited o) then begin
      Oid.Tbl.add visited o ();
      let url = page_url o in
      if not (Hashtbl.mem routes url) then Hashtbl.add routes url o;
      List.iter
        (fun (_, tgt) ->
          match tgt with
          | Graph.N n -> Queue.add n queue
          | Graph.V _ -> ())
        (Graph.out_edges g o)
    end
  done;
  let root = match roots with o :: _ -> page_url o | [] -> "" in
  { ep_epoch = epoch; ep_graph = g; ep_routes = routes; ep_root = root;
    ep_etag_m = Mutex.create (); ep_etags = Hashtbl.create 64;
    ds_ep_obj = Dsan.alloc ~name:"Engine.epoch";
    ds_ep_m = Dsan.lock_id ~name:"Engine.ep_etag_m" }

let create ?(clock = Fault.Clock.real) ?(cache = true) ?(workers = 8)
    ?breaker_threshold ?breaker_retry ?fault ~source def =
  let fault = match fault with Some c -> c | None -> Fault.ctx () in
  let warehouse, epoch, data =
    match source with
    | Static g -> (None, 1, g)
    | Federated w ->
      let view = Warehouse.pin w in
      (Some w, Warehouse.view_epoch view, Warehouse.view_graph view)
  in
  let cache =
    if not cache then None
    else begin
      let c = Strudel.Render_cache.create () in
      Strudel.Render_cache.set_templates c def.Strudel.Site.templates;
      Some c
    end
  in
  let t =
  {
    def;
    warehouse;
    fault;
    injector = Fault.inject (Some fault);
    cache;
    cache_m = Mutex.create ();
    compiled =
      Array.init (max 1 workers) (fun _ -> Generator.new_compiled ());
    brk = Breaker.create ?threshold:breaker_threshold ?retry:breaker_retry
        ~clock ();
    swap_m = Mutex.create ();
    current = Atomic.make (build_epoch def ~epoch data);
    draining = Atomic.make false;
    c_requests = Atomic.make 0;
    c_page_ok = Atomic.make 0;
    c_not_modified = Atomic.make 0;
    c_not_found = Atomic.make 0;
    c_unavailable = Atomic.make 0;
    c_rejected = Atomic.make 0;
    ds_current = Dsan.atomic_id ~name:"Engine.current";
    ds_draining = Dsan.atomic_id ~name:"Engine.draining";
    ds_cache_m = Dsan.lock_id ~name:"Engine.cache_m";
    ds_swap_m = Dsan.lock_id ~name:"Engine.swap_m";
  }
  in
  (* the initial epoch's graph writes (its evaluation) happen before any
     worker exists, but record the publication anyway so consumers are
     ordered after them regardless of who spawned whom *)
  Dsan.publish ~site:__POS__ t.ds_current;
  t

(* --- Introspection --- *)

let epoch t =
  Dsan.consume ~site:__POS__ t.ds_current;
  (Atomic.get t.current).ep_epoch

let page_count t =
  Dsan.consume ~site:__POS__ t.ds_current;
  Hashtbl.length (Atomic.get t.current).ep_routes

let set_draining t b =
  Dsan.publish ~site:__POS__ t.ds_draining;
  Atomic.set t.draining b
let breaker t = t.brk

(* Under [cache_m]: [/healthz] runs on serving workers while other
   workers mutate the statistics inside [find_valid] — an unlocked read
   here is a data race (found by the sanitizer, kept fixed by it). *)
let cache_stats t =
  Option.map
    (fun c ->
      Mutex.lock t.cache_m;
      Dsan.acquire ~site:__POS__ t.ds_cache_m;
      let s = Strudel.Render_cache.stats c in
      Dsan.release ~site:__POS__ t.ds_cache_m;
      Mutex.unlock t.cache_m;
      s)
    t.cache

let quarantined t =
  match t.warehouse with
  | None -> []
  | Some w ->
    List.filter_map
      (fun ss ->
        match ss.Warehouse.ss_outcome with
        | Warehouse.Quarantined reason -> Some (ss.Warehouse.ss_source, reason)
        | Warehouse.Changed | Warehouse.Unchanged -> None)
      (Warehouse.last_refresh w)

let degraded t =
  Breaker.open_keys t.brk <> []
  || quarantined t <> []
  || Atomic.get t.c_unavailable > 0
  || Fault.fault_count t.fault > 0

let all_faults t =
  let wh = match t.warehouse with None -> [] | Some w -> Warehouse.faults w in
  wh @ Fault.reports t.fault

let manifest_json t =
  Fault.Manifest.to_json
    (Fault.Manifest.make ~site:t.def.Strudel.Site.name (all_faults t))

type counters = {
  sc_requests : int;
  sc_page_ok : int;
  sc_not_modified : int;
  sc_not_found : int;
  sc_unavailable : int;
  sc_rejected : int;
}

let counters t =
  {
    sc_requests = Atomic.get t.c_requests;
    sc_page_ok = Atomic.get t.c_page_ok;
    sc_not_modified = Atomic.get t.c_not_modified;
    sc_not_found = Atomic.get t.c_not_found;
    sc_unavailable = Atomic.get t.c_unavailable;
    sc_rejected = Atomic.get t.c_rejected;
  }

(* --- Small JSON emission for the operational endpoints --- *)

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_list items = "[" ^ String.concat "," items ^ "]"

(* --- Responses --- *)

let html_headers = [ ("Content-Type", "text/html; charset=utf-8") ]
let json_headers = [ ("Content-Type", "application/json") ]

let epoch_header ep = ("X-Strudel-Epoch", string_of_int ep.ep_epoch)

let retry_after_of_ms ms =
  string_of_int (max 1 (int_of_float (ceil (ms /. 1000.))))

let not_found t ep url =
  Atomic.incr t.c_not_found;
  Http.response ~headers:(epoch_header ep :: html_headers) ~status:404
    (Printf.sprintf
       "<html><head><title>404</title></head><body><h1>404 Not \
        Found</h1><p>No page <code>%s</code> in epoch %d.</p></body></html>\n"
       url ep.ep_epoch)

(* A degraded answer: the page (or its source) is broken, the rest of
   the site keeps serving.  The body is the fault manifest so the
   operator sees *why* from the response alone. *)
let unavailable t ep ~retry_after_s ~kind =
  Atomic.incr t.c_unavailable;
  Http.response
    ~headers:
      (epoch_header ep
       :: ("Retry-After", retry_after_s)
       :: ("X-Strudel-Degraded", kind)
       :: json_headers)
    ~status:503 (manifest_json t)

let healthz t ep =
  let open_keys = Breaker.open_keys t.brk in
  let quarantined = quarantined t in
  let degraded = degraded t in
  let cache =
    match cache_stats t with
    | None -> "null"
    | Some (h, m, i) ->
      Printf.sprintf "{\"hits\":%d,\"misses\":%d,\"invalidations\":%d}" h m i
  in
  let body =
    Printf.sprintf
      "{\"status\":%s,\"site\":%s,\"epoch\":%d,\"pages\":%d,\"requests\":%d,\
       \"faults\":%d,\"open_breakers\":%s,\"quarantined\":%s,\"cache\":%s}\n"
      (json_str (if degraded then "degraded" else "ok"))
      (json_str t.def.Strudel.Site.name)
      ep.ep_epoch
      (Hashtbl.length ep.ep_routes)
      (Atomic.get t.c_requests)
      (List.length (all_faults t))
      (json_list (List.map json_str open_keys))
      (json_list
         (List.map (fun (s, _) -> json_str s) quarantined))
      cache
  in
  Http.response ~headers:(epoch_header ep :: json_headers) ~status:200 body

let readyz t ep =
  Dsan.consume ~site:__POS__ t.ds_draining;
  if Atomic.get t.draining then
    Http.response ~headers:(epoch_header ep :: json_headers) ~status:503
      "{\"ready\":false,\"reason\":\"draining\"}\n"
  else
    Http.response ~headers:(epoch_header ep :: json_headers) ~status:200
      (Printf.sprintf "{\"ready\":true,\"epoch\":%d}\n" ep.ep_epoch)

(* --- Page serving --- *)

let etag_of ep url html =
  Mutex.lock ep.ep_etag_m;
  Dsan.acquire ~site:__POS__ ep.ds_ep_m;
  Dsan.write ~site:__POS__ ep.ds_ep_obj 0;
  let tag =
    match Hashtbl.find_opt ep.ep_etags url with
    | Some tag -> tag
    | None ->
      let tag = "\"" ^ Digest.to_hex (Digest.string html) ^ "\"" in
      Hashtbl.add ep.ep_etags url tag;
      tag
  in
  Dsan.release ~site:__POS__ ep.ds_ep_m;
  Mutex.unlock ep.ep_etag_m;
  tag

let etag_matches req tag =
  match Http.header req "if-none-match" with
  | None -> false
  | Some v ->
    String.split_on_char ',' v
    |> List.exists (fun c -> let c = String.trim c in c = tag || c = "*")

let cache_find t ep o =
  match t.cache with
  | None -> None
  | Some c ->
    Mutex.lock t.cache_m;
    Dsan.acquire ~site:__POS__ t.ds_cache_m;
    let e = Strudel.Render_cache.find_valid c ep.ep_graph o in
    Dsan.release ~site:__POS__ t.ds_cache_m;
    Mutex.unlock t.cache_m;
    e

let cache_store t rendered =
  match t.cache with
  | None -> ()
  | Some c ->
    Mutex.lock t.cache_m;
    Dsan.acquire ~site:__POS__ t.ds_cache_m;
    Strudel.Render_cache.store c rendered;
    Dsan.release ~site:__POS__ t.ds_cache_m;
    Mutex.unlock t.cache_m

let render t ep ~worker o =
  let compiled = t.compiled.(worker mod Array.length t.compiled) in
  match Fault.Inject.fire t.injector (Fault.Inject.Render_page (Oid.name o)) with
  | exception Fault.Inject.Injected msg ->
    Error (CT.Render_failed ("injected fault: " ^ msg))
  | () ->
    CT.guarded (fun () ->
        Generator.render_page_full ~templates:t.def.Strudel.Site.templates
          ~compiled ~trace_reads:(t.cache <> None) ep.ep_graph o)

let page_response t ep req url html =
  let tag = etag_of ep url html in
  if etag_matches req tag then begin
    Atomic.incr t.c_not_modified;
    Http.response
      ~headers:(epoch_header ep :: ("ETag", tag) :: html_headers)
      ~status:304 ""
  end
  else begin
    Atomic.incr t.c_page_ok;
    Http.response
      ~headers:
        (epoch_header ep :: ("ETag", tag)
         :: ("Cache-Control", "no-cache") :: html_headers)
      ~status:200 html
  end

let serve_page t ep ~worker req url =
  match Hashtbl.find_opt ep.ep_routes url with
  | None -> not_found t ep url
  | Some o -> begin
    let key = "page:" ^ url in
    match Breaker.check t.brk key with
    | Breaker.Reject remaining_ms ->
      unavailable t ep ~retry_after_s:(retry_after_of_ms remaining_ms)
        ~kind:"page-breaker-open"
    | Breaker.Proceed -> begin
      match cache_find t ep o with
      | Some e ->
        Breaker.success t.brk key;
        page_response t ep req url e.Strudel.Render_cache.e_html
      | None -> begin
        match render t ep ~worker o with
        | Ok r ->
          Breaker.success t.brk key;
          cache_store t r;
          page_response t ep req url r.Generator.r_page.Generator.html
        | Error (CT.Unknown_object _) -> not_found t ep url
        | Error (CT.Render_failed cause) ->
          Fault.record t.fault
            (Fault.report ~stage:Fault.Render
               ~source:t.def.Strudel.Site.name ~location:url ~cause ());
          Breaker.failure t.brk key;
          unavailable t ep ~retry_after_s:"1" ~kind:"render-failed"
      end
    end
  end

let handle ?(worker = 0) t req =
  Atomic.incr t.c_requests;
  Dsan.consume ~site:__POS__ t.ds_current;
  let ep = Atomic.get t.current in
  match req.Http.meth with
  | Http.POST | Http.Other _ ->
    Atomic.incr t.c_rejected;
    Http.response
      ~headers:[ ("Allow", "GET, HEAD"); epoch_header ep ]
      ~status:405 "method not allowed\n"
  | Http.GET | Http.HEAD -> begin
    match req.Http.path with
    | "/healthz" -> healthz t ep
    | "/readyz" -> readyz t ep
    | "/faultz" ->
      Http.response ~headers:(epoch_header ep :: json_headers) ~status:200
        (manifest_json t)
    | "/" | "" ->
      if ep.ep_root = "" then not_found t ep "/"
      else serve_page t ep ~worker req ep.ep_root
    | path ->
      serve_page t ep ~worker req (String.sub path 1 (String.length path - 1))
  end

(* --- Epoch pickup --- *)

let feed_source_breakers t w =
  List.iter
    (fun ss ->
      let key = "source:" ^ ss.Warehouse.ss_source in
      match ss.Warehouse.ss_outcome with
      | Warehouse.Quarantined _ -> Breaker.failure t.brk key
      | Warehouse.Changed | Warehouse.Unchanged -> Breaker.success t.brk key)
    (Warehouse.last_refresh w)

let refresh ?jobs t =
  match t.warehouse with
  | None -> false
  | Some w ->
    Mutex.lock t.swap_m;
    Dsan.acquire ~site:__POS__ t.ds_swap_m;
    Fun.protect
      ~finally:(fun () ->
        Dsan.release ~site:__POS__ t.ds_swap_m;
        Mutex.unlock t.swap_m)
      (fun () ->
        match Warehouse.refresh ?jobs w with
        | exception e ->
          Fault.record t.fault
            (Fault.report ~stage:Fault.Integrate
               ~source:t.def.Strudel.Site.name ~location:"refresh"
               ~cause:(Printexc.to_string e) ());
          false
        | changed ->
          feed_source_breakers t w;
          if changed then begin
            (* Build the whole next epoch off to the side, then one
               atomic swap: in-flight requests keep their pinned epoch,
               later ones get the new one — never a mix. *)
            let view = Warehouse.pin w in
            let ep =
              build_epoch t.def ~epoch:(Warehouse.view_epoch view)
                (Warehouse.view_graph view)
            in
            Dsan.publish ~site:__POS__ t.ds_current;
            Atomic.set t.current ep
          end;
          changed)
