(** The serving engine (see the interface). *)

module Generator = Template.Generator
module Warehouse = Mediator.Warehouse
module Pages = Map.Make (String)

type source =
  | Static of Sgraph.Graph.t
  | Federated of Warehouse.t

type page = { html : string; etag : string; placeholder : bool }

(* One installed epoch: the published pages by URL.  The map is
   persistent, so an installed epoch never changes while the next
   cycle fills the pending one, and worker domains read it without
   locks. *)
type epoch_state = {
  ep_epoch : int;
  ep_pages : page Pages.t;
  ep_root : string;  (* url "/" resolves to *)
}

type t = {
  def : Strudel.Site.definition;
  session : (Watch.t * Warehouse.t) option;  (* federated sources only *)
  fault : Fault.ctx;
  pending : page Pages.t ref;
      (* the sink's map: the next epoch's pages; touched only by
         [create] and by [refresh] under [swap_m] *)
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
     and the refresh mutex *)
  ds_current : int;
  ds_draining : int;
  ds_swap_m : int;
}

(* --- Epoch production --- *)

let sink pending =
  {
    Strudel.Render_pool.sk_emit =
      (fun (p : Generator.page) ->
        let html = p.Generator.html in
        pending :=
          Pages.add p.Generator.url
            { html;
              etag = "\"" ^ Digest.to_hex (Digest.string html) ^ "\"";
              placeholder = Generator.is_placeholder p }
            !pending);
    sk_reset = (fun () -> pending := Pages.empty);
  }

let warehouse t = Option.map snd t.session

(* The session's pages come out in discovery order: the first is the
   first root's. *)
let session_root s =
  match (Watch.built s).Strudel.Site.site.Generator.pages with
  | p :: _ -> p.Generator.url
  | [] -> ""

let create ?fault ~source def =
  let fault = match fault with Some c -> c | None -> Fault.ctx () in
  let pending = ref Pages.empty in
  let sink = sink pending in
  (* a static source never changes, so it is built once and keeps no
     session *)
  let session, epoch, root =
    match source with
    | Static data ->
      let b =
        Strudel.Site.build ~on_error:Fault.Degrade ~fault ~sink ~data def
      in
      (* the first page always keeps its slug *)
      let roots = Strudel.Site.build_roots b.Strudel.Site.site_graph def in
      (None, 1, Generator.slug_url (List.hd roots))
    | Federated w ->
      let s =
        Watch.create ~on_error:Fault.Degrade ~fault ~sink
          ~source:(Watch.Mediated w) def
      in
      (Some (s, w), Warehouse.view_epoch (Warehouse.pin w), session_root s)
  in
  let t =
    {
      def;
      session;
      fault;
      pending;
      swap_m = Mutex.create ();
      current =
        Atomic.make { ep_epoch = epoch; ep_pages = !pending; ep_root = root };
      draining = Atomic.make false;
      c_requests = Atomic.make 0;
      c_page_ok = Atomic.make 0;
      c_not_modified = Atomic.make 0;
      c_not_found = Atomic.make 0;
      c_unavailable = Atomic.make 0;
      c_rejected = Atomic.make 0;
      ds_current = Dsan.atomic_id ~name:"Engine.current";
      ds_draining = Dsan.atomic_id ~name:"Engine.draining";
      ds_swap_m = Dsan.lock_id ~name:"Engine.swap_m";
    }
  in
  (* the first epoch's renders happen before any worker exists, but
     record the publication anyway so consumers are ordered after them
     regardless of who spawned whom *)
  Dsan.publish ~site:__POS__ t.ds_current;
  t

(* --- Introspection --- *)

let epoch t =
  Dsan.consume ~site:__POS__ t.ds_current;
  (Atomic.get t.current).ep_epoch

let page_count t =
  Dsan.consume ~site:__POS__ t.ds_current;
  Pages.cardinal (Atomic.get t.current).ep_pages

let set_draining t b =
  Dsan.publish ~site:__POS__ t.ds_draining;
  Atomic.set t.draining b

let quarantined t =
  match warehouse t with
  | None -> []
  | Some w ->
    List.filter_map
      (fun ss ->
        match ss.Warehouse.ss_outcome with
        | Warehouse.Quarantined reason -> Some (ss.Warehouse.ss_source, reason)
        | Warehouse.Changed | Warehouse.Unchanged -> None)
      (Warehouse.last_refresh w)

let degraded t =
  quarantined t <> []
  || Atomic.get t.c_unavailable > 0
  || Fault.fault_count t.fault > 0

let all_faults t =
  let wh = match warehouse t with None -> [] | Some w -> Warehouse.faults w in
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

let not_found t ep url =
  Atomic.incr t.c_not_found;
  Http.response ~headers:(epoch_header ep :: html_headers) ~status:404
    (Printf.sprintf
       "<html><head><title>404</title></head><body><h1>404 Not \
        Found</h1><p>No page <code>%s</code> in epoch %d.</p></body></html>\n"
       url ep.ep_epoch)

(* A degraded answer: the page's render failed, the rest of the site
   keeps serving.  The body is the fault manifest so the operator sees
   *why* from the response alone. *)
let unavailable t ep =
  Atomic.incr t.c_unavailable;
  Http.response
    ~headers:
      (epoch_header ep
       :: ("Retry-After", "1")
       :: ("X-Strudel-Degraded", "render-failed")
       :: json_headers)
    ~status:503 (manifest_json t)

let healthz t ep =
  let body =
    Printf.sprintf
      "{\"status\":%s,\"site\":%s,\"epoch\":%d,\"pages\":%d,\"requests\":%d,\
       \"faults\":%d,\"quarantined\":%s}\n"
      (json_str (if degraded t then "degraded" else "ok"))
      (json_str t.def.Strudel.Site.name)
      ep.ep_epoch
      (Pages.cardinal ep.ep_pages)
      (Atomic.get t.c_requests)
      (List.length (all_faults t))
      (json_list (List.map (fun (s, _) -> json_str s) (quarantined t)))
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

let etag_matches req tag =
  match Http.header req "if-none-match" with
  | None -> false
  | Some v ->
    String.split_on_char ',' v
    |> List.exists (fun c -> let c = String.trim c in c = tag || c = "*")

let serve_page t ep req url =
  match Pages.find_opt url ep.ep_pages with
  | None -> not_found t ep url
  | Some p when p.placeholder -> unavailable t ep
  | Some p when etag_matches req p.etag ->
    Atomic.incr t.c_not_modified;
    Http.response
      ~headers:(epoch_header ep :: ("ETag", p.etag) :: html_headers)
      ~status:304 ""
  | Some p ->
    Atomic.incr t.c_page_ok;
    Http.response
      ~headers:
        (epoch_header ep :: ("ETag", p.etag)
         :: ("Cache-Control", "no-cache") :: html_headers)
      ~status:200 p.html

let handle t req =
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
    | "/" | "" -> serve_page t ep req ep.ep_root
    | path ->
      serve_page t ep req (String.sub path 1 (String.length path - 1))
  end

(* --- Epoch pickup --- *)

let refresh t =
  match t.session with
  | None -> false
  | Some (s, w) ->
    Mutex.lock t.swap_m;
    Dsan.acquire ~site:__POS__ t.ds_swap_m;
    Fun.protect
      ~finally:(fun () ->
        Dsan.release ~site:__POS__ t.ds_swap_m;
        Mutex.unlock t.swap_m)
      (fun () ->
        match Watch.cycle s with
        | exception e ->
          Fault.record t.fault
            (Fault.report ~stage:Fault.Integrate
               ~source:t.def.Strudel.Site.name ~location:"refresh"
               ~cause:(Printexc.to_string e) ());
          (* drop what the failed cycle emitted; a session whose table
             was cleared re-emits everything after a reset *)
          t.pending := (Atomic.get t.current).ep_pages;
          false
        | r ->
          (* the cycle filled the pending map off to the side; one
             atomic swap installs it: in-flight requests keep their
             pinned epoch, later ones get the new one — never a mix *)
          if r.Watch.cy_changed then begin
            Dsan.publish ~site:__POS__ t.ds_current;
            Atomic.set t.current
              { ep_epoch = Warehouse.view_epoch (Warehouse.pin w);
                ep_pages = !(t.pending);
                ep_root = session_root s }
          end;
          r.Watch.cy_changed)
