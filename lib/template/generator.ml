(** The HTML generator (§2.5, §4).

    Produces the browsable Web site from a site graph and a set of HTML
    templates.  For every internal object the generator selects a
    template: (1) an object-specific template, (2) the value of the
    object's [HTML-template] attribute, or (3) the template associated
    with a collection the object belongs to; objects with none get a
    generic property-sheet rendering.

    The choice to realize internal objects as pages or as page
    components is delayed until generation: an object referenced with
    the default format becomes a separate page (and a link to it is
    emitted); the [EMBED] directive embeds the object's HTML value in
    the referencing page instead. *)

open Sgraph

exception Generator_error of string

type template_set = {
  by_object : (string * string) list;
      (** object name → template text (object-specific templates) *)
  by_collection : (string * string) list;
      (** collection name → template text *)
  named : (string * string) list;
      (** template name → text, for the [HTML-template] attribute *)
}

let empty_templates = { by_object = []; by_collection = []; named = [] }

type page = {
  obj : Oid.t;
  url : string;
  title : string;
  html : string;  (** full page, wrapped *)
  body : string;  (** the template's output alone *)
}

type site = {
  pages : page list;
  graph : Graph.t;
}

(* --- URL assignment --- *)

let slug name =
  let buf = Buffer.create (String.length name) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' ->
        Buffer.add_char buf c
      | ' ' | '.' | '/' -> Buffer.add_char buf '_'
      | _ -> ())
    name;
  let s = Buffer.contents buf in
  if s = "" then "page" else s

let slug_url o = slug (Oid.name o) ^ ".html"

(* --- Read tracing (render-cache support) ---

   A page's bytes are a function of (a) the template set, (b) the
   page object's name, and (c) a set of graph reads: attribute lookups
   (template expressions, anchors, titles, template selection),
   out-edge enumerations (the generic property sheet), collection
   memberships (template selection) and file loads.  Each read is
   recorded together with a hash of its result, so a render cache can
   later re-verify the trace against a changed graph and reuse the page
   iff every read still returns the same answer (a verifying-trace
   cache in the build-system sense).  A read names its subject node by
   oid, so a session that keeps its graph can index pages by what they
   read; nodes contribute their {e names} to hashes, not their oids,
   so traces also survive rebuilds that allocate fresh oids. *)

type read =
  | R_attr of Oid.t * string * int  (** node, label, result hash *)
  | R_edges of Oid.t * int          (** node, out-edge list hash *)
  | R_colls of Oid.t * int          (** node, collection-list hash *)
  | R_file of string * int          (** path, loaded-content hash *)

(* FNV-style combining: [Hashtbl.hash] truncates structured data after
   ~10 nodes, so lists are folded by hand (strings hash in full). *)
let mixh acc h = (acc * 0x01000193) lxor h land max_int

let hash_target = function
  | Graph.N o -> mixh 17 (Hashtbl.hash (Oid.name o))
  | Graph.V v ->
    mixh 23
      (mixh
         (Hashtbl.hash (Value.to_display_string v))
         (Hashtbl.hash (Value.kind_name v)))

let add_target acc t = mixh acc (hash_target t)
let add_edge acc l t = mixh (mixh acc (Hashtbl.hash l)) (hash_target t)
let add_string acc s = mixh acc (Hashtbl.hash s)
let hash_targets ts = List.fold_left add_target 11 ts
let hash_strings ss = List.fold_left add_string 19 ss
let hash_file = function None -> 0 | Some s -> mixh 29 (Hashtbl.hash s)

(* The one trace replay: the read's hash recomputed on node [o], which
   the caller resolved from its subject, folding over the graph's
   buckets so that no list is built. *)
let replay ~file_loader g o = function
  | R_attr (_, l, h) -> Graph.fold_attr g o l add_target 11 = h
  | R_edges (_, h) -> Graph.fold_out_edges g o add_edge 13 = h
  | R_colls (_, h) -> Graph.fold_collections_of g o add_string 19 = h
  | R_file (p, h) -> hash_file (file_loader p) = h

(* --- Anchor text for links to internal objects --- *)

let anchor_attrs = [ "title"; "name"; "Name"; "label"; "Year"; "year" ]

(* The anchor text of a link to [o]: its first [anchor_attrs] value,
   else its name, HTML-escaped.  [note] records the probed attributes
   (tracing must see the misses too: adding a [title] later must
   invalidate the page). *)
let default_anchor note g o =
  let rec first = function
    | [] -> Teval.escape_html (Oid.name o)
    | a :: rest -> (
        let targets = Graph.attr g o a in
        (match note with
         | Some f -> f (R_attr (o, a, hash_targets targets))
         | None -> ());
        let rec first_value = function
          | [] -> None
          | Graph.V v :: _ -> Some v
          | Graph.N _ :: tl -> first_value tl
        in
        match first_value targets with
        | Some v -> Teval.escape_html (Value.to_display_string v)
        | None -> first rest)
  in
  first anchor_attrs

(* --- Template selection --- *)

(* Besides the template cache, the hrefs of the objects the page in
   render links to, emptied for each page. *)
type compiled = { cache : (string, Tast.t) Hashtbl.t; refs : string Oid.Tbl.t }

let new_compiled () = { cache = Hashtbl.create 16; refs = Oid.Tbl.create 16 }

(* templates parsed by every cache in the process *)
let parses = Atomic.make 0
let templates_parsed () = Atomic.get parses

let compile_cached c key text =
  match Hashtbl.find_opt c.cache key with
  | Some t -> t
  | None ->
    Atomic.incr parses;
    let t = Tparse.parse text in
    Hashtbl.add c.cache key t;
    t

let select_template ?note c (ts : template_set) g o : Tast.t option =
  (* the selection depends on two graph reads — record both so a cache
     re-verifies the choice (the object-name branch reads nothing) *)
  (match note with
   | Some f ->
     f
       (R_attr
          (o, "HTML-template", hash_targets (Graph.attr g o "HTML-template")));
     f (R_colls (o, hash_strings (Graph.collections_of g o)))
   | None -> ());
  match List.assoc_opt (Oid.name o) ts.by_object with
  | Some text -> Some (compile_cached c ("obj:" ^ Oid.name o) text)
  | None -> (
      let from_attr =
        match Graph.attr_value g o "HTML-template" with
        | Some (Value.String n) | Some (Value.File (Value.Html_file, n)) ->
          (match List.assoc_opt n ts.named with
           | Some text -> Some (compile_cached c ("named:" ^ n) text)
           | None ->
             raise (Generator_error ("unknown template name " ^ n)))
        | Some _ | None -> None
      in
      match from_attr with
      | Some t -> Some t
      | None ->
        List.find_map
          (fun coll ->
            match List.assoc_opt coll ts.by_collection with
            | Some text -> Some (compile_cached c ("coll:" ^ coll) text)
            | None -> None)
          (Graph.collections_of g o))

(* Generic property-sheet rendering for objects without a template. *)
let default_render render_target g o =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "<h2>%s</h2>\n<dl>\n" (Teval.escape_html (Oid.name o)));
  List.iter
    (fun (l, tgt) ->
      Buffer.add_string buf
        (Printf.sprintf "<dt>%s</dt><dd>%s</dd>\n" (Teval.escape_html l)
           (render_target tgt)))
    (Graph.out_edges g o);
  Buffer.add_string buf "</dl>\n";
  Buffer.contents buf

let wrap_page ~title body =
  if
    String.length body >= 5
    && String.lowercase_ascii (String.sub body 0 5) = "<html"
  then body
  else
    Printf.sprintf
      "<html>\n<head><title>%s</title></head>\n<body>\n%s\n</body>\n</html>\n"
      (Teval.escape_html title) body

let max_embed_depth = 32

(* --- Degraded rendering ---

   When a page render fails under [~on_error:Degrade], the site still
   ships: the failed page is replaced by a small error page carrying a
   deterministic marker comment, so placeholders can be recognized;
   the render cache never stores one. *)

let fault_marker = "<!-- strudel:fault -->"

let placeholder_page ~url ~cause (o : Oid.t) : page =
  let title = Oid.name o in
  let body =
    Printf.sprintf
      "%s\n<h1>%s</h1>\n<p>This page could not be rendered: %s</p>\n"
      fault_marker (Teval.escape_html title) (Teval.escape_html cause)
  in
  { obj = o; url; title; html = wrap_page ~title body; body }

let is_placeholder (p : page) =
  String.length p.body >= String.length fault_marker
  && String.sub p.body 0 (String.length fault_marker) = fault_marker

let degraded_page (g : Graph.t) (o : Oid.t) ~url e : page * Fault.report =
  let cause =
    match e with
    | Fault.Inject.Injected m -> m
    | Generator_error m -> m
    | Tparse.Template_error m -> "template error: " ^ m
    | e -> Printexc.to_string e
  in
  ( placeholder_page ~url ~cause o,
    Fault.report ~stage:Fault.Render ~source:(Graph.name g) ~location:url
      ~cause () )

(* --- The page render ---

   Every page goes through [render_object_page], whichever driver asks
   for it.  [link_url o'] is the href of a link to [o'] (the caller may
   also record the demand edge there); [note], when given, receives
   every graph read the render performs, in read order.  The embed
   stack belongs to the one page, so a render that fails midway leaves
   nothing behind for the next. *)
let render_object_page ?note ~link_url ~compiled ~file_loader ~templates
    (g : Graph.t) (o : Oid.t) ~url : page =
  let on_read =
    Option.map
      (fun f o' seg targets ->
        f (R_attr (o', seg, hash_targets targets)))
      note
  in
  let file_loader =
    match note with
    | None -> file_loader
    | Some f ->
      fun p ->
        let r = file_loader p in
        f (R_file (p, hash_file r));
        r
  in
  let embedding = ref [] in  (* the embed stack, innermost first *)
  let rec render_object ctx mode o' =
    match mode with
    | Teval.Link_to anchor ->
      let href = link_url o' in
      let anchor =
        match anchor with
        | Some a -> a
        | None -> default_anchor note g o'
      in
      Teval.render_link ~href ~anchor
    | Teval.Embed ->
      let stack = !embedding in
      if List.exists (Oid.equal o') stack
         || List.compare_length_with stack max_embed_depth > 0
      then
        (* embedding cycle: fall back to a link *)
        render_object ctx (Teval.Link_to None) o'
      else begin
        embedding := o' :: stack;
        let body = render_body ctx o' in
        embedding := stack;
        body
      end
  and render_body ctx o' =
    match select_template ?note compiled templates g o' with
    | Some t -> Teval.render { ctx with Teval.vars = [] } t o'
    | None ->
      Option.iter
        (fun f ->
          f (R_edges (o', Graph.fold_out_edges g o' add_edge 13)))
        note;
      default_render
        (fun tgt -> Teval.render_target ctx o' Tast.default_directives tgt)
        g o'
  in
  let ctx =
    { Teval.graph = g; vars = []; render_object; file_loader; on_read }
  in
  let body = render_body ctx o in
  Option.iter
    (fun f ->
      f (R_attr (o, "title", hash_targets (Graph.attr g o "title"))))
    note;
  let title =
    match Graph.attr_value g o "title" with
    | Some v -> Value.to_display_string v
    | None -> Oid.name o
  in
  { obj = o; url; title; html = wrap_page ~title body; body }

type rendered = {
  r_page : page;
  r_reads : read list;
      (** the page's read set with result hashes, in read order (empty
          unless rendered with [~trace_reads:true]) *)
  r_refs : (Oid.t * string) list;
      (** internal objects the page links to, in first-reference order,
          each with the href its links carry — the demand edges page
          discovery follows *)
}

(** Render a single object's page without materializing the rest of the
    site: [href] gives the URL of a page, the rendered one's own
    included (by default its slug URL, the click-time convention), and
    the linked pages are not generated.  This is the rendering
    primitive of the click-time evaluator and the render pool.
    [compiled] shares the template-compilation cache across pages (one
    per domain in the parallel pool); [trace_reads] records the page's
    read set for the render cache; the referenced-object list is always
    recorded. *)
let render_page_full ?(file_loader = fun _ -> None)
    ?(templates = empty_templates) ?compiled ?(trace_reads = false)
    ?(href = slug_url) (g : Graph.t) (o : Oid.t) : rendered =
  let compiled =
    match compiled with Some c -> c | None -> new_compiled ()
  in
  let reads_rev = ref [] in
  let note =
    if trace_reads then Some (fun r -> reads_rev := r :: !reads_rev)
    else None
  in
  Oid.Tbl.reset compiled.refs;
  let refs_rev = ref [] in
  let link_url o' =
    match Oid.Tbl.find_opt compiled.refs o' with
    | Some u -> u
    | None ->
      let u = href o' in
      Oid.Tbl.add compiled.refs o' u;
      refs_rev := (o', u) :: !refs_rev;
      u
  in
  let r_page =
    render_object_page ?note ~link_url ~compiled ~file_loader ~templates g o
      ~url:(href o)
  in
  { r_page; r_reads = List.rev !reads_rev; r_refs = List.rev !refs_rev }

let render_page ?file_loader ?templates (g : Graph.t) (o : Oid.t) : page =
  (render_page_full ?file_loader ?templates g o).r_page

let page_count site = List.length site.pages

let page_of_object site o =
  List.find_opt (fun p -> Oid.equal p.obj o) site.pages

(** Write all pages below [dir] (created if missing). *)
let write_site ~dir site =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun p ->
      let oc = open_out (Filename.concat dir p.url) in
      output_string oc p.html;
      close_out oc)
    site.pages

let total_bytes site =
  List.fold_left (fun n p -> n + String.length p.html) 0 site.pages
