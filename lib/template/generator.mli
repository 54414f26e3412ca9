(** The HTML generator (§2.5, §4).

    Produces the browsable Web site from a site graph and a set of HTML
    templates.  For every internal object the generator selects a
    template: (1) an object-specific template, (2) the value of the
    object's [HTML-template] attribute — so the {e data} can choose the
    presentation — or (3) the template of a collection the object
    belongs to; objects with none get a generic property-sheet
    rendering.

    The choice to realize internal objects as pages or as page
    components is delayed until generation: an object referenced with
    the default format becomes a separate page (a link to it is
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

val empty_templates : template_set

type page = {
  obj : Oid.t;
  url : string;
  title : string;
  html : string;  (** the full page, wrapped in scaffold if needed *)
  body : string;  (** the template's output alone *)
}

type site = {
  pages : page list;
  graph : Graph.t;
}

val slug : string -> string
(** URL-safe name fragment used for page file names. *)

val slug_url : Oid.t -> string
(** [slug (Oid.name o) ^ ".html"]: the page's URL unless an earlier
    page of its site holds it. *)

(** {1 Read tracing}

    A rendered page's bytes are a function of the template set, the
    page object's name and a set of graph reads.  [render_page_full
    ~trace_reads:true] records each read with a hash of its result so a
    render cache can later re-verify the trace against a changed graph
    and reuse the page iff every read still returns the same answer.
    A read names its subject node by oid, so a session that keeps its
    graph can index pages by the nodes they read; node hashes use
    {e names}, not oids, so traces also survive rebuilds that allocate
    fresh oids (a cache across rebuilds replays a read on the node of
    the same name). *)

type read =
  | R_attr of Oid.t * string * int  (** node, label, result hash *)
  | R_edges of Oid.t * int          (** node, out-edge list hash *)
  | R_colls of Oid.t * int          (** node, collection-list hash *)
  | R_file of string * int          (** path, loaded-content hash *)

val hash_targets : Graph.target list -> int
val hash_strings : string list -> int
val hash_file : string option -> int

val replay :
  file_loader:(string -> string option) -> Graph.t -> Oid.t -> read -> bool
(** Whether the read still returns the hash it recorded, replayed on the
    given node, its subject as the caller resolves it (a node the graph
    lacks reads as empty), or for a file read through [file_loader].
    Builds no list. *)

type compiled
(** Template-compilation cache, and the table that deduplicates a
    page's refs, reused from page to page; share one per rendering
    thread of control (e.g. one per domain in the parallel render
    pool). *)

val new_compiled : unit -> compiled

val templates_parsed : unit -> int
(** Templates parsed so far by the renders of the whole process: a
    {!compiled} cache parses each template it selects once, at its
    first use. *)

val fault_marker : string
(** Deterministic marker comment opening every placeholder body. *)

val placeholder_page : url:string -> cause:string -> Oid.t -> page
(** The error page emitted in place of a page whose render failed under
    [~on_error:Degrade]. *)

val is_placeholder : page -> bool
(** Whether the page is a degraded-build placeholder (so the render
    cache never reuses one as a real page). *)

val degraded_page : Graph.t -> Oid.t -> url:string -> exn -> page * Fault.report
(** The {!placeholder_page} and the [Render] fault report for a page
    whose render raised under [~on_error:Degrade]. *)

type rendered = {
  r_page : page;
  r_reads : read list;
      (** the page's read set with result hashes, in read order (empty
          unless rendered with [~trace_reads:true]) *)
  r_refs : (Oid.t * string) list;
      (** internal objects the page links to, in first-reference order,
          each with the href its links carry (the [href] of the render,
          asked once per object) — the demand edges page discovery
          follows *)
}

val render_page_full :
  ?file_loader:(string -> string option) ->
  ?templates:template_set ->
  ?compiled:compiled ->
  ?trace_reads:bool ->
  ?href:(Oid.t -> string) ->
  Graph.t -> Oid.t -> rendered
(** Render a single object's page without materializing the rest of the
    site — the rendering primitive of the click-time evaluator and of
    {!Strudel.Render_pool}, which builds sites from it.  [href o] is
    the URL of [o]'s page: the rendered page's own URL and the href of
    every link to an internal object.  It defaults to the slug URL
    ([slug name ^ ".html"]), which a site build replaces only for pages
    whose slug URL an earlier page already holds.  The linked pages
    are not generated. *)

val render_page :
  ?file_loader:(string -> string option) ->
  ?templates:template_set ->
  Graph.t -> Oid.t -> page
(** [render_page_full] without tracing, returning just the page. *)

val page_count : site -> int
val page_of_object : site -> Oid.t -> page option

val write_site : dir:string -> site -> unit
(** Write all pages below [dir] (created if missing). *)

val total_bytes : site -> int
