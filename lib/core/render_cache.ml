(** Dependency-tracked cache of rendered pages.

    A verifying-trace cache in the build-system sense: each entry stores
    the page's rendered bytes together with the exact read set the
    render performed ({!Template.Generator.read} records with result
    hashes).  An entry is reused iff replaying every read against the
    {e current} graph yields the same hashes — so an edit invalidates
    exactly the pages whose rendering observed it, and nothing else.

    Entries are keyed by the page object's {e name} (for site pages, its
    Skolem term): oids are allocated fresh on every rebuild, names are
    the stable identity across builds.  The cache also fingerprints the
    template set and clears itself wholesale when the templates change,
    since template text is an input the read traces do not cover.

    The cache is consulted and updated only from the main domain; the
    parallel {!Render_pool} validates entries before fanning out and
    stores fresh traces after joining. *)

module G = Template.Generator
open Sgraph

type entry = {
  e_url : string;
  e_title : string;
  e_body : string;
  e_html : string;
  e_reads : G.read list;
  e_refs : string list;
      (** names of the internal objects the page links to — the demand
          edges page discovery follows on a cache hit *)
}

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
}

type t = {
  entries : (string, entry) Hashtbl.t;  (* page-object name → entry *)
  stats : stats;
  mutable templates_fp : int option;
  (* sanitizer identity: field 0 = [entries]/[templates_fp], field 1 =
     [stats].  Nothing locks them — the documented invariant is that
     every access stays on the main domain, and instrumenting both
     fields makes a sanitized parallel build check exactly that. *)
  ds_obj : int;
}

let create () =
  {
    entries = Hashtbl.create 64;
    stats = { hits = 0; misses = 0; invalidations = 0 };
    templates_fp = None;
    ds_obj = Dsan.alloc ~name:"Render_cache";
  }

let clear c =
  Dsan.write ~site:__POS__ c.ds_obj 0;
  Hashtbl.reset c.entries

let size c =
  Dsan.read ~site:__POS__ c.ds_obj 0;
  Hashtbl.length c.entries

let stats c =
  Dsan.read ~site:__POS__ c.ds_obj 1;
  (c.stats.hits, c.stats.misses, c.stats.invalidations)

let reset_stats c =
  Dsan.write ~site:__POS__ c.ds_obj 1;
  c.stats.hits <- 0;
  c.stats.misses <- 0;
  c.stats.invalidations <- 0

(* --- Template fingerprint --- *)

let fingerprint_templates (ts : G.template_set) =
  let pairs ps =
    List.fold_left
      (fun acc (k, v) -> G.hash_strings [ k; v ] lxor ((acc * 31) land max_int))
      7 ps
  in
  G.hash_strings
    [ string_of_int (pairs ts.G.by_object);
      string_of_int (pairs ts.G.by_collection);
      string_of_int (pairs ts.G.named) ]

(** Declare the template set the cached pages were rendered with.  If it
    differs from the recorded fingerprint, all entries are dropped
    (template text is an input the read traces cannot see). *)
let set_templates c ts =
  let fp = fingerprint_templates ts in
  Dsan.write ~site:__POS__ c.ds_obj 0;
  (match c.templates_fp with
   | Some old when old <> fp -> clear c
   | _ -> ());
  c.templates_fp <- Some fp

(* --- Trace verification --- *)

let absent = Oid.fresh "(absent node)"
let no_file _ = None

(** Replay the entry's trace against [g] ({!G.replay}), each read on
    the node of its subject's name, since a rebuild allocates fresh
    oids: a node that no longer exists reads as the empty result —
    exactly what a render against [g] would observe.  Reads of one node
    come in runs (an anchor probes several labels), so a run looks its
    name up once. *)
let verify ?(file_loader = no_file) g entry =
  let subject = ref absent and node = ref absent in
  List.for_all
    (fun r ->
      (match r with
       | (G.R_attr (o, _, _) | G.R_edges (o, _) | G.R_colls (o, _))
         when o != !subject ->
         subject := o;
         node := Option.value (Graph.find_node g (Oid.name o)) ~default:absent
       | _ -> ());
      G.replay ~file_loader g !node r)
    entry.e_reads

(** Look up the page for object [o] (keyed by its name) and re-verify
    its trace against [g].  Counts a hit on success; a stale entry is
    removed and counted as an invalidation; an absent one as a miss. *)
let find_valid c g o =
  let key = Oid.name o in
  Dsan.write ~site:__POS__ c.ds_obj 0;
  Dsan.write ~site:__POS__ c.ds_obj 1;
  match Hashtbl.find_opt c.entries key with
  | None ->
    c.stats.misses <- c.stats.misses + 1;
    None
  | Some e ->
    if verify g e then begin
      c.stats.hits <- c.stats.hits + 1;
      Some e
    end
    else begin
      c.stats.invalidations <- c.stats.invalidations + 1;
      Hashtbl.remove c.entries key;
      None
    end

(* --- Batched lookups for the parallel render pool --- *)

(** Entries for a batch of page objects, no verification, no statistic
    updates: the pool prefetches entries on the main domain in one
    pass, verifies the traces on worker domains ({!verify} only reads
    the graph), and settles the table afterwards with {!settle} /
    {!drop} / {!store}. *)
let peek_batch c (os : Oid.t array) : entry option array =
  Dsan.read ~site:__POS__ c.ds_obj 0;
  Array.map (fun o -> Hashtbl.find_opt c.entries (Oid.name o)) os

(** Fold one batch's verdict counts into the statistics. *)
let settle c ~hits ~misses ~invalidations =
  Dsan.write ~site:__POS__ c.ds_obj 1;
  c.stats.hits <- c.stats.hits + hits;
  c.stats.misses <- c.stats.misses + misses;
  c.stats.invalidations <- c.stats.invalidations + invalidations

(** Remove the entry for a page object — a stale entry whose re-render
    degraded to a placeholder, which must not stay cached. *)
let drop c o =
  Dsan.write ~site:__POS__ c.ds_obj 0;
  Hashtbl.remove c.entries (Oid.name o)

(** Record a freshly rendered page (must come from [render_page_full
    ~trace_reads:true], else the entry would validate vacuously). *)
let store c (r : G.rendered) =
  let p = r.G.r_page in
  Dsan.write ~site:__POS__ c.ds_obj 0;
  Hashtbl.replace c.entries (Oid.name p.G.obj)
    {
      e_url = p.G.url;
      e_title = p.G.title;
      e_body = p.G.body;
      e_html = p.G.html;
      e_reads = r.G.r_reads;
      e_refs = List.map (fun (o, _) -> Oid.name o) r.G.r_refs;
    }

(** Rebuild a {!Template.Generator.page} for the current build's page
    object [o] from a validated entry. *)
let page_of_entry (e : entry) o : G.page =
  { G.obj = o; url = e.e_url; title = e.e_title; html = e.e_html;
    body = e.e_body }

(** Resolve an entry's referenced-object names in the current graph
    (names missing from [g] are dropped — a verified trace cannot
    actually contain any, since the link render read their anchors). *)
let refs_of_entry g (e : entry) : Oid.t list =
  List.filter_map (Graph.find_node g) e.e_refs

let pp_stats ppf c =
  Dsan.read ~site:__POS__ c.ds_obj 1;
  Fmt.pf ppf "%d entries, %d hits / %d misses / %d invalidations" (size c)
    c.stats.hits c.stats.misses c.stats.invalidations
