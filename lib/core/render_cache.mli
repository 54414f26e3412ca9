(** Dependency-tracked cache of rendered pages.

    A verifying-trace cache: each entry stores a page's rendered bytes
    plus the exact read set the render performed, as recorded by
    {!Template.Generator.render_page_full}[ ~trace_reads:true].  An
    entry is reused iff replaying every read against the current graph
    yields the same result hashes, so an edit invalidates exactly the
    pages whose rendering observed it.  Entries are keyed by the page
    object's {e name} (its Skolem term), which is stable across rebuilds
    even though oids are not.  A template-set fingerprint clears the
    cache wholesale when the presentation changes. *)

open Sgraph

type entry = {
  e_url : string;
  e_title : string;
  e_body : string;
  e_html : string;
  e_reads : Template.Generator.read list;
  e_refs : string list;
      (** names of the internal objects the page links to — the demand
          edges page discovery follows on a cache hit *)
}

type t

val create : unit -> t
val size : t -> int

val stats : t -> int * int * int
(** [(hits, misses, invalidations)] since creation or [reset_stats]. *)

val reset_stats : t -> unit

val set_templates : t -> Template.Generator.template_set -> unit
(** Declare the template set cached pages are rendered with; a change
    of fingerprint drops every entry (template text is an input the
    read traces cannot see). *)

val verify :
  ?file_loader:(string -> string option) -> Graph.t -> entry -> bool
(** Replay the entry's trace against the graph, each read on the node
    of its subject's name; [true] iff every read still returns the same
    result hash.  Does not touch statistics. *)

val find_valid : t -> Graph.t -> Oid.t -> entry option
(** Cached page for object [o] (by name), re-verified against the
    graph with no file loader (a traced file read verifies against an
    absent file).  Counts a hit; a stale entry is removed and counted as an
    invalidation; an absent one as a miss. *)

val peek_batch : t -> Oid.t array -> entry option array
(** Entries for a batch of page objects (by name) in one pass, without
    verification or statistics — the parallel pool prefetches on the
    main domain, verifies traces on worker domains ({!verify} only
    reads the graph), and settles the table afterwards with {!settle},
    {!drop} and {!store}. *)

val settle : t -> hits:int -> misses:int -> invalidations:int -> unit
(** Fold one batch's verdict counts into the statistics. *)

val drop : t -> Oid.t -> unit
(** Remove the entry for a page object — a stale entry whose re-render
    degraded to a placeholder, which must not stay cached. *)

val store : t -> Template.Generator.rendered -> unit
(** Record a freshly rendered page (render with [~trace_reads:true],
    else the entry validates vacuously). *)

val page_of_entry : entry -> Oid.t -> Template.Generator.page
(** Rebuild a page value for the current build's page object from a
    validated entry. *)

val refs_of_entry : Graph.t -> entry -> Oid.t list
(** The entry's referenced objects resolved in the current graph. *)

val pp_stats : Format.formatter -> t -> unit
