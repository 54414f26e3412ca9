(** [strudel watch]: differential site maintenance, ingest to publish.

    One watch session owns a {!Struql.Dexec} engine (the maintained
    site graph plus every recorded construction event), the page table
    of what it published, and the previous publish.  Each {!cycle}
    turns whatever changed at the sources into exactly the
    re-derivation and re-rendering that change demands — everything
    else is reused, and the published bytes stay identical to a cold
    build of the same data. *)

open Sgraph

type source =
  | Direct of Graph.t
      (** watch an in-process data graph; mutations must go through the
          session's {!recorder} *)
  | Mediated of Mediator.Warehouse.t
      (** watch a warehousing mediator; {!cycle} polls
          {!Mediator.Warehouse.refresh_delta} *)

type mode = M_direct of Delta.Rec.r | M_mediated of Mediator.Warehouse.t

type t = {
  mode : mode;
  engine : Struql.Dexec.t;
  table : Strudel.Page_table.t;
  cache : Strudel.Render_cache.t;  (* statistics only, from each profile *)
  jobs : int;
  fault : Fault.ctx option;
  mutable built : Strudel.Site.built;
  mutable settled : bool;
      (* [built]'s verdicts describe the site graph as the last cycle
         left it: false while a cycle runs, and after one that raised
         between changing the graph and publishing *)
  mutable cycles : int;
}

type cycle_report = {
  cy_cycle : int;
  cy_changed : bool;  (** false: sources were clean, nothing ran *)
  cy_delta_card : int;
  cy_drivers : int;
  cy_rows : int;
  cy_touched : int;
  cy_removed : int;
  cy_rerendered : int;
  cy_reused : int;
  cy_fallbacks : (string * string) list;
  cy_quarantined : (string * string) list;
  cy_mapped : (int * int) option;
  cy_wall_ms : float;
}

let clean_report ~cycle ~quarantined ~wall =
  {
    cy_cycle = cycle;
    cy_changed = false;
    cy_delta_card = 0;
    cy_drivers = 0;
    cy_rows = 0;
    cy_touched = 0;
    cy_removed = 0;
    cy_rerendered = 0;
    cy_reused = 0;
    cy_fallbacks = [];
    cy_quarantined = quarantined;
    cy_mapped = None;
    cy_wall_ms = wall;
  }

let quarantined_of w =
  List.filter_map
    (fun (s : Mediator.Warehouse.source_stat) ->
      match s.Mediator.Warehouse.ss_outcome with
      | Mediator.Warehouse.Quarantined reason ->
        Some (s.Mediator.Warehouse.ss_source, reason)
      | Mediator.Warehouse.Changed | Mediator.Warehouse.Unchanged -> None)
    (Mediator.Warehouse.last_refresh w)

(* Fold a publish's page verdicts into the session's statistics. *)
let count_pages cache (p : Strudel.Render_pool.profile) =
  Strudel.Render_cache.settle cache ~hits:p.Strudel.Render_pool.rp_cache_hits
    ~misses:p.Strudel.Render_pool.rp_cache_misses
    ~invalidations:p.Strudel.Render_pool.rp_cache_invalidations

let create ?(jobs = 1) ?(on_error = Fault.Abort) ?fault ?sink ~source
    (def : Strudel.Site.definition) : t =
  let data =
    match source with
    | Direct g -> g
    | Mediated w -> Mediator.Warehouse.graph w
  in
  let parsed = Strudel.Site.parse_queries def in
  let options =
    { Struql.Eval.default_options with
      strategy = def.Strudel.Site.strategy;
      registry = def.Strudel.Site.registry }
  in
  let engine =
    Struql.Dexec.create ~options ~queries:(List.map snd parsed) data
  in
  Struql.Dexec.prime engine;
  let cache = Strudel.Render_cache.create () in
  let site_graph = Struql.Dexec.site_graph engine in
  let table, (site, profile) =
    Strudel.Page_table.create ~jobs ~on_error ?fault ?sink
      ~templates:def.Strudel.Site.templates
      ~root_family:def.Strudel.Site.root_family site_graph
      ~roots:(Strudel.Site.build_roots site_graph def)
  in
  count_pages cache profile;
  let built =
    Strudel.Site.assemble ?fault ~def ~data ~site_graph
      ~scope:(Struql.Dexec.scope engine)
      ~schemas:
        (List.map (fun (n, q) -> (n, Schema.Site_schema.of_query q)) parsed)
      ~query_stats:[] (site, profile)
  in
  let mode =
    match source with
    | Direct g -> M_direct (Delta.Rec.create g)
    | Mediated w -> M_mediated w
  in
  { mode; engine; table; cache; jobs; fault; built; settled = true; cycles = 0 }

let built t = t.built
let engine t = t.engine
let cache t = t.cache
let cycles t = t.cycles

let recorder t =
  match t.mode with M_direct r -> Some r | M_mediated _ -> None

let warehouse t =
  match t.mode with M_mediated w -> Some w | M_direct _ -> None

(* (ran, total) mappings at the warehouse's last integration *)
let mapped_of w =
  let runs = Mediator.Warehouse.last_runs w in
  ( List.length (List.filter (fun r -> r = Mediator.Gav.Ran) runs),
    List.length runs )

let run_delta (t : t) ~t0 ~quarantined ?mapped ?data delta : cycle_report =
  let wall () = (Unix.gettimeofday () -. t0) *. 1000. in
  let settled = t.settled in
  t.settled <- false;
  let ch = Struql.Dexec.apply ?data t.engine delta in
  let touched = ch.Struql.Dexec.sc_touched
  and removed = ch.Struql.Dexec.sc_removed in
  let previous = t.built in
  let data = Struql.Dexec.data_graph t.engine in
  let rerendered, reused =
    if
      settled && touched = [] && removed = []
      && Strudel.Page_table.idle t.table
    then begin
      (* no site node changed and no page awaits a retry: the previous
         pages stand as they are *)
      t.built <- { previous with Strudel.Site.data };
      (0, List.length previous.Strudel.Site.site.Template.Generator.pages)
    end
    else begin
      let site, profile =
        Strudel.Page_table.update t.table ~touched ~removed
      in
      count_pages t.cache profile;
      (* only the constraints this cycle's change can move are checked
         again; after a cycle that raised, every one is *)
      let verification =
        if settled then
          Some
            (Schema.Verify.recheck_site previous.Strudel.Site.site_graph
               ~structural:ch.Struql.Dexec.sc_structural
               ~labels:ch.Struql.Dexec.sc_labels
               previous.Strudel.Site.verification)
        else None
      in
      t.built <-
        Strudel.Site.assemble ?fault:t.fault ?verification
          ~def:previous.Strudel.Site.def
          ~data ~site_graph:previous.Strudel.Site.site_graph
          ~scope:previous.Strudel.Site.scope
          ~schemas:previous.Strudel.Site.schemas
          ~query_stats:previous.Strudel.Site.query_stats (site, profile);
      ( profile.Strudel.Render_pool.rp_rendered,
        profile.Strudel.Render_pool.rp_cache_hits )
    end
  in
  t.settled <- true;
  {
    cy_cycle = t.cycles;
    cy_changed = true;
    cy_delta_card = Delta.card delta;
    cy_drivers = ch.Struql.Dexec.sc_drivers;
    cy_rows = ch.Struql.Dexec.sc_rows;
    cy_touched = List.length touched;
    cy_removed = List.length removed;
    cy_rerendered = rerendered;
    cy_reused = reused;
    cy_fallbacks = ch.Struql.Dexec.sc_fallbacks;
    cy_quarantined = quarantined;
    cy_mapped = mapped;
    cy_wall_ms = wall ();
  }

let push ?data (t : t) delta : cycle_report =
  let t0 = Unix.gettimeofday () in
  t.cycles <- t.cycles + 1;
  run_delta t ~t0 ~quarantined:[] ?data delta

let cycle (t : t) : cycle_report =
  let t0 = Unix.gettimeofday () in
  let wall () = (Unix.gettimeofday () -. t0) *. 1000. in
  t.cycles <- t.cycles + 1;
  let delta, data, quarantined =
    match t.mode with
    | M_direct r ->
      let d = Delta.Rec.flush r in
      ((if Delta.is_empty d then None else Some d), None, [])
    | M_mediated w -> (
      match Mediator.Warehouse.refresh_delta ~jobs:t.jobs w with
      | None -> (None, None, quarantined_of w)
      | Some d -> (Some d, Some (Mediator.Warehouse.graph w), quarantined_of w))
  in
  match delta with
  | None -> clean_report ~cycle:t.cycles ~quarantined ~wall:(wall ())
  | Some delta ->
    let mapped = Option.map mapped_of (warehouse t) in
    run_delta t ~t0 ~quarantined ?mapped ?data delta

let pp_report ppf (r : cycle_report) =
  if not r.cy_changed then
    Format.fprintf ppf "cycle %d: clean (%.1f ms)%s" r.cy_cycle r.cy_wall_ms
      (match r.cy_quarantined with
       | [] -> ""
       | qs ->
         Printf.sprintf "; %d source(s) quarantined" (List.length qs))
  else begin
    Format.fprintf ppf
      "cycle %d: |delta|=%d%s drivers=%d rows=%d touched=%d removed=%d \
       rerendered=%d reused=%d (%.1f ms)"
      r.cy_cycle r.cy_delta_card
      (match r.cy_mapped with
       | Some (ran, total) -> Printf.sprintf " mapped=%d/%d" ran total
       | None -> "")
      r.cy_drivers r.cy_rows r.cy_touched r.cy_removed r.cy_rerendered
      r.cy_reused r.cy_wall_ms;
    List.iter
      (fun (path, reason) ->
        Format.fprintf ppf "@.  fallback %s: %s" path reason)
      r.cy_fallbacks;
    List.iter
      (fun (src, reason) ->
        Format.fprintf ppf "@.  quarantined %s: %s" src reason)
      r.cy_quarantined
  end
