(** [strudel watch]: differential site maintenance, ingest to publish.

    One watch session owns a {!Struql.Dexec} engine (the maintained
    site graph plus every recorded construction event), a cross-cycle
    render cache, and the previous publish.  Each {!cycle} turns
    whatever changed at the sources into exactly the re-derivation and
    re-rendering that change demands — everything else is reused, and
    the published bytes stay identical to a cold build of the same
    data. *)

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
  cache : Strudel.Render_cache.t;
  jobs : int;
  on_error : Fault.on_error;
  fault : Fault.ctx option;
  sink : Strudel.Render_pool.sink option;
  mutable built : Strudel.Site.built;
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
  let built =
    Strudel.Site.publish ~jobs ~cache ~on_error ?fault ?sink
      ~roots:(Strudel.Site.build_roots site_graph def)
      ~def ~data ~site_graph ~scope:(Struql.Dexec.scope engine)
      ~schemas:
        (List.map (fun (n, q) -> (n, Schema.Site_schema.of_query q)) parsed)
      ~query_stats:[] ()
  in
  let mode =
    match source with
    | Direct g -> M_direct (Delta.Rec.create g)
    | Mediated w -> M_mediated w
  in
  { mode; engine; cache; jobs; on_error; fault; sink; built; cycles = 0 }

let built t = t.built
let engine t = t.engine
let cache t = t.cache
let cycles t = t.cycles

let recorder t =
  match t.mode with M_direct r -> Some r | M_mediated _ -> None

let warehouse t =
  match t.mode with M_mediated w -> Some w | M_direct _ -> None

let run_delta (t : t) ~t0 ~quarantined ?data delta : cycle_report =
  let wall () = (Unix.gettimeofday () -. t0) *. 1000. in
  let ch = Struql.Dexec.apply ?data t.engine delta in
  let report =
    Strudel.Incremental.publish_delta ~jobs:t.jobs ~on_error:t.on_error
      ?fault:t.fault ?sink:t.sink ~cache:t.cache ~previous:t.built
      ~data:(Struql.Dexec.data_graph t.engine)
      ~site_graph:(Struql.Dexec.site_graph t.engine)
      ~scope:(Struql.Dexec.scope t.engine)
      ~touched:ch.Struql.Dexec.sc_touched
      ~removed:ch.Struql.Dexec.sc_removed ()
  in
  t.built <- report.Strudel.Incremental.built;
  {
    cy_cycle = t.cycles;
    cy_changed = true;
    cy_delta_card = Delta.card delta;
    cy_drivers = ch.Struql.Dexec.sc_drivers;
    cy_rows = ch.Struql.Dexec.sc_rows;
    cy_touched = List.length ch.Struql.Dexec.sc_touched;
    cy_removed = List.length ch.Struql.Dexec.sc_removed;
    cy_rerendered = report.Strudel.Incremental.pages_rerendered;
    cy_reused = report.Strudel.Incremental.pages_reused;
    cy_fallbacks = ch.Struql.Dexec.sc_fallbacks;
    cy_quarantined = quarantined;
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
  | Some delta -> run_delta t ~t0 ~quarantined ?data delta

let watch ?(interval = 1.0) ?max_cycles ~on_cycle (t : t) : int =
  let degraded = ref false in
  let continue_ = ref true in
  let n = ref 0 in
  while !continue_ do
    let r = cycle t in
    if r.cy_quarantined <> [] then degraded := true;
    if
      List.exists
        (fun p -> Template.Generator.is_placeholder p)
        t.built.Strudel.Site.site.Template.Generator.pages
    then degraded := true;
    on_cycle t r;
    incr n;
    (match max_cycles with
     | Some m when !n >= m -> continue_ := false
     | _ -> ());
    if !continue_ then Unix.sleepf interval
  done;
  if !degraded then 3 else 0

let pp_report ppf (r : cycle_report) =
  if not r.cy_changed then
    Format.fprintf ppf "cycle %d: clean (%.1f ms)%s" r.cy_cycle r.cy_wall_ms
      (match r.cy_quarantined with
       | [] -> ""
       | qs ->
         Printf.sprintf "; %d source(s) quarantined" (List.length qs))
  else begin
    Format.fprintf ppf
      "cycle %d: |delta|=%d drivers=%d rows=%d touched=%d removed=%d \
       rerendered=%d reused=%d (%.1f ms)"
      r.cy_cycle r.cy_delta_card r.cy_drivers r.cy_rows r.cy_touched
      r.cy_removed r.cy_rerendered r.cy_reused r.cy_wall_ms;
    List.iter
      (fun (path, reason) ->
        Format.fprintf ppf "@.  fallback %s: %s" path reason)
      r.cy_fallbacks;
    List.iter
      (fun (src, reason) ->
        Format.fprintf ppf "@.  quarantined %s: %s" src reason)
      r.cy_quarantined
  end
