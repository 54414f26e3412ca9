(** The warehousing mediator (§2.3).

    STRUDEL's prototype materializes the integrated view: data from all
    sources is loaded into the repository, and queries run against the
    warehouse.  The warehouse tracks per-source versions; [refresh]
    re-integrates when any source changed.  Incremental view update
    for semistructured data was open (§6), so a changed source still
    means a fresh integration — but unchanged sources are served from
    their wrapper caches, and each mapping whose input did not change
    replays the construction log its last run left in the view
    ({!Gav.integrate}) instead of evaluating again, so only the
    mappings over changed sources and the ["*"] joins do the work.
    Successive integrations agree on oids without any whole-graph
    re-keying: a reloaded source is rebased onto its own previous load,
    and each integration runs under a Skolem scope that takes the
    previous view's oid for every term it builds again, so
    {!refresh_delta} can diff the two views directly.

    The mediated result lives in an immutable {!view} that is swapped
    under a mutex: [refresh] builds the next graph entirely off to the
    side, then installs it atomically, so a reader that {!pin}s a view sees
    one consistent integration end to end no matter how many refreshes
    race past it.  With [jobs > 1] the per-source load attempts run in
    parallel across domains; policy resolution (fault recording,
    snapshot persistence) stays sequential in declared-source order. *)

open Sgraph

type outcome =
  | Changed
  | Unchanged
  | Quarantined of string

type source_stat = {
  ss_source : string;
  ss_outcome : outcome;
  ss_duration_ms : float;
  ss_version : int;
}

type view = {
  v_epoch : int;
  v_graph : Graph.t;
  v_scope : Skolem.t;
      (* the Skolem scope the graph was integrated under: the next
         integration takes its oids for every term it builds again *)
  v_logs : Gav.logs;
      (* each mapping's construction log, which the next integration
         replays where the mapping's input did not change *)
}

type t = {
  sources : Source.t list;
  mappings : Gav.mapping list;
  options : Struql.Eval.options;
  clock : Fault.Clock.t;
  snapshots : Repository.Store.t option;
  fault : Fault.ctx option;
  jobs : int;
  lock : Mutex.t;
  mutable current : view;
  mutable seen_versions : (string * int) list;
  mutable refreshes : int;  (** number of integrations performed *)
  mutable last_stats : source_stat list;
  (* sanitizer identities: field 0 = the view state guarded by [lock]
     ([current]/[seen_versions]/[refreshes]/[last_stats]) *)
  ds_obj : int;
  ds_lock : int;
}

let versions sources = List.map (fun s -> (Source.name s, Source.version s)) sources

(* Whether [s] contributes data this integration didn't already have:
   first integration, or a version bump since the last one. *)
let version_outcome ~prev s =
  let name = Source.name s in
  match List.assoc_opt name prev with
  | Some v when v = Source.version s -> Unchanged
  | _ -> Changed

(* The pre-fault direct attempt: [Source.load] propagates failures, so
   a caught exception is re-raised at settle time (policies are only in
   play when the warehouse carries fault machinery). *)
let attempt_direct s =
  try Source.Fresh (Source.load s) with e -> Source.Load_failed (e, 1)

let settle_direct = function
  | Source.Cached g | Source.Fresh g -> Some g
  | Source.Load_failed (e, _) -> raise e

(* Resolve one attempted load: apply the policy (or re-raise on the
   direct path), and derive its refresh outcome. *)
let settle_one ~direct ~prev ~snapshots ~fault s att dt =
  let r =
    if direct then settle_direct att else Source.settle ?snapshots ?fault s att
  in
  let outcome =
    match att with
    | Source.Load_failed (e, _) -> Quarantined (Printexc.to_string e)
    | Source.Cached _ | Source.Fresh _ -> version_outcome ~prev s
  in
  let stat =
    {
      ss_source = Source.name s;
      ss_outcome = outcome;
      ss_duration_ms = dt;
      ss_version = Source.version s;
    }
  in
  (r, stat)

(* Attempt every source's load in parallel on the shared pool, each
   load writing its own slot of [results].  Faults are neither
   recorded nor resolved here (that is sequential), but an injector
   shared across domains fires from all of them — injection tests
   should refresh with [jobs = 1]. *)
let attempt_parallel ~jobs ~clock ~fault ~direct sources =
  let srcs = Array.of_list sources in
  let n = Array.length srcs in
  let results = Array.make n (Source.Load_failed (Exit, 0), 0.) in
  let now () = clock.Fault.Clock.now_ms () in
  (* sanitizer identity: field j = [results.(j)], written by exactly
     one participant, read after [Pool.iter]'s join *)
  let ds_par = Dsan.alloc ~name:"Warehouse.parallel_load" in
  Pool.iter Pool.shared ~jobs n (fun _ lo hi ->
      for j = lo to hi - 1 do
        let s = srcs.(j) in
        let t0 = now () in
        let att =
          if direct then attempt_direct s
          else Source.load_attempt ~clock ?fault s
        in
        Dsan.write ~site:__POS__ ds_par j;
        results.(j) <- (att, now () -. t0)
      done);
  if Dsan.enabled () then
    for j = 0 to n - 1 do
      Dsan.read ~site:__POS__ ds_par j
    done;
  results

let integrate_now ~jobs ~prev ?reuse w_options ~clock ~snapshots ~fault
    sources mappings =
  let previous = Option.map (fun v -> v.v_logs) reuse in
  (* Without fault machinery the warehouse keeps the pre-fault direct
     path: loader failures propagate regardless of policy. *)
  let direct = snapshots = None && fault = None in
  let stats = ref [] in
  let load =
    if jobs > 1 then begin
      (* Eager: every declared source is attempted (in parallel), then
         settled sequentially in declared order, even ones no mapping
         ends up consulting. *)
      let results = attempt_parallel ~jobs ~clock ~fault ~direct sources in
      let tbl = Hashtbl.create 16 in
      List.iteri
        (fun i s ->
          let att, dt = results.(i) in
          let r, stat = settle_one ~direct ~prev ~snapshots ~fault s att dt in
          stats := stat :: !stats;
          Hashtbl.replace tbl (Source.name s) r)
        sources;
      fun s ->
        match Hashtbl.find_opt tbl (Source.name s) with
        | Some r -> r
        | None -> None
    end
    else
      (* Lazy: only sources the mappings consult are attempted, in
         consultation order — exactly the sequential behavior. *)
      fun s ->
        let t0 = clock.Fault.Clock.now_ms () in
        let att =
          if direct then attempt_direct s
          else Source.load_attempt ~clock ?fault s
        in
        let dt = clock.Fault.Clock.now_ms () -. t0 in
        let r, stat = settle_one ~direct ~prev ~snapshots ~fault s att dt in
        stats := stat :: !stats;
        r
  in
  let scope = Skolem.create ?reuse:(Option.map (fun v -> v.v_scope) reuse) () in
  let g, logs =
    Gav.integrate ~options:w_options ~scope ?previous ~load ?fault
      sources mappings
  in
  Skolem.forget_reuse scope;
  (* Report stats in declared-source order whatever order loads ran. *)
  let stats =
    List.filter_map
      (fun s ->
        List.find_opt (fun st -> st.ss_source = Source.name s) !stats)
      sources
  in
  (g, stats, scope, logs)

let create ?(options = Struql.Eval.default_options)
    ?(clock = Fault.Clock.real) ?snapshots ?fault ?(jobs = 1) ~sources
    ~mappings () =
  let g, stats, scope, logs =
    integrate_now ~jobs ~prev:[] options ~clock ~snapshots ~fault sources
      mappings
  in
  {
    sources;
    mappings;
    options;
    clock;
    snapshots;
    fault;
    jobs;
    lock = Mutex.create ();
    current = { v_epoch = 1; v_graph = g; v_scope = scope; v_logs = logs };
    seen_versions = versions sources;
    refreshes = 1;
    last_stats = stats;
    ds_obj = Dsan.alloc ~name:"Warehouse";
    ds_lock = Dsan.lock_id ~name:"Warehouse.lock";
  }

(* Every access to the lock-guarded view state goes through here so the
   sanitizer sees the acquire/release edges Mutex.protect provides. *)
let locked ~site ~wr w f =
  Mutex.protect w.lock (fun () ->
      Dsan.acquire ~site w.ds_lock;
      if wr then Dsan.write ~site w.ds_obj 0 else Dsan.read ~site w.ds_obj 0;
      Fun.protect ~finally:(fun () -> Dsan.release ~site w.ds_lock) f)

let pin w = locked ~site:__POS__ ~wr:false w (fun () -> w.current)
let view_epoch v = v.v_epoch
let view_graph v = v.v_graph
let graph w = (pin w).v_graph
let scope_size w = Skolem.size (pin w).v_scope
let last_runs w = Gav.runs (pin w).v_logs

let refresh_count w =
  locked ~site:__POS__ ~wr:false w (fun () -> w.refreshes)

let last_refresh w =
  locked ~site:__POS__ ~wr:false w (fun () -> w.last_stats)

let faults w = match w.fault with Some c -> Fault.reports c | None -> []

let stale w =
  versions w.sources
  <> locked ~site:__POS__ ~wr:false w (fun () -> w.seen_versions)

(* Re-integrate if any source changed and install the result as the
   new view; returns the old and new views' graphs when it ran.  The
   new graph is built completely before the view swap, so concurrent
   readers holding {!pin}ned views never observe a half-refreshed mix. *)
let reintegrate ?jobs w =
  if stale w then begin
    let jobs = match jobs with Some j -> j | None -> w.jobs in
    let old = pin w in
    let prev = locked ~site:__POS__ ~wr:false w (fun () -> w.seen_versions) in
    let g, stats, scope, logs =
      integrate_now ~jobs ~prev ~reuse:old w.options ~clock:w.clock
        ~snapshots:w.snapshots ~fault:w.fault w.sources w.mappings
    in
    let vs = versions w.sources in
    let epoch = locked ~site:__POS__ ~wr:false w (fun () -> w.refreshes) + 1 in
    let view =
      { v_epoch = epoch; v_graph = g; v_scope = scope; v_logs = logs }
    in
    locked ~site:__POS__ ~wr:true w (fun () ->
        w.current <- view;
        w.seen_versions <- vs;
        w.refreshes <- w.refreshes + 1;
        w.last_stats <- stats);
    Some (old.v_graph, g)
  end
  else None

(** Re-integrate if any source changed; returns whether a rebuild
    happened. *)
let refresh ?jobs w = Option.is_some (reintegrate ?jobs w)

(** Delta refresh ([strudel watch]'s ingest leg): re-integrate if
    stale, install the fresh graph as the new view, and return the
    structural delta between the two views.  No whole-graph rebase is
    needed: a reloaded source keeps the oids of the objects it shares
    with its previous load ({!Source.update}), and the integration runs
    under a scope reusing the previous one's oids, so every object both
    views hold already carries one oid.  [None] when no source changed;
    [Some Delta.empty] when sources bumped versions without changing
    content.  Fault policies (quarantine / retry / stale-snapshot)
    apply exactly as in {!refresh} — a quarantined source serves its
    previous data, so its objects simply do not appear in the delta. *)
let refresh_delta ?jobs w =
  Option.map
    (fun (old, g) -> Sgraph.Delta.diff ~old g)
    (reintegrate ?jobs w)

let find_source w name =
  List.find_opt (fun s -> Source.name s = name) w.sources

let pp_outcome ppf = function
  | Changed -> Fmt.string ppf "changed"
  | Unchanged -> Fmt.string ppf "unchanged"
  | Quarantined why -> Fmt.pf ppf "quarantined (%s)" why

let pp_stats ppf stats =
  List.iter
    (fun st ->
      Fmt.pf ppf "  %-20s v%-3d %8.2fms  %a@." st.ss_source st.ss_version
        st.ss_duration_ms pp_outcome st.ss_outcome)
    stats
