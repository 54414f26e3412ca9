(** Data-source abstraction for the mediator.

    A source wraps an external data set (a relational table, a BibTeX
    file, structured files, HTML pages) behind a loader producing a
    graph.  Sources carry a version counter so the warehouse can detect
    staleness, and may declare {e limited access patterns} — attribute
    names that must be bound before the source can be queried, the
    situation §2.4 says is common for semistructured sources and that
    the cost-based optimizer must honour. *)

open Sgraph

type access_pattern = {
  requires_bound : string list;
      (** attributes that must be bound to access the source *)
}

type t = {
  name : string;
  mutable version : int;
  mutable loader : unit -> Graph.t;
  access : access_pattern option;
  mutable cached : (int * Graph.t) option;
  policy : Fault.Policy.t;
  mutable snap_version : int option;
      (** version of the last load that succeeded (and, when a snapshot
          store is in play, of the persisted snapshot) *)
}

let make ?access ?(policy = Fault.Policy.fail_fast) ~name loader =
  {
    name;
    version = 0;
    loader;
    access;
    cached = None;
    policy;
    snap_version = None;
  }

let of_graph ?access ?policy ~name g = make ?access ?policy ~name (fun () -> g)

let name s = s.name
let version s = s.version
let policy s = s.policy

(** Replace the source's contents (a new export arrived); bumps the
    version so the warehouse knows to refresh. *)
let update s loader =
  s.loader <- loader;
  s.version <- s.version + 1

(* Run the loader.  A reload is rebased onto the graph the source
   yielded before, so every object the two share by name keeps its oid
   and mediation over it rebuilds the same Skolem terms; a loader
   handing back that same graph needs no rebase.  O(this source). *)
let reload s =
  let g = s.loader () in
  match s.cached with
  | Some (_, prev) when prev != g -> Delta.rebase ~old:prev g
  | Some _ | None -> g

let load s =
  match s.cached with
  | Some (v, g) when v = s.version -> g
  | _ ->
    let g = reload s in
    s.cached <- Some (s.version, g);
    s.snap_version <- Some s.version;
    g

let snapshot_name s = "source:" ^ s.name

let record_fault fault ~source ~cause =
  match fault with
  | None -> ()
  | Some c ->
    Fault.record c
      (Fault.report ~stage:Fault.Ingest ~source ~location:"load" ~cause ())

(** The first, parallel-safe phase of a fault-aware load: cache check,
    then injection + retry/backoff.  Only this source's own fields are
    mutated (cache, snap version), so distinct sources can attempt
    concurrently; nothing is recorded into the fault context and no
    store is written — that is {!settle}'s job, which stays on the
    caller's thread. *)
type loaded =
  | Cached of Graph.t
  | Fresh of Graph.t
  | Load_failed of exn * int  (** last exception, attempts made *)

let load_attempt ?(clock = Fault.Clock.real) ?fault s =
  match s.cached with
  | Some (v, g) when v = s.version -> Cached g
  | _ -> (
    let inject = Fault.inject fault in
    let attempt_load ~attempt =
      Fault.Inject.fire inject (Fault.Inject.Load (s.name, attempt));
      reload s
    in
    match
      Fault.Retry.run ~clock ~retry:s.policy.Fault.Policy.retry attempt_load
    with
    | Ok g ->
      s.cached <- Some (s.version, g);
      s.snap_version <- Some s.version;
      Fresh g
    | Error (e, attempts) -> Load_failed (e, attempts))

(** The second, sequential phase: persist a fresh load's snapshot and
    resolve a failure under the source's policy. *)
let settle ?snapshots ?fault s = function
  | Cached g -> Some g
  | Fresh g ->
    (match snapshots with
     | Some store ->
       Repository.Store.put store (Graph.copy ~name:(snapshot_name s) g)
     | None -> ());
    Some g
  | Load_failed (e, attempts) -> (
    let cause why =
      Printf.sprintf "load failed after %d attempt(s): %s%s" attempts
        (Printexc.to_string e) why
    in
    match s.policy.Fault.Policy.on_failure with
    | Fault.Policy.Fail_fast -> raise e
    | Fault.Policy.Skip_source ->
      record_fault fault ~source:s.name ~cause:(cause "; source skipped");
      None
    | Fault.Policy.Stale age -> (
      let snapshot =
        match s.snap_version with
        | Some v when s.version - v <= age -> (
          match s.cached with
          | Some (cv, g) when cv = v -> Some (v, g)
          | _ -> (
            match snapshots with
            | Some store -> (
              match Repository.Store.get_opt store (snapshot_name s) with
              | Some g -> Some (v, g)
              | None -> None)
            | None -> None))
        | _ -> None
      in
      match snapshot with
      | Some (v, g) ->
        record_fault fault ~source:s.name
          ~cause:
            (cause
               (Printf.sprintf "; serving stale snapshot (%d version(s) behind)"
                  (s.version - v)));
        Some g
      | None ->
        record_fault fault ~source:s.name
          ~cause:(cause "; no usable snapshot; source skipped");
        None))

(** Load under the source's fault policy: each attempt first gives the
    (optional) injector a chance to fail it, then runs the loader;
    failures retry with exponential backoff on [clock] until the policy
    exhausts.  On success the graph is cached and — given a [snapshots]
    store — persisted as the source's last good snapshot.  On
    exhaustion, [Fail_fast] re-raises (the pre-fault behavior),
    [Skip_source] records the fault and yields [None], and [Stale age]
    serves the last good snapshot if it is at most [age] versions
    behind, preferring the in-memory copy over the store's. *)
let load_with ?clock ?snapshots ?fault s =
  settle ?snapshots ?fault s (load_attempt ?clock ?fault s)

let requires_bound s =
  match s.access with Some a -> a.requires_bound | None -> []
