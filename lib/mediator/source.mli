(** Data-source abstraction for the mediator.

    A source wraps an external data set (a relational table, a BibTeX
    file, structured files, HTML pages) behind a loader producing a
    graph.  Sources carry a version counter so the warehouse detects
    staleness, and may declare {e limited access patterns} — inputs
    that must be bound before the source can be queried (§2.4), which
    the planner honours via [Plan.plan ~limited]. *)

open Sgraph

type access_pattern = {
  requires_bound : string list;
      (** attributes that must be bound to access the source *)
}

type t

val make :
  ?access:access_pattern -> ?policy:Fault.Policy.t -> name:string ->
  (unit -> Graph.t) -> t
(** [policy] governs what {!load_with} does when the loader fails:
    retry/backoff, then fail-fast (the default), skip the source, or
    serve a stale snapshot. *)

val of_graph :
  ?access:access_pattern -> ?policy:Fault.Policy.t -> name:string ->
  Graph.t -> t

val name : t -> string
val version : t -> int

val policy : t -> Fault.Policy.t

val update : t -> (unit -> Graph.t) -> unit
(** Replace the source's contents (a new export arrived); bumps the
    version so the warehouse knows to refresh.  The next load rebases
    the new graph onto the one the source yielded before
    ({!Sgraph.Delta.rebase}, nodes matched by name, every index order
    kept), so objects surviving the export keep their oids; a loader
    returning that same graph is used as is. *)

val load : t -> Graph.t
(** Load through the per-version cache; loader failures propagate (the
    pre-fault behavior, regardless of policy). *)

(** Outcome of a load attempt, before the fault policy is applied. *)
type loaded =
  | Cached of Graph.t  (** wrapper cache already holds this version *)
  | Fresh of Graph.t  (** loader succeeded (possibly after retries) *)
  | Load_failed of exn * int  (** last exception, attempts made *)

val load_attempt : ?clock:Fault.Clock.t -> ?fault:Fault.ctx -> t -> loaded
(** The first, parallel-safe phase of {!load_with}: cache check, then
    injection + retry/backoff.  Mutates only this source's own fields,
    so distinct sources may attempt concurrently (the warehouse's
    parallel refresh does); records nothing into the fault context and
    writes no snapshot store. *)

val settle :
  ?snapshots:Repository.Store.t -> ?fault:Fault.ctx -> t -> loaded ->
  Graph.t option
(** The second, sequential phase: persist a [Fresh] load's snapshot and
    resolve a [Load_failed] under the source's policy (re-raise, skip,
    or serve stale), recording faults.  [load_with] is exactly
    [settle] ∘ [load_attempt]. *)

val load_with :
  ?clock:Fault.Clock.t -> ?snapshots:Repository.Store.t ->
  ?fault:Fault.ctx -> t -> Graph.t option
(** Load under the source's fault policy: failed attempts (including
    injected [Load] faults from the context's injector) retry with
    exponential backoff on [clock] until the policy exhausts; a
    successful load is cached and, given [snapshots], persisted as the
    source's last good snapshot (graph name ["source:<name>"]).  On
    exhaustion, [Fail_fast] re-raises; [Skip_source] records a fault
    and yields [None]; [Stale age] serves the last good snapshot when
    it is at most [age] versions behind (recording how stale it is),
    else records and yields [None]. *)

val requires_bound : t -> string list
