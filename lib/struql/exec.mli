(** Streaming physical-operator execution of StruQL (§2.4's evaluation
    layer, rebuilt as a pipelined engine): the one engine that evaluates
    whole queries.

    Each {!Plan.step} of a block's plan compiles to a physical operator
    — collection scan or probe, index-backed edge lookup, NFA path
    walk, filter, active-domain enumerator, anti-join for negation —
    and binding rows stream operator-to-operator as an [env Seq.t]
    instead of being materialized between steps.  The construction
    stage consumes the stream row-by-row, so peak memory scales with
    the pipeline's per-row fanout rather than the largest intermediate
    relation.  The pull order equals the row order of applying the plan
    steps one at a time to the whole relation, so the output graph —
    Skolem oids, collections, mutation order — is bit-for-bit the one
    the naive two-stage semantics of §3 builds (the test suite keeps
    that eager evaluator as its reference oracle).

    Every operator carries runtime statistics — rows in/out, access
    path (index vs. scan), largest per-row output batch, optional
    elapsed time — surfaced as [EXPLAIN] ({!explain}: the static plan
    with access paths and cardinality estimates) and [EXPLAIN ANALYZE]
    ({!run_with_profile} + {!pp_profile}: the plan annotated with
    measured row counts). *)

open Sgraph

(** {1 Access paths} *)

(** The physical access path an operator uses, decided statically from
    the variables bound when it runs. *)
type access =
  | Coll_scan of string   (** enumerate a collection *)
  | Coll_probe of string  (** membership test of a bound object *)
  | Extern_filter of string
  | Edge_out              (** out-edges of a bound source (index probe) *)
  | Edge_by_label of string option
      (** label-extent index; [None] when the label variable is bound
          at runtime rather than a constant *)
  | Edge_probe of string option
      (** label-extent index with the target bound too: the operator
          hashes the extent once per run by every key a target can be
          equal under ({!Sgraph.Value.coerce_keys}), and each row
          visits only the entries sharing a key with its target — the
          label-extent scan's rows, in its order *)
  | Edge_in               (** reverse index on a bound target *)
  | Edge_scan             (** full edge scan *)
  | Path_walk             (** NFA walk from a bound source *)
  | Path_scan             (** NFA walk from every node *)
  | Filter                (** pure predicate over bound variables *)
  | Bind_eq               (** equality binding its unbound side *)
  | In_scan               (** enumerate a literal list *)
  | Anti_join             (** negation as failure *)
  | Domain_objects        (** active-domain object enumerator *)
  | Domain_labels         (** active-domain label enumerator *)

val pp_access : Format.formatter -> access -> unit

(** {1 Static plans — EXPLAIN} *)

type op_plan = {
  op_step : Plan.step;
  op_access : access;
  op_est_fanout : float;  (** estimated output rows per input row *)
  op_est_rows : float;    (** estimated cumulative cardinality after this op *)
}

type block_plan = {
  bp_path : string;  (** "1", "2", nested as "1.1", "1.2", ... *)
  bp_steps : op_plan list;
  bp_nested : block_plan list;
}

type query_plan = {
  qp_strategy : Plan.strategy;
  qp_blocks : block_plan list;
}

val plan_query : ?options:Eval.options -> Graph.t -> Ast.query -> query_plan
(** Plan every block of the query (including nested blocks, under
    their ancestors' bound variables) and classify each step's access
    path.  May raise {!Plan.No_plan}. *)

val pp_query_plan : Format.formatter -> query_plan -> unit
val explain : ?options:Eval.options -> Graph.t -> Ast.query -> string
(** The static plan tree, one operator per line with its access path
    and cardinality estimate. *)

(** {1 Runtime profiles — EXPLAIN ANALYZE} *)

type op_stats = {
  os_step : Plan.step;
  os_access : access;
  mutable os_rows_in : int;
  mutable os_rows_out : int;
  mutable os_max_batch : int;
      (** largest per-input-row output batch: the operator's live-buffer
          watermark in the streaming pipeline *)
  mutable os_time : float;  (** cumulative seconds; 0 unless [timed] *)
  mutable os_timed : bool;  (** whether [os_time] was measured *)
}

type block_profile = {
  bpr_path : string;
  bpr_ops : op_stats list;
  mutable bpr_rows : int;  (** rows delivered to the construction stage *)
}

type profile = {
  prf_strategy : Plan.strategy;
  mutable prf_blocks : block_profile list;  (** in evaluation order *)
  mutable prf_rows : int;       (** total rows over all blocks *)
  mutable prf_peak_live : int;
      (** peak simultaneously-live binding rows across the whole run —
          the streaming analogue of the largest intermediate relation
          an eager evaluator materializes *)
  mutable prf_time : float;     (** wall-clock seconds of the whole run *)
  mutable prf_kernel_hits : int;    (** path-engine memo hits *)
  mutable prf_kernel_misses : int;  (** path-engine memo misses *)
  mutable prf_delta_blocks : int;
      (** top-level blocks the differential engine can maintain
          incrementally ({!Plan.delta_class}) *)
  mutable prf_delta_fallback : (string * string) list;
      (** (top-level block path, reason) for blocks whose subtree the
          differential engine replays in full *)
}

val profile_steps : profile -> int
val profile_rows_out : profile -> int
(** Sum of every operator's output rows.  Operator [i]'s output is the
    whole relation after plan step [i], so this is the total size of
    the intermediate relations an eager evaluator would materialize. *)

val pp_profile : Format.formatter -> profile -> unit
(** The measured plan: one operator per line with access path,
    [in=... out=... batch<=...] counters and, when timed, elapsed
    milliseconds. *)

val delta_enabled : bool ref
(** Kill switch for differential (delta) evaluation; cleared, the
    differential layer ([strudel watch], warehouse delta refresh)
    rebuilds cold instead.  Defaults to [true]. *)

(** {1 Whole-query evaluation} *)

val run :
  ?options:Eval.options ->
  ?scope:Skolem.t ->
  ?into:Graph.t ->
  ?emit:Eval.emitter ->
  Graph.t -> Ast.query -> Graph.t
(** Evaluate a query over a data graph.  [scope] shares Skolem terms
    across composed queries; [into] adds to an existing output graph
    (§5.2: "we allowed queries to add nodes and arcs to a graph").
    Without them, a fresh scope and a fresh graph named after the
    query's OUTPUT are used, the graph built by a loader ({!run_all}).
    [emit] observes every construction event
    in mutation order, a distinct Skolem term's node event once per row
    at its first use (the mediator records a mapping's construction
    through it).  Peak memory is bounded by per-row fanout
    instead of intermediate relation size.  Blocks with nested blocks
    materialize their (final) binding relation, which the nested
    pipelines then stream from; if [into] is the data graph itself,
    the engine falls back to materializing every block's relation
    before construction. *)

val run_with_profile :
  ?options:Eval.options ->
  ?timed:bool ->
  ?scope:Skolem.t ->
  ?into:Graph.t ->
  ?emit:Eval.emitter ->
  Graph.t -> Ast.query -> Graph.t * profile
(** [run] with a per-operator profile.  [timed] (default [false])
    additionally measures per-operator elapsed time — it costs two
    clock reads per binding row, so leave it off on hot paths. *)

val run_all :
  ?options:Eval.options ->
  ?timed:bool ->
  ?scope:Skolem.t ->
  ?emit:Eval.emitter ->
  name:string ->
  Graph.t -> Ast.query list -> Graph.t * profile list
(** Evaluate the queries in order over one data graph into one fresh
    graph named [name], under one Skolem scope, with one profile per
    query.  Construction feeds a {!Sgraph.Graph.Loader}, so the output
    exists only once the last query is done; [run] without [into] is
    [run_all] of the one query, named after its OUTPUT. *)

val run_string :
  ?options:Eval.options ->
  ?scope:Skolem.t ->
  ?into:Graph.t ->
  Graph.t -> string -> Graph.t
(** Parse and evaluate in one call. *)

(** {1 Stage 1 alone} *)

val bindings :
  ?options:Eval.options ->
  ?env:Eval.env ->
  ?bound:Ast.var list ->
  ?needed_obj:Ast.var list ->
  ?needed_label:Ast.var list ->
  Graph.t -> Ast.condition list -> Eval.env list
(** The binding relation of a condition list: stage 1 alone, for the
    click-time evaluator and for tests. *)

val bindings_profiled :
  ?options:Eval.options ->
  ?timed:bool ->
  ?env:Eval.env ->
  ?bound:Ast.var list ->
  ?needed_obj:Ast.var list ->
  ?needed_label:Ast.var list ->
  Graph.t -> Ast.condition list -> Eval.env list * op_stats list * int
(** [bindings] plus the per-operator stats and the pipeline's peak
    live-binding count. *)

(** {1 Per-driver stepping} *)

val stepper :
  Graph.t ->
  Builtins.registry ->
  bound:Ast.var list ->
  Plan.step list ->
  Eval.env list ->
  Eval.env list
(** [stepper g reg ~bound steps] builds the operators of one block's
    plan once ([bound]: the variables bound on entry); the returned
    function streams a relation through them and materializes the
    result, in pipeline order.  The differential engine ({!Dexec})
    steps its drivers' rows through it, a block's inputs in one pass. *)
