(** Query planning for the WHERE stage (§2.4).

    A plan is an ordering of a block's conditions, each compiled to an
    access path, possibly interleaved with active-domain enumerators
    for variables that no positive condition binds.  Three strategies
    reproduce the system's evolution: {!Naive} keeps textual order
    (with the minimal reordering needed to run filters after their
    variables bind), {!Heuristic} greedily picks the executable
    condition with the smallest estimated output — the paper's "simple
    heuristic-based optimizer" — and {!Cost_based} enumerates orderings
    by dynamic programming over condition subsets with an index-aware
    cost model, the later optimizer of [FLO 97]. *)

exception Plan_error of string

type strategy = Naive | Heuristic | Cost_based

(** Conditions compiled to resolved, NFA-carrying access paths.  The
    collection-vs-external-predicate resolution of [C_atom] happens
    here, against the registry — the distinction is semantic, not
    syntactic. *)
type ccond =
  | CC_coll of string * Ast.term
  | CC_extern of string * Ast.term list
  | CC_edge of Ast.term * Ast.label_term * Ast.term
  | CC_path of Ast.term * Sgraph.Path.t * Sgraph.Path.nfa * Ast.term
  | CC_cmp of Ast.cmp_op * Ast.term * Ast.term
  | CC_in of Ast.term * Sgraph.Value.t list
  | CC_not of ccond

type step =
  | Exec of ccond
  | Domain_obj of Ast.var    (** bind the variable to every object *)
  | Domain_label of Ast.var  (** bind the variable to every label *)

module VSet : Set.S with type elt = string

val compile : Builtins.registry -> Ast.condition -> ccond

val ccond_vars : Ast.var list -> ccond -> Ast.var list
val ccond_binds : ccond -> Ast.var list
(** Variables the condition binds when executed. *)

val term_bound : VSet.t -> Ast.term -> bool
(** Whether a term is ground given the bound set (constants always;
    variables when in the set). *)

val label_bound : VSet.t -> Ast.label_term -> bool

val executable :
  ?limited:string list -> ?universe:VSet.t -> VSet.t -> ccond -> bool
(** Whether the condition can run given the bound set.  A negation
    waits for every inner variable inside [universe] (the set this
    plan will ever bind); inner variables outside it are existential
    within the [not].  [limited] names collections backed by sources
    with limited access patterns (§2.4): they can test membership of a
    bound object but cannot be enumerated. *)

val step_binds : step -> Ast.var list

(** {1 Collection/label footprint}

    A conservative summary of the graph regions a plan can touch, used
    by the differential engine to skip subtrees a data delta cannot
    reach ({!delta_footprint}). *)

type footprint = {
  fp_collections : string list;  (** collections scanned or probed *)
  fp_labels : string list;  (** edge labels matched by constant *)
  fp_opaque : bool;
      (** the plan also touches regions this summary cannot name (label
          variables, wildcard path edges, external predicates, domain
          enumerators) *)
}

val footprint : step list -> footprint

val delta_footprint : step list -> footprint
(** The footprint a data delta is tested against: {!footprint}, made
    opaque also by a path condition, whose walk can follow the graph's
    node order (and which, when it accepts the empty path, matches every
    node), an order no collection or label signal of a delta reports.
    When it is not opaque, the plan's rows are a function of its
    collections' extents and of its labels' extents, each in order. *)

(** {1 Cost model} *)

type stats = {
  n_nodes : float;
  n_edges : float;
  n_labels : float;
  n_objects : float;
  avg_out : float;  (** mean out-degree — degree statistic for the
                        kernel's direction-aware path work estimates *)
  coll_size : string -> float;
  label_cnt : string -> float;  (** per-label edge count, O(1) from the
                                    graph's indexed buckets *)
}

val stats_of_graph : Sgraph.Graph.t -> stats

val estimate : stats -> VSet.t -> ccond -> float * float
(** [(fanout, work)]: expected output rows per input row, and work per
    input row, given the bound set. *)

(** {1 Planning} *)

exception No_plan of string
(** No ordering satisfies the access patterns: some limited source can
    never be probed with bound arguments. *)

val plan :
  ?strategy:strategy ->
  ?limited:string list ->
  registry:Builtins.registry ->
  Sgraph.Graph.t ->
  bound:Ast.var list ->
  needed_obj:Ast.var list ->
  needed_label:Ast.var list ->
  Ast.condition list ->
  step list
(** Plan a block's conditions.  [bound] are variables already bound by
    ancestor blocks; [needed_obj]/[needed_label] the construction
    variables of the block (object vs arc positions), which receive
    active-domain enumerators when no condition binds them. *)

val pp_step : Format.formatter -> step -> unit

(** {1 Differential-evaluation classification}

    Whether a top-level block can be maintained by per-driver
    re-derivation under a data delta (see {!Dexec}): its plan must open
    with an unbound scan of a {e driving} collection, and every later
    step — in the block and in every nested block — must be anchored:
    reading only forward from {e driver-derived} objects, so the
    backward closure of a data delta finds every driver whose rows it
    can change.  Aggregates, negation, active-domain enumerators, opaque
    externs, constant-anchored data reads and cross products fall back,
    with the reason recorded.  This is the one classifier: the delta
    engine, the [explain-analyze] profile and lint code SA070 all call
    it. *)

type delta_class =
  | D_static  (** no generators, and every nested block anchored *)
  | D_driven of string * string * int
      (** driving collection, driver variable, read depth: the most
          forward hops from the driver at which the subtree reads an
          out-bucket (an edge step) or probes a membership (a
          collection condition), {!unbounded_depth} when it has a path
          condition.  A driver's rows are a function of the out-buckets
          and memberships within that many hops of it. *)
  | D_fallback of string  (** why the block must fully re-evaluate *)

val unbounded_depth : int
(** The read depth of a block with a path condition ([max_int]). *)

val delta_class :
  pure:(string -> bool) ->
  plan:(bound:Ast.var list -> Ast.block -> step list) ->
  Ast.block ->
  delta_class
(** Classify a top-level block together with its nested subtree.
    [pure] says whether an external predicate is a pure function of its
    arguments ({!Builtins.pure_extern}).  [plan ~bound b] is the plan of
    [b] when entered with its ancestors' bound variables [bound]; it is
    called once per block of the subtree, top-down, so an engine that
    has already planned the blocks can answer from its own plans. *)
