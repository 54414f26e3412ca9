(** The per-row semantics of StruQL's two-stage evaluation (§3).

    The {e query stage} evaluates a block's WHERE clause to the
    relation of all satisfying assignments of node and arc variables
    (one column per variable), under active-domain semantics; here it
    is one plan step applied to one row ({!exec_step}).  The
    {e construction stage} interprets CREATE / LINK / COLLECT over the
    rows: nodes are created with Skolem functions (same inputs — same
    oid), edges added (only from newly created nodes; existing nodes
    are immutable), collections populated, and aggregate link targets
    grouped by source node.  Each block's construction clauses compile
    once into a construction that builds each distinct Skolem term at
    most once per row ({!compile}, {!row}, {!flush}).

    This module holds no whole-query driver.  {!Exec} runs every query
    (nested blocks inherit their ancestors' bindings, so their WHERE
    clauses are conjoined with the ancestors'), and {!Dexec} maintains
    a query's result under data deltas through {!Exec}'s operators. *)

open Sgraph

exception Eval_error of string

(** A variable binding: an object of the graph, or an arc label. *)
type binding = B_target of Graph.target | B_label of string

module Env : Map.S with type key = string

type env = binding Env.t

(** {1 Stage 1: the query stage} *)

val exec_step : Graph.t -> Builtins.registry -> env -> Plan.step -> env list
(** All extensions of one binding row by one plan step, in a fixed
    order: every engine's row order is built from it. *)

val term_binding : env -> Ast.term -> binding option
(** What a WHERE term denotes under the row: a constant's value, a
    bound variable's binding, [None] for an unbound variable. *)

val match_term : env -> Ast.term -> Graph.target -> env option
(** Unify a term with an object under the row (binding an unbound
    variable; constants and bound values compare with
    {!Sgraph.Value.coerce_equal}) — the test {!exec_step}'s edge scans
    apply to every candidate endpoint. *)

val match_label : env -> Ast.label_term -> string -> env option
(** The same for an arc label. *)

(** {1 Stage 2: the construction stage} *)

(** Construction events, observable through an emitter: exactly the
    graph mutations construction performs, in mutation order.  The
    differential engine ({!Dexec}) records them per driver to maintain
    the site graph under data deltas. *)
type emitter = {
  em_apply : bool;
      (** also perform the graph writes; when [false] the sink only
          observes and the caller applies the events itself *)
  em_node : Oid.t -> unit;
  em_edge : Oid.t -> string -> Graph.target -> unit;
  em_coll : string -> Oid.t -> unit;
}

(** Where construction writes: a graph that is read or mutated while
    it is written (a maintained or click-time graph, or the data graph
    itself), or a loader building a fresh one. *)
type out = Live of Graph.t | Fresh of Graph.Loader.t

(** The construction sinks: the output and the Skolem scope that names
    the nodes it creates, plus an optional observing emitter. *)
type cons = {
  out : out;
  scope : Skolem.t;
  emit : emitter option;
}

(** {2 The compiled construction}

    A block's CREATE / LINK / COLLECT clauses compile once ({!compile})
    into a construction over memo slots, one per distinct Skolem term
    of the block (terms are told apart structurally, nested arguments
    included).  A run feeds the block's rows to a {!builder} in
    relation order and then calls {!flush}; that fixes the mutation
    sequence, and with it the Skolem oids, by the row order alone.

    Within one row, a term is built at its first use — its arguments
    first, so a nested term comes before its parent — and read from its
    slot after that.  The emitter therefore sees each distinct term's
    node event once per row, at its first use; edge and membership
    events come one per clause and row.  Each variable the clauses
    read is looked up in the row once, constant labels are fixed at
    compile time, and every {!Eval_error} is raised where the clause
    reading the faulty operand reaches it, with the rows and clauses
    before it already constructed. *)

type compiled
(** A block's construction clauses, compiled.  Immutable: one value
    serves every run of the block, on any domain. *)

val compile : Ast.block -> compiled

type builder
(** One run of a compiled block into a sink: the row's memo slots and
    the block's aggregate groups.  Not to be shared between domains. *)

val builder : cons -> compiled -> builder

val row : builder -> env -> unit
(** Construct one binding row.  Aggregate link targets only accumulate
    into the groups, keyed by (source node, label, aggregate function
    and inner term), over the distinct values the inner term takes;
    the rest mutates the sink at once. *)

val flush : builder -> unit
(** Fold and emit the accumulated aggregate groups, in the order of
    each group's first row, so the emitted edges do not depend on oid
    numbering; the builder then starts with no groups. *)

val construction_needs : Ast.block -> Ast.var list * Ast.var list
(** Construction variables of a block, split into (object positions,
    arc positions) — the planner's active-domain pre-pass input. *)

val aggregate : Ast.agg_fn -> Graph.target list -> Value.t
(** Fold an aggregate over the distinct values of its group.  [Count]
    counts all objects; the numeric aggregates range over the atomic
    values (non-numeric values are ignored by [sum]/[avg]); [min]/[max]
    fall back to display-string order for incomparable values.  The
    atomic values are folded in a canonical sorted order, so the result
    is the same for every order of [values]. *)

(** {1 Engine options} *)

type options = {
  strategy : Plan.strategy;
  registry : Builtins.registry;
  validate : bool;  (** run {!Check.validate_exn} first *)
}

val default_options : options
(** Heuristic planning, default registry, validation on. *)
