(** Regular path expressions.

    Conditions of the form [x -> R -> y] in StruQL assert a path from
    [x] to [y] matching the regular path expression [R].  Regular path
    expressions are more general than regular expressions because they
    admit predicates on edge labels; [Any] denotes any edge label
    ([true] in the paper), and [Star (Edge Any)] is the [*] wildcard.

    Expressions compile to NFAs (Thompson construction) and are
    evaluated by searching the product of the automaton with the graph.
    A naive fixpoint evaluator over edge-pair relations is provided as a
    semantics reference for testing. *)

type edge_pred =
  | Label of string                        (** exact label *)
  | Any                                    (** matches every label *)
  | Named_pred of string * (string -> bool)
      (** a named predicate on labels, e.g. [isName] *)

type t =
  | Epsilon
  | Edge of edge_pred
  | Seq of t * t
  | Alt of t * t
  | Star of t
  | Plus of t
  | Opt of t

val any_path : t
(** The [*] abbreviation: [Star (Edge Any)]. *)

val seq_all : t list -> t
(** Concatenation of a label path, [Epsilon] when empty. *)

val edge_pred_matches : edge_pred -> string -> bool
val nullable : t -> bool
(** Whether the expression matches the empty path. *)

type nfa

val compile : t -> nfa
val nfa_states : nfa -> int

val nfa_start_states : nfa -> int list
(** The ε-closure of the start state. *)

val nfa_is_accepting : nfa -> int -> bool

val nfa_transitions : nfa -> int -> (edge_pred * int list) list
(** Outgoing labelled transitions of a state; each target is given as
    the ε-closure of the state the edge enters.  With
    {!nfa_start_states} and {!nfa_is_accepting} this is enough to walk
    the automaton against another transition system (e.g. a DataGuide
    product). *)

(** {1 Dense dispatch against a label alphabet}

    A {!matcher} compiles the automaton against a fixed array of edge
    labels: successor states of (state, label index) become a dense
    int-array row, with [Named_pred] predicates evaluated once per
    (state, label) at build time.  Clients walking the automaton
    against another transition system (DataGuide products, lint
    path-emptiness) pay array indexing per step instead of predicate
    calls over transition lists. *)

type matcher

val matcher : nfa -> labels:string array -> matcher
val matcher_start : matcher -> int array
val matcher_accepting : matcher -> int -> bool
val matcher_row : matcher -> int -> int -> int array
(** [matcher_row m state label] — successor states over an edge
    carrying [labels.(label)], in product-BFS push order. *)

(** {1 Evaluation}

    Evaluation runs on a compiled kernel over the graph's live slot
    adjacency ({!Graph.Slots}): per-state dispatch rows over the
    graph's label ids, an epoch-stamped (state, object) visited table
    and a per-source result memo shared by every source a compiled
    automaton is evaluated from, and a backward lane over the
    incoming-edge index for bound targets.  The kernel state lives
    with the automaton, for the graph it last ran on (and only while
    that graph is alive), and is keyed to the graph's
    {!Graph.generation}: a mutation drops the memos.  An automaton's
    kernel state is not shared between domains: evaluate one compiled
    automaton on one domain at a time.  The result {e order} is the
    interpretive product BFS's, which the test suite keeps as its
    oracle, so everything downstream (Skolem oid allocation, golden
    sites, the render cache) sees the BFS's results. *)

val eval_from : ?nfa:nfa -> Graph.t -> t -> Oid.t -> Graph.target list
(** All objects [y] such that a path from the source matching the
    expression ends at [y].  Includes the source itself when the
    expression is nullable.  Deduplicated, deterministic order. *)

type probe = Pnode of Oid.t | Pvalue of Value.t
(** A bound path target: an exact node, or a value matched up to
    {!Value.coerce_equal} (how condition unification compares values). *)

val candidate_sources :
  ?nfa:nfa -> Graph.t -> t -> towards:probe -> Oid.t list option
(** Backward lane: the complete set of source nodes from which a
    matching path can reach the probe, in {!Graph.nodes} order —
    [None] on a graph without the incoming-edge index
    ([~indexed:false]).  The set may be a superset of the exact sources
    only in that callers are expected to re-confirm each candidate
    forward (which the memoized kernel makes cheap); it is never
    missing a source. *)

val matches : ?nfa:nfa -> Graph.t -> t -> Oid.t -> Graph.target -> bool

val eval_pairs : ?nfa:nfa -> Graph.t -> t -> sources:Oid.t list ->
  (Oid.t * Graph.target) list
(** [eval_from] for every source, flattened. *)

val all_objects : Graph.t -> Graph.target list
(** Every object of the graph — internal nodes and the atomic values
    appearing as edge targets (the active domain). *)

val eval_ref : Graph.t -> t -> (Graph.target * Graph.target) list
(** Reference semantics: the relation of all (x, y) pairs connected by a
    matching path, computed by fixpoint over edge relations (no
    automaton).  Intended for tests; quadratic. *)

val pp : Format.formatter -> t -> unit
