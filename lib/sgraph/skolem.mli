(** Skolem functions for the construction stage of StruQL.

    By definition, a Skolem function applied to the same inputs produces
    the same node oid — [YearPage(1997)] always denotes one object
    within a construction scope.  A scope is shared by all the queries
    that build one site graph, so composed queries agree on the objects
    they create.

    A term is keyed by its function symbol and its arguments without
    any polymorphic hash or compare: a symbol by its name, whose hash
    {!fn} computes once; an oid by its id; a value by {!Value.hash}
    and {!Value.equal} ([Int 1] and [Float 1.0] are two keys, as are
    [Int 1] and [String "1"], and [0.0] and [-0.0]; a NaN meets
    itself). *)

type t
(** A Skolem scope: the memo table from (function, arguments) to
    created oids. *)

type fn
(** A Skolem function symbol, resolved once for every application. *)

val fn : string -> fn

val create : ?reuse:t -> unit -> t
(** An empty scope.  With [reuse] — the scope of an earlier run of the
    same queries — a term [reuse] created gets [reuse]'s oid back
    instead of a fresh one, so a re-run keeps the oid of every term it
    builds again.  Only the terms built again enter the new scope: it
    holds one run's terms, however many runs preceded it.  The new
    scope refers to [reuse] until {!forget_reuse}. *)

val forget_reuse : t -> unit
(** Drop the link to the scope given as [reuse], once the run that
    reuses its oids is over, so the earlier scope can be collected. *)

val apply : t -> fn -> Graph.target array -> Oid.t * bool
(** [apply scope f args] returns the oid for the Skolem term
    [f(args)], creating it on first use; a new oid is named by the
    term's printed form, e.g. ["YearPage(1997)"], an oid argument
    printing as its name.  The boolean is [true] when the oid was
    created by this call.  [args] is read, never kept, so a caller may
    refill one array for every application. *)

val adopt : t -> Oid.t -> unit
(** [adopt scope o] enters the term that the [reuse] scope built [o]
    for into [scope], under the same oid: the effect {!apply} of that
    term would have, for a caller replaying a recorded construction
    instead of evaluating it again.  A no-op when [scope] holds [o]
    already.  Raises [Invalid_argument] when neither scope knows [o]. *)

val size : t -> int
(** The number of terms the scope holds. *)

val term_of : t -> Oid.t -> (string * Graph.target list) option
(** The Skolem term that created the oid, if it was created in this
    scope — the inverse of {!apply}.  Used by the click-time evaluator
    to rebind a page's defining variables. *)
