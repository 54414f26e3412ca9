(** Skolem functions for the construction stage of StruQL.

    By definition, a Skolem function applied to the same inputs produces
    the same node oid — [YearPage(1997)] always denotes one object
    within a construction scope.  A scope is shared by all the queries
    that build one site graph, so composed queries agree on the objects
    they create. *)

type t
(** A Skolem scope: the memo table from (function name, arguments) to
    created oids. *)

type arg =
  | A_oid of Oid.t
  | A_val of Value.t  (** a value, or a label bound to an arc variable *)

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

val apply : t -> string -> arg list -> Oid.t * bool
(** [apply scope f args] returns the oid for the Skolem term
    [f(args)], creating it on first use.  The boolean is [true] when
    the oid was created by this call. *)

val adopt : t -> Oid.t -> unit
(** [adopt scope o] enters the term that the [reuse] scope built [o]
    for into [scope], under the same oid: the effect {!apply} of that
    term would have, for a caller replaying a recorded construction
    instead of evaluating it again.  A no-op when [scope] holds [o]
    already.  Raises [Invalid_argument] when neither scope knows [o]. *)

val find : t -> string -> arg list -> Oid.t option
(** The oid for the term if it has been created already. *)

val term_name : string -> arg list -> string
(** Printable form of the Skolem term, e.g. ["YearPage(1997)"]. *)

val functions : t -> string list
(** All Skolem function names used in this scope so far. *)

val created : t -> string -> Oid.t list
(** All oids created by the given function, in creation order. *)

val size : t -> int

val term_of : t -> Oid.t -> (string * arg list) option
(** The Skolem term that created the oid, if it was created in this
    scope — the inverse of {!apply}.  Used by the click-time evaluator
    to rebind a page's defining variables. *)
