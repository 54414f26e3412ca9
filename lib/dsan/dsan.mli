(** Dsan — a happens-before race sanitizer for the domain-parallel
    runtime.

    An annotation-based dynamic race detector in the sanitizer style:
    the concurrent hot spots of the codebase ({!Pool}, {!Render_pool},
    the {!Sgraph.Graph} reads worker domains share, the warehouse view
    swap, the serving layer) carry explicit instrumentation points,
    and when the sanitizer is enabled every instrumented memory access
    is checked against a
    FastTrack-flavoured vector-clock happens-before relation: two
    accesses to the same (object, field) location, at least one a
    write, from different domains, neither ordered before the other by
    the recorded synchronization (mutex release→acquire, atomic
    publish→consume, domain fork/join) are reported as a data race
    with both access sites, both domains, and the locksets held on
    each side.

    {2 Cost model}

    Every instrumentation point compiles to a single atomic-flag load
    and branch when the sanitizer is disabled (the default), so
    instrumented production code pays ~0.  Enabling ([STRUDEL_DSAN=1]
    in the environment, or {!enable}) switches every point to the slow
    path: a global-lock-protected shadow-memory update — a sanitizer,
    not a production mode.

    {2 Identifiers}

    Instrumented state is named, not inferred: a shared structure
    registers an {e object id} ({!alloc}) and tags its fields with
    small ints; mutexes register {!lock_id}s; release/acquire atomics
    register {!atomic_id}s.  All three share one id space, and ids are
    cheap to mint while disabled, so registration can live in
    constructors.  A name is recorded only while the sanitizer is
    enabled: a report names an object registered while it was off by
    its id (["?<id>"]).

    {2 Soundness and completeness}

    Races are only found on locations that are instrumented, and only
    for access pairs that actually execute — a dynamic detector proves
    the presence of races, never their absence.  Within those limits,
    happens-before detection is schedule-{e insensitive} for a fixed
    access history: any two conflicting accesses with no recorded
    synchronization chain between them are reported no matter which
    interleaving the OS produced.  The seeded {e schedule perturber}
    ({!enable}[ ~seed]) injects deterministic pseudo-random
    [Domain.cpu_relax] bursts at instrumentation points (the
    {!Fault.Inject} pure-hash discipline: a decision is a hash of
    (seed, site, per-domain op counter), never a shared PRNG) so one
    test run explores many interleavings reproducibly. *)

type pos = string * int * int * int
(** An access site: [__POS__] — file, line, start col, end col. *)

(** {1 Switching} *)

val enabled : unit -> bool

val enable : ?seed:int -> unit -> unit
(** Arm the sanitizer.  [seed] (default 0 = off) arms the schedule
    perturber too.  [STRUDEL_DSAN=1] in the environment arms at module
    init, with [STRUDEL_DSAN_SEED] as the perturber seed. *)

val disable : unit -> unit

val reset : unit -> unit
(** Drop shadow memory, recorded races and counters (identifier
    registrations and domain clocks survive — clocks only ever grow,
    so stale ones can at worst add happens-before edges from past
    runs; callers that want full isolation reset {e before} the
    workload, which clears every location the workload will touch). *)

(** {1 Identifiers} *)

val alloc : name:string -> int
(** Register a shared object (a record, an array, a table).  Fields of
    the object are distinguished by the small-int tag passed to
    {!read}/{!write}; for arrays the tag is the index. *)

val lock_id : name:string -> int
(** Register a mutex. *)

val atomic_id : name:string -> int
(** Register a release/acquire publication point (an [Atomic.t], or a
    field intentionally read unlocked under a publication protocol). *)

val registered : unit -> int
(** How many names the registry holds. *)

(** {1 Instrumentation points} *)

val read : site:pos -> int -> int -> unit
(** [read ~site obj field] — a shared read of [(obj, field)]. *)

val write : site:pos -> int -> int -> unit
(** [write ~site obj field] — a shared write of [(obj, field)]. *)

val acquire : site:pos -> int -> unit
(** After [Mutex.lock] (and after [Condition.wait] returns): joins the
    lock's release clock into the caller and pushes it on the caller's
    lockset. *)

val release : site:pos -> int -> unit
(** Before [Mutex.unlock] (and before [Condition.wait] blocks): stores
    the caller's clock into the lock and pops the lockset. *)

val publish : site:pos -> int -> unit
(** Release half of an atomic publication ([Atomic.set]/[exchange]/
    [fetch_and_add], or the guarded write of a double-checked field):
    accumulates the caller's clock into the point's clock. *)

val consume : site:pos -> int -> unit
(** Acquire half ([Atomic.get] or the unlocked fast-path read): joins
    the point's clock into the caller. *)

type token
(** Carries a clock across a domain's lifetime edges. *)

val fork : unit -> token
(** In the parent, before [Domain.spawn]. *)

val born : token -> unit
(** First thing in the child: child inherits the parent's history. *)

val dying : token -> unit
(** Last thing in the child (wrap the closure in [Fun.protect]). *)

val joined : token -> unit
(** In the parent, after [Domain.join]: parent inherits the child's
    history. *)

val yield : site:pos -> unit
(** An explicit perturbation point with no access semantics. *)

(** {1 Reports} *)

type race = {
  r_object : string;     (** registered name of the object *)
  r_field : int;
  r_kind : [ `Write_write | `Read_write ];
  r_site1 : pos;         (** the access already in shadow memory *)
  r_tid1 : int;
  r_locks1 : string list;
  r_site2 : pos;         (** the access that exposed the race *)
  r_tid2 : int;
  r_locks2 : string list;
}

val races : unit -> race list
(** Distinct races recorded since the last {!reset}, in a stable order
    (object, field, sites). *)

val race_count : unit -> int

type stats = {
  st_ops : int;        (** instrumented operations checked *)
  st_locations : int;  (** distinct (object, field) locations touched *)
  st_yields : int;     (** perturbation bursts injected *)
  st_races : int;
}

val stats : unit -> stats

val pp_pos : Format.formatter -> pos -> unit
(** [file:line]. *)

val pp_race : Format.formatter -> race -> unit
