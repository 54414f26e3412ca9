(** Cross-cutting fault tolerance for the ingest-to-publish pipeline.

    One {!report} per quarantined record, skipped source or degraded
    page; a {!ctx} collects them and optionally carries a seeded,
    deterministic fault {!Inject}or; {!Policy} + {!Retry} + {!Clock}
    give source loads retry/backoff/deadline semantics on real or
    virtual time; {!Manifest} is the machine-readable build outcome
    ([faults.json], exit codes [0] clean / [3] degraded / [1] failed).
    A pipeline that never passes a [ctx] behaves exactly as before:
    the first fault aborts. *)

(* --- Reports --- *)

type stage =
  | Ingest      (** wrapper parsing / source loading *)
  | Integrate   (** mediation: mappings over sources *)
  | Render      (** HTML generation of one page *)

val stage_name : stage -> string
val stage_of_name : string -> stage option

type report = {
  f_stage : stage;
  f_source : string;    (** source / graph / site the fault belongs to *)
  f_location : string;  (** "line 12, column 3", "entry 7", a page URL *)
  f_cause : string;     (** what went wrong *)
  f_excerpt : string;   (** raw input excerpt (possibly truncated) *)
}

val report :
  stage:stage -> source:string -> location:string -> cause:string ->
  ?excerpt:string -> unit -> report
(** Build a report; the excerpt is whitespace-flattened and clipped so
    a multi-megabyte malformed record cannot balloon a manifest. *)

val pp_report : Format.formatter -> report -> unit

(* --- Fault injection --- *)

module Inject : sig
  exception Injected of string
  (** The fault an armed injector raises at a chosen point. *)

  type point =
    | Load of string * int   (** source name, attempt number *)
    | Parse of string * int  (** source name, record index *)
    | Render_page of string  (** page object name *)

  val point_name : point -> string

  type t

  val create :
    ?seed:int -> ?p_load:float -> ?p_parse:float -> ?p_render:float ->
    ?targets:string list -> unit -> t
  (** A seeded injector.  Probabilities are per-point; decisions are a
      pure hash of (seed, point) — deterministic, order-independent and
      domain-safe, so jobs ∈ {1,4} builds fault identically.  With
      [targets] non-empty, only points whose source/page name is listed
      can fail. *)

  val arm : t -> unit
  val disarm : t -> unit
  (** Clear the faults: every subsequent decision is "no fault" — the
      recovery half of the differential property. *)

  val armed : t -> bool
  val should_fail : t -> point -> bool

  val fire : t option -> point -> unit
  (** Raise {!Injected} at [point] if the (optional) injector decides
      to; the no-injector and disarmed cases are free. *)
end

(* --- The fault context threaded through the pipeline --- *)

type ctx

val ctx : ?inject:Inject.t -> unit -> ctx
val record : ctx -> report -> unit
val reports : ctx -> report list
(** Recorded reports, oldest first. *)

val fault_count : ctx -> int
val clear : ctx -> unit

val inject : ctx option -> Inject.t option
(** The injector of an optional context (for passing down a pipeline). *)

val guard :
  ctx option -> stage:stage -> source:string -> location:string ->
  ?excerpt:string -> (unit -> 'a) -> 'a option
(** Run the thunk; with a context, an exception is recorded as a report
    and [None] returned (the quarantine path); without one it
    propagates (the pre-fault behavior). *)

(* --- Degradation switch for the build stage --- *)

type on_error =
  | Abort    (** first render error kills the build (the default) *)
  | Degrade  (** isolate the page, emit a placeholder, record a fault *)

(* --- Clocks --- *)

module Clock : sig
  type t = {
    now_ms : unit -> float;
    sleep_ms : float -> unit;
  }

  val real : t

  val virtual_ : ?start:float -> unit -> t * (unit -> float list)
  (** A virtual clock: sleeping advances time instantly and records the
      sleep.  Returns the clock and an accessor for the recorded sleeps
      (in call order). *)
end

(* --- Retry policies --- *)

module Policy : sig
  type retry = {
    attempts : int;        (** total attempts, including the first (≥ 1) *)
    base_delay_ms : float; (** delay before the second attempt *)
    multiplier : float;    (** exponential growth factor *)
    max_delay_ms : float;  (** per-wait cap *)
    deadline_ms : float;   (** give up once elapsed time exceeds this *)
  }

  val no_retry : retry
  val default_retry : retry

  type on_failure =
    | Fail_fast    (** re-raise: the pre-fault behavior *)
    | Skip_source  (** drop the source from this integration *)
    | Stale of int
        (** serve the last good snapshot if it is at most this many
            versions behind the current source version *)

  type t = {
    on_failure : on_failure;
    retry : retry;
  }

  val fail_fast : t
  val skip_source : ?retry:retry -> unit -> t
  val stale : ?retry:retry -> int -> t
end

module Retry : sig
  val schedule : Policy.retry -> float list
  (** The planned backoff delays: [attempts - 1] waits, exponential
      from [base_delay_ms], each capped at [max_delay_ms] (the deadline
      then truncates this schedule at run time). *)

  val run :
    ?clock:Clock.t ->
    retry:Policy.retry ->
    ?on_attempt:(attempt:int -> exn -> unit) ->
    (attempt:int -> 'a) ->
    ('a, exn * int) result
  (** Run [f ~attempt] (numbered from 0) under the policy: on
      exception, wait the next backoff delay and retry until the
      attempt budget or deadline is exhausted.  [Error (last_exn,
      attempts_made)] on exhaustion. *)
end

(* --- The build manifest: faults.json --- *)

module Manifest : sig
  type status = Clean | Degraded

  type t

  exception Manifest_error of string

  val make : site:string -> report list -> t
  val status : t -> status
  val status_name : status -> string
  val faults : t -> report list

  val exit_code : t -> int
  (** [0] clean, [3] degraded ([1], a failed build, is produced by the
      aborting process, never by a manifest). *)

  val to_json : t -> string
  val of_json : string -> t
  (** Parse a manifest back ([faults.json]).  Raises {!Manifest_error}
      on malformed input.  Status is recomputed from the fault list. *)

  val pp : Format.formatter -> t -> unit
end
