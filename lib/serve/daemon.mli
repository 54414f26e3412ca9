(** The [strudeld] daemon: transport, worker pool, overload and drain.

    {!serve} runs an accept loop plus [workers] request workers on
    {!Pool.shared} and blocks until the daemon drains.  Every
    accepted connection passes the admission {!Gate} first: over
    [max_inflight] it is {e shed} with [503 + Retry-After] before any
    work happens — the backlog stays bounded, so the tail latency of
    {e admitted} requests stays bounded under overload.

    Robustness contract:
    - {b slow clients} hit read/write timeouts (408 on a stalled
      request, a counted timeout on a stalled response);
    - {b vanished clients} ([EPIPE]/[ECONNRESET], a closed socket) are
      a counted, non-fatal outcome — [SIGPIPE] is ignored process-wide
      by {!install_signal_handlers};
    - {b slow handlers} are bounded by the per-request deadline: an
      overrun answer is replaced with [503] (a handler cannot be
      preempted — the deadline bounds what the client waits for, not
      the worker's CPU time; the serving engine's handler renders
      nothing, so only a stalled domain overruns it);
    - {b graceful drain}: {!stop} (or SIGTERM/SIGINT) stops accepting,
      refuses new connections, finishes in-flight work within
      [drain_deadline_ms], then force-closes whatever remains.

    Time comes from the config's {!Fault.Clock.t} and connections are
    plain records of functions, so the whole behavior — timeouts,
    deadlines, overload, drain — is testable on virtual time with
    synthetic connections: no listening socket, no sleeps, no flaky
    tests.  Exit codes: [0] clean drain, [3] drained degraded, [4]
    drain deadline exceeded (in-flight connections aborted), [1] fatal
    error. *)

exception Timeout
(** A read or write exceeded its timeout. *)

exception Client_closed
(** The peer vanished ([EPIPE], [ECONNRESET], or a close raced a
    read): non-fatal, counted in {!stats}. *)

type conn = {
  c_read : bytes -> int -> int -> int;
      (** like [Unix.read]; raises {!Timeout} or {!Client_closed} *)
  c_write : string -> unit;  (** writes all; same exceptions *)
  c_close : unit -> unit;    (** idempotent *)
  c_peer : string;
}

type listener = {
  l_accept : unit -> conn option;
      (** [None] is a tick: no connection ready, re-check daemon state.
          Must not block indefinitely. *)
  l_close : unit -> unit;
}

val conn_of_fd :
  ?read_timeout_ms:float -> ?write_timeout_ms:float -> Unix.file_descr ->
  conn
(** Wrap a socket with [select]-based timeouts (defaults 10 s);
    [EPIPE]/[ECONNRESET]/[EBADF] map to {!Client_closed}. *)

val tcp_listener :
  ?backlog:int ->
  ?tick_ms:float ->
  ?read_timeout_ms:float ->
  ?write_timeout_ms:float ->
  host:string ->
  port:int ->
  unit ->
  listener * int
(** Bind and listen on [host:port] ([port = 0] picks an ephemeral
    port; the actual one is returned).  [l_accept] waits at most
    [tick_ms] (default 250) before answering [None], so the accept
    loop re-checks the stop flag promptly even without traffic. *)

type config = {
  workers : int;             (** request worker domains (≥ 1) *)
  max_inflight : int;        (** admitted-connection bound; ≤ 0 = unbounded *)
  deadline_ms : float;       (** per-request deadline; ≤ 0 disables *)
  read_timeout_ms : float;
  write_timeout_ms : float;
  drain_deadline_ms : float; (** < 0 waits for in-flight work forever *)
  retry_after_s : int;       (** [Retry-After] on shed responses *)
  clock : Fault.Clock.t;
}

val default_config : config
(** 4 workers, 64 in-flight, 5 s deadline, 10 s read/write timeouts,
    10 s drain deadline, [Retry-After: 1], real clock. *)

type t

val create :
  ?config:config ->
  ?on_drain:(unit -> unit) ->
  ?degraded:(unit -> bool) ->
  handler:(worker:int -> Http.request -> Http.response) ->
  unit ->
  t
(** [on_drain] runs once when drain begins (the engine flips
    [/readyz] there); [degraded] is consulted after the drain for the
    exit code (default: never degraded).  [handler] runs on worker
    domains; [worker] ∈ [0 .. workers-1]. *)

val serve : t -> listener -> unit
(** Run until drained.  Reusable is {e not}: one [serve] per {!t}.
    Raises only on fatal errors (after setting {!exit_code} to 1). *)

val stop : t -> unit
(** Request drain.  Only sets an atomic flag — safe to call from a
    signal handler or any domain; the accept loop notices within a
    listener tick.  Idempotent. *)

val stopping : t -> bool

val exit_code : t -> int
(** After {!serve} returns: [0] clean, [3] degraded, [4] drain
    deadline exceeded, [1] fatal. *)

val install_signal_handlers : t -> unit
(** SIGTERM/SIGINT → {!stop}; SIGPIPE → ignored (a vanished client
    must surface as [EPIPE], the counted outcome, never kill the
    process). *)

type stats = {
  d_served : int;         (** responses written successfully *)
  d_shed : int;
  d_refused : int;
  d_client_aborts : int;
  d_timeouts : int;       (** read (408) and write timeouts *)
  d_deadlines : int;      (** responses replaced by the deadline 503 *)
  d_aborted_inflight : int;
      (** connections force-closed when the drain deadline passed *)
}

val stats : t -> stats
