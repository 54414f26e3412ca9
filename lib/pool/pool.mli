(** Persistent worker-domain pool and its one batch loop.

    Spawning and joining an OCaml domain took a median of 0.1–0.3 ms
    in a probe on a 2-vCPU host, and in some runs up to half of the
    spawns took 3–4 ms — comparable to rendering dozens of pages — so
    a per-batch [Domain.spawn]/[Domain.join] cycle can dominate
    parallel work at small and medium sizes.  This pool spawns workers
    once, parks them on a condition variable between jobs, and reuses
    them for the life of the process: every parallel batch in the
    system (page rendering, the warehouse's source loads) and the
    serving daemon's workers run on {!shared}, so only the first
    parallel call of a process pays the spawn cost.  A parked worker
    still takes part in every minor collection, which is why {!iter}
    never asks for more participants than the machine has domains.

    {!run} executes one {e job}: [f w] for every participant index
    [w ∈ 0..jobs-1], with [f 0] on the calling domain and the rest on
    pool workers.  Exceptions from any participant are re-raised on the
    caller after every participant finished — a job never leaves a
    worker running.  If the pool is already executing a job (a
    concurrent build from another domain, or a call from inside a
    running job), the call falls back to ephemeral domains, so [run]
    never blocks on an unrelated job and never nests a pool inside
    itself.

    {!iter} is the batch loop on top of it: the items [0..n-1] are cut
    into contiguous chunks, and the participants claim chunks from one
    atomic cursor until none is left, so a participant that drew cheap
    items simply claims more.  Which participant runs which chunk is
    scheduling-dependent; determinism must come from writing results
    into per-item slots, never from execution order. *)

val auto_jobs : unit -> int
(** The domain count to use when the caller asked for automatic
    parallelism ([--jobs 0]): [Domain.recommended_domain_count], read
    once at startup and clamped to at least 1. *)

type t

val shared : t
(** The process-wide pool; workers are spawned lazily by {!run} and
    joined by an [at_exit] hook. *)

val run : t -> jobs:int -> (int -> unit) -> unit
(** [run t ~jobs f] executes [f 0] on the caller and [f w] for
    [w = 1..jobs-1] on pool workers (spawning any the pool does not
    have yet), and returns when all of them finished.  The first
    exception raised by any participant (the caller's own first) is
    re-raised after the join.  [jobs <= 1] is just [f 0].  Unlike
    {!iter}, [run] takes [jobs] as given: the serving daemon's
    participants spend their time blocked on connections, not on a
    core. *)

val iter : t -> jobs:int -> int -> (int -> int -> int -> unit) -> unit
(** [iter t ~jobs n f] calls [f w lo hi] once for each chunk [lo..hi-1]
    of a partition of [0..n-1] into contiguous chunks, [w] being the
    participant that claimed it.  At most [jobs] participants take part
    (fewer when there are fewer chunks, and never more than the
    machine's domain count, {!auto_jobs}[ ()]), through {!run}, so
    [w < jobs], no two calls with the same [w] overlap, and every write
    [f] made is visible to the caller when [iter] returns.  An exception is
    re-raised as {!run} does, after every participant finished; the
    other participants keep claiming chunks until none is left. *)
