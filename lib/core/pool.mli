(** Persistent worker-domain pool and work-stealing chunk queues.

    Spawning an OCaml domain costs close to a millisecond — comparable
    to rendering dozens of pages — so the old per-wave
    [Domain.spawn]/[Domain.join] cycle dominated parallel
    materialization at small and medium site sizes.  This pool spawns
    workers once, parks them on a condition variable between jobs, and
    reuses them across builds: {!Render_pool.materialize} and the bench
    harness share {!shared}, so only the first parallel build of a
    process pays the spawn cost.

    {!run} executes one {e job}: [f w] for every worker index
    [w ∈ 0..jobs-1], with [f 0] on the calling domain and the rest on
    pool workers.  Exceptions from any participant are re-raised on the
    caller after every participant finished — a job never leaves a
    worker running.  If the pool is already executing a job (a
    concurrent build from another domain), the call transparently falls
    back to ephemeral domains, so [run] never blocks on an unrelated
    build and never nests a pool inside itself.

    {!Work} is the companion scheduling structure: a batch of [total]
    items is cut into contiguous chunks and the chunks are dealt out in
    contiguous runs to per-worker deques.  A worker takes from the
    front of its own deque and, when that is empty, steals from the
    back of a victim's — classic work stealing at chunk granularity, so
    the deque mutexes are touched once per chunk, not once per item.
    Which worker executes which chunk is scheduling-dependent;
    determinism of the overall computation must come from writing
    results into per-item slots, never from execution order. *)

val auto_jobs : unit -> int
(** The domain count to use when the caller asked for automatic
    parallelism ([--jobs 0]): [Domain.recommended_domain_count],
    clamped to at least 1. *)

(** {1 Work-stealing chunk queues} *)

module Work : sig
  type t

  val create : total:int -> workers:int -> t
  (** Cut [0..total-1] into chunks (sized so each worker sees several —
      small enough to balance skewed item costs, large enough to keep
      per-chunk locking negligible) and deal them to [workers] deques
      in contiguous runs. *)

  val take : t -> int -> (int * int) option
  (** [take t w] returns the next chunk [(lo, hi)] (item indexes
      [lo..hi-1]) for worker [w]: the front of [w]'s own deque, or a
      chunk stolen from the back of another worker's.  [None] when
      every deque is empty. *)

  val steals : t -> int
  (** Chunks executed by a worker other than the one they were dealt
      to. *)
end

(** {1 The persistent pool} *)

type t

val create : unit -> t
(** An empty pool; workers are spawned lazily by {!run} and joined by
    an [at_exit] hook. *)

val shared : t
(** The process-wide pool every parallel build amortizes its domains
    over. *)

val live_workers : t -> int
(** Worker domains currently parked in the pool (0 before the first
    parallel [run]). *)

val run : t -> jobs:int -> (int -> unit) -> unit
(** [run t ~jobs f] executes [f 0] on the caller and [f w] for
    [w = 1..jobs-1] on pool workers (spawning any the pool does not
    have yet), and returns when all of them finished.  The first
    exception raised by any participant (the caller's own first) is
    re-raised after the join.  [jobs <= 1] is just [f 0]. *)
