(** Persistent worker-domain pool and its chunked batch loop.  See
    the interface for the design; the implementation notes below cover
    the synchronization.

    Dsan instrumentation: every mutex is registered with a lock id and
    the job state with an object id, so a sanitized run checks the
    protocol this file's comments claim — job state only under [t.m],
    the caller-observes-worker-writes edge provided by the join
    barrier.  [Condition.wait] is modeled as release-before /
    acquire-after, which is exactly what it does to the mutex. *)

(* read once: it is a system call, and [iter] runs once per render
   wave *)
let domain_count = max 1 (Domain.recommended_domain_count ())

let auto_jobs () = domain_count

(* --- The persistent pool --- *)

(* A job carries the closure, the participant budget and the join
   state.  Workers park in [worker_loop] on [cv]; publishing a job
   bumps [epoch] and broadcasts; each woken worker claims the next
   participant index (or skips the epoch if the job is fully claimed —
   the pool may hold more workers than this job wants).  The caller
   waits on the same condition variable for [remaining] to hit zero,
   which also provides the happens-before edge publishing every
   worker's writes (result slots, stat arrays) to the caller. *)
type job = {
  f : int -> unit;
  jobs : int;
  mutable next_id : int;
  mutable remaining : int;
  mutable error : exn option;
}

type t = {
  m : Mutex.t;
  cv : Condition.t;
  mutable handles : unit Domain.t list;
  mutable nworkers : int;
  mutable job : job option;
  mutable epoch : int;
  mutable quit : bool;
  busy : Mutex.t;  (* held across a pooled [run]; try-locked only *)
  (* sanitizer identities: field 0 = everything guarded by [m] (job,
     epoch, handles, nworkers, quit and the published job's fields) *)
  ds_obj : int;
  ds_m : int;
  ds_busy : int;
}

let create () =
  let t =
    {
      m = Mutex.create ();
      cv = Condition.create ();
      handles = [];
      nworkers = 0;
      job = None;
      epoch = 0;
      quit = false;
      busy = Mutex.create ();
      ds_obj = Dsan.alloc ~name:"Pool";
      ds_m = Dsan.lock_id ~name:"Pool.m";
      ds_busy = Dsan.lock_id ~name:"Pool.busy";
    }
  in
  at_exit (fun () ->
      Mutex.lock t.m;
      Dsan.acquire ~site:__POS__ t.ds_m;
      t.quit <- true;
      Condition.broadcast t.cv;
      let hs = t.handles in
      t.handles <- [];
      Dsan.release ~site:__POS__ t.ds_m;
      Mutex.unlock t.m;
      List.iter Domain.join hs);
  t

let shared = create ()

(* [Condition.wait] releases the mutex while blocked and reacquires it
   before returning — mirror that for the sanitizer. *)
let dsan_wait ~site t =
  Dsan.release ~site t.ds_m;
  Condition.wait t.cv t.m;
  Dsan.acquire ~site t.ds_m

let finish_participant t j err =
  Mutex.lock t.m;
  Dsan.acquire ~site:__POS__ t.ds_m;
  Dsan.write ~site:__POS__ t.ds_obj 0;
  (match err with
   | Some _ when j.error = None -> j.error <- err
   | _ -> ());
  j.remaining <- j.remaining - 1;
  if j.remaining = 0 then Condition.broadcast t.cv;
  Dsan.release ~site:__POS__ t.ds_m;
  Mutex.unlock t.m

let rec worker_loop t last =
  Mutex.lock t.m;
  Dsan.acquire ~site:__POS__ t.ds_m;
  while (not t.quit) && t.epoch = last do
    dsan_wait ~site:__POS__ t
  done;
  if t.quit then begin
    Dsan.release ~site:__POS__ t.ds_m;
    Mutex.unlock t.m
  end
  else begin
    let epoch = t.epoch in
    let claim =
      Dsan.write ~site:__POS__ t.ds_obj 0;
      match t.job with
      | Some j when j.next_id < j.jobs ->
        let id = j.next_id in
        j.next_id <- id + 1;
        Some (j, id)
      | _ -> None
    in
    Dsan.release ~site:__POS__ t.ds_m;
    Mutex.unlock t.m;
    (match claim with
     | Some (j, id) ->
       let err = try j.f id; None with e -> Some e in
       finish_participant t j err
     | None -> ());
    worker_loop t epoch
  end

(* Spawn with [t.m] held: the new domain blocks on the mutex until the
   caller publishes the job, so it cannot miss the epoch it was spawned
   for. *)
let ensure_workers t wanted =
  while t.nworkers < wanted do
    let birth = t.epoch in
    let tok = Dsan.fork () in
    t.handles <-
      Domain.spawn (fun () ->
          Dsan.born tok;
          worker_loop t birth)
      :: t.handles;
    t.nworkers <- t.nworkers + 1
  done

(* Fallback when the pool is busy with another job (a concurrent
   build, or a batch started inside a running one): plain spawn/join. *)
let run_ephemeral ~jobs f =
  let doms =
    List.init (jobs - 1) (fun k ->
        let w = k + 1 in
        let tok = Dsan.fork () in
        let d =
          Domain.spawn (fun () ->
              Dsan.born tok;
              Fun.protect ~finally:(fun () -> Dsan.dying tok) (fun () -> f w))
        in
        (d, tok))
  in
  let caller_err = try f 0; None with e -> Some e in
  let worker_errs =
    List.map
      (fun (d, tok) ->
        let r = try Domain.join d; None with e -> Some e in
        Dsan.joined tok;
        r)
      doms
  in
  match caller_err, List.find_opt Option.is_some worker_errs with
  | Some e, _ -> raise e
  | None, Some (Some e) -> raise e
  | None, _ -> ()

let run t ~jobs f =
  if jobs <= 1 then f 0
  else if not (Mutex.try_lock t.busy) then run_ephemeral ~jobs f
  else begin
    Dsan.acquire ~site:__POS__ t.ds_busy;
    Fun.protect
      ~finally:(fun () ->
        Dsan.release ~site:__POS__ t.ds_busy;
        Mutex.unlock t.busy)
      (fun () ->
        let j = { f; jobs; next_id = 1; remaining = jobs - 1; error = None } in
        Mutex.lock t.m;
        Dsan.acquire ~site:__POS__ t.ds_m;
        ensure_workers t (jobs - 1);
        Dsan.write ~site:__POS__ t.ds_obj 0;
        t.job <- Some j;
        t.epoch <- t.epoch + 1;
        Condition.broadcast t.cv;
        Dsan.release ~site:__POS__ t.ds_m;
        Mutex.unlock t.m;
        let caller_err = try f 0; None with e -> Some e in
        Mutex.lock t.m;
        Dsan.acquire ~site:__POS__ t.ds_m;
        while j.remaining > 0 do
          dsan_wait ~site:__POS__ t
        done;
        Dsan.write ~site:__POS__ t.ds_obj 0;
        t.job <- None;
        Dsan.release ~site:__POS__ t.ds_m;
        Mutex.unlock t.m;
        match caller_err, j.error with
        | Some e, _ | None, Some e -> raise e
        | None, None -> ())
  end

(* The batch loop: chunks are claimed from one atomic cursor, so a
   participant that drew cheap items simply claims more.  Nothing is
   shared between participants but the cursor; each item's result
   lives in the caller's per-index slot, which [run]'s join publishes. *)
let iter t ~jobs n f =
  (* a participant beyond the domain count only queues for a core, and
     the worker it took stays parked in the pool for good, joining
     every later minor collection *)
  let jobs = max 1 (min jobs domain_count) in
  (* several chunks per participant so skewed item costs even out,
     capped so a small batch still forms whole chunks *)
  let chunk = max 1 (min 64 ((n + (jobs * 8) - 1) / (jobs * 8))) in
  let nchunks = (n + chunk - 1) / chunk in
  let cursor = Atomic.make 0 in
  let rec claim w =
    Dsan.yield ~site:__POS__;
    let k = Atomic.fetch_and_add cursor 1 in
    if k < nchunks then begin
      f w (k * chunk) (min n ((k + 1) * chunk));
      claim w
    end
  in
  run t ~jobs:(min jobs nchunks) claim
