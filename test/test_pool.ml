(* Pool.iter, the batch loop every parallel path runs on: its chunks
   cover 0..n-1 exactly once at every participant budget, a budget
   above the domain count runs on no more domains than the machine
   has, a failing chunk is re-raised only after every participant
   finished and leaves the shared pool usable, and a batch started from
   inside a running one completes on ephemeral domains. *)

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

exception Boom

(* Visit counts per index, plus the number of calls that broke the
   contract: a participant index out of range, an empty or
   out-of-bounds chunk, or two calls of one participant overlapping. *)
let visits ~jobs n =
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  let busy = Array.init jobs (fun _ -> Atomic.make false) in
  let bad = Atomic.make 0 in
  Pool.iter Pool.shared ~jobs n (fun w lo hi ->
      if w < 0 || w >= jobs || lo < 0 || hi > n || lo >= hi then
        Atomic.incr bad
      else begin
        if Atomic.exchange busy.(w) true then Atomic.incr bad;
        for i = lo to hi - 1 do
          Atomic.incr hits.(i)
        done;
        Atomic.set busy.(w) false
      end);
  (Array.map Atomic.get hits, Atomic.get bad)

let once hits = Array.for_all (fun c -> c = 1) hits

(* The unique id of the domain each participant ran on (-1 for one
   that claimed no chunk); slot [w] is written by participant [w]
   only. *)
let participant_domains ~jobs n =
  let ids = Array.make jobs (-1) in
  Pool.iter Pool.shared ~jobs n (fun w _ _ ->
      Unix.sleepf 0.0005;
      ids.(w) <- (Domain.self () :> int));
  ids

(* Fail the chunk holding index [at] at once while the others take a
   little time: the exception must surface only once no chunk is
   running, with every other chunk done. *)
let failing_batch ~jobs ~n ~at =
  let in_flight = Atomic.make 0 in
  let visited = Atomic.make 0 in
  let failed_len = Atomic.make 0 in
  let raised =
    try
      Pool.iter Pool.shared ~jobs n (fun _ lo hi ->
          if lo <= at && at < hi then begin
            Atomic.set failed_len (hi - lo);
            raise Boom
          end;
          Atomic.incr in_flight;
          Unix.sleepf 0.001;
          ignore (Atomic.fetch_and_add visited (hi - lo));
          Atomic.decr in_flight);
      false
    with Boom -> true
  in
  check_bool "the chunk's exception is re-raised" true raised;
  check_int "no chunk still running" 0 (Atomic.get in_flight);
  check_int "every other chunk ran" (n - Atomic.get failed_len)
    (Atomic.get visited)

let suite =
  [
    t "iter: every index visited exactly once at jobs 1, 2, 4, 8" (fun () ->
        List.iter
          (fun jobs ->
            List.iter
              (fun n ->
                let hits, bad = visits ~jobs n in
                let what = Printf.sprintf "n=%d jobs=%d" n jobs in
                check_int (what ^ " contract breaches") 0 bad;
                check_bool (what ^ " each index once") true (once hits))
              [ 0; 1; 63; 64; 65; 1000 ])
          [ 1; 2; 4; 8 ]);
    t "iter: participants capped at the domain count" (fun () ->
        (* every chunk sleeps, so an uncapped budget of 8 would show 8
           domains here: the caller's and every pool worker's *)
        let ids = participant_domains ~jobs:8 1000 in
        let distinct =
          List.sort_uniq Int.compare
            (List.filter (fun id -> id >= 0) (Array.to_list ids))
        in
        check_bool
          (Printf.sprintf "%d distinct domains <= %d"
             (List.length distinct)
             (Domain.recommended_domain_count ()))
          true
          (List.length distinct <= Domain.recommended_domain_count ()));
    t "iter: an exception waits for every participant, the pool runs on"
      (fun () ->
        failing_batch ~jobs:4 ~n:64 ~at:0;
        failing_batch ~jobs:4 ~n:64 ~at:63;
        (* the failed batches spawned the pool's workers; a domain
           spawned now is newer than all of them, so a batch the pool
           runs itself shows only older domains, while one pushed onto
           the busy-pool fallback would show newer ones *)
        let probe =
          Domain.join (Domain.spawn (fun () -> (Domain.self () :> int)))
        in
        let ids = participant_domains ~jobs:4 64 in
        check_bool "the shared pool's own domains ran the next batch" true
          (Array.for_all (fun id -> id < probe) ids);
        let hits, bad = visits ~jobs:4 1000 in
        check_int "contract breaches" 0 bad;
        check_bool "each index once" true (once hits));
    t "iter: a batch inside a running batch completes" (fun () ->
        let outer = 4 and inner = 100 in
        let hits = Array.init (outer * inner) (fun _ -> Atomic.make 0) in
        Pool.iter Pool.shared ~jobs:2 outer (fun _ lo hi ->
            for o = lo to hi - 1 do
              Pool.iter Pool.shared ~jobs:2 inner (fun _ ilo ihi ->
                  for i = ilo to ihi - 1 do
                    Atomic.incr hits.((o * inner) + i)
                  done)
            done);
        check_bool "each inner index once" true
          (once (Array.map Atomic.get hits)));
  ]
