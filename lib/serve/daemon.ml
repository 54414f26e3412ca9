(** The daemon (see the interface). *)

exception Timeout
exception Client_closed

type conn = {
  c_read : bytes -> int -> int -> int;
  c_write : string -> unit;
  c_close : unit -> unit;
  c_peer : string;
}

type listener = {
  l_accept : unit -> conn option;
  l_close : unit -> unit;
}

(* --- Socket transport --- *)

let is_gone = function
  | Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF | Unix.ENOTCONN
  | Unix.ESHUTDOWN ->
    true
  | _ -> false

(* Wait for readiness with a wall-clock deadline, riding out EINTR
   (signals land in select all the time under drain). *)
let wait_ready ~for_read fd timeout_ms =
  let deadline = Unix.gettimeofday () +. (timeout_ms /. 1000.) in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then raise Timeout;
    let r, w = if for_read then ([ fd ], []) else ([], [ fd ]) in
    match Unix.select r w [] left with
    | [], [], _ -> raise Timeout
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (e, _, _) when is_gone e -> raise Client_closed
  in
  go ()

let conn_of_fd ?(read_timeout_ms = 10_000.) ?(write_timeout_ms = 10_000.) fd =
  let closed = Atomic.make false in
  let rec read b off len =
    wait_ready ~for_read:true fd read_timeout_ms;
    match Unix.read fd b off len with
    | n -> n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read b off len
    | exception Unix.Unix_error (e, _, _) when is_gone e -> raise Client_closed
  in
  let write s =
    let n = String.length s in
    let pos = ref 0 in
    while !pos < n do
      wait_ready ~for_read:false fd write_timeout_ms;
      match Unix.write_substring fd s !pos (n - !pos) with
      | w -> pos := !pos + w
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (e, _, _) when is_gone e ->
        raise Client_closed
    done
  in
  let close () =
    if not (Atomic.exchange closed true) then begin
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ()
    end
  in
  let peer =
    match Unix.getpeername fd with
    | Unix.ADDR_INET (a, p) ->
      Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
    | Unix.ADDR_UNIX p -> p
    | exception Unix.Unix_error _ -> "?"
  in
  { c_read = read; c_write = write; c_close = close; c_peer = peer }

let tcp_listener ?(backlog = 64) ?(tick_ms = 250.) ?read_timeout_ms
    ?write_timeout_ms ~host ~port () =
  let addr =
    if host = "" || host = "*" then Unix.inet_addr_any
    else Unix.inet_addr_of_string host
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (addr, port));
  Unix.listen fd backlog;
  let bound =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let closed = Atomic.make false in
  let accept () =
    if Atomic.get closed then None
    else
      match Unix.select [ fd ] [] [] (tick_ms /. 1000.) with
      | [], _, _ -> None
      | _ -> begin
        match Unix.accept ~cloexec:true fd with
        | cfd, _ -> Some (conn_of_fd ?read_timeout_ms ?write_timeout_ms cfd)
        | exception
            Unix.Unix_error
              ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR
                | Unix.ECONNABORTED ),
                _,
                _ ) ->
          None
      end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> None
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> None
  in
  let close () =
    if not (Atomic.exchange closed true) then
      try Unix.close fd with Unix.Unix_error _ -> ()
  in
  ({ l_accept = accept; l_close = close }, bound)

(* --- Configuration --- *)

type config = {
  workers : int;
  max_inflight : int;
  deadline_ms : float;
  read_timeout_ms : float;
  write_timeout_ms : float;
  drain_deadline_ms : float;
  retry_after_s : int;
  clock : Fault.Clock.t;
}

let default_config =
  {
    workers = 4;
    max_inflight = 64;
    deadline_ms = 5_000.;
    read_timeout_ms = 10_000.;
    write_timeout_ms = 10_000.;
    drain_deadline_ms = 10_000.;
    retry_after_s = 1;
    clock = Fault.Clock.real;
  }

(* --- The daemon --- *)

type t = {
  cfg : config;
  handler : worker:int -> Http.request -> Http.response;
  on_drain : unit -> unit;
  degraded : unit -> bool;
  gate : Gate.t;
  stop_requested : bool Atomic.t;
  (* handoff queue: acceptor -> workers; every queued conn holds an
     admitted gate slot until its worker releases it *)
  q_m : Mutex.t;
  q_c : Condition.t;
  q : conn Queue.t;
  mutable q_closed : bool;
  (* connections currently owned by a worker, for the force-close path *)
  act_m : Mutex.t;
  active : (int, conn) Hashtbl.t;
  next_id : int Atomic.t;
  code : int Atomic.t;
  s_served : int Atomic.t;
  s_client_aborts : int Atomic.t;
  s_timeouts : int Atomic.t;
  s_deadlines : int Atomic.t;
  s_aborted : int Atomic.t;
  (* sanitizer identities: field 0 = [q]/[q_closed] (under [q_m]),
     field 1 = [active] (under [act_m]); [ds_code] publishes [code],
     which [serve] sets on whatever domain runs it and [exit_code]
     reads on another, with or without a join in between.
     [stop_requested] is deliberately not instrumented: it is set from
     signal handlers, where taking the sanitizer's mutex could
     self-deadlock, and as a lone atomic flag it orders nothing by
     itself — the worker handoff happens through the instrumented
     queue. *)
  ds_obj : int;
  ds_q_m : int;
  ds_act_m : int;
  ds_code : int;
}

let create ?(config = default_config) ?(on_drain = fun () -> ())
    ?(degraded = fun () -> false) ~handler () =
  {
    cfg = { config with workers = max 1 config.workers };
    handler;
    on_drain;
    degraded;
    gate = Gate.create ~max_inflight:config.max_inflight;
    stop_requested = Atomic.make false;
    q_m = Mutex.create ();
    q_c = Condition.create ();
    q = Queue.create ();
    q_closed = false;
    act_m = Mutex.create ();
    active = Hashtbl.create 64;
    next_id = Atomic.make 0;
    code = Atomic.make 0;
    s_served = Atomic.make 0;
    s_client_aborts = Atomic.make 0;
    s_timeouts = Atomic.make 0;
    s_deadlines = Atomic.make 0;
    s_aborted = Atomic.make 0;
    ds_obj = Dsan.alloc ~name:"Daemon";
    ds_q_m = Dsan.lock_id ~name:"Daemon.q_m";
    ds_act_m = Dsan.lock_id ~name:"Daemon.act_m";
    ds_code = Dsan.atomic_id ~name:"Daemon.code";
  }

let stop t = Atomic.set t.stop_requested true
let stopping t = Atomic.get t.stop_requested

let exit_code t =
  Dsan.consume ~site:__POS__ t.ds_code;
  Atomic.get t.code

let set_code t code =
  Dsan.publish ~site:__POS__ t.ds_code;
  Atomic.set t.code code

let install_signal_handlers t =
  (* A client that vanishes mid-write must surface as EPIPE (a counted
     outcome), never as a process-killing SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let h = Sys.Signal_handle (fun _ -> stop t) in
  Sys.set_signal Sys.sigterm h;
  Sys.set_signal Sys.sigint h

type stats = {
  d_served : int;
  d_shed : int;
  d_refused : int;
  d_client_aborts : int;
  d_timeouts : int;
  d_deadlines : int;
  d_aborted_inflight : int;
}

let stats t =
  let g = Gate.stats t.gate in
  {
    d_served = Atomic.get t.s_served;
    d_shed = g.Gate.g_shed;
    d_refused = g.Gate.g_refused;
    d_client_aborts = Atomic.get t.s_client_aborts;
    d_timeouts = Atomic.get t.s_timeouts;
    d_deadlines = Atomic.get t.s_deadlines;
    d_aborted_inflight = Atomic.get t.s_aborted;
  }

(* --- Queue and registry plumbing --- *)

let enqueue t conn =
  Mutex.lock t.q_m;
  Dsan.acquire ~site:__POS__ t.ds_q_m;
  Dsan.write ~site:__POS__ t.ds_obj 0;
  Queue.add conn t.q;
  Condition.signal t.q_c;
  Dsan.release ~site:__POS__ t.ds_q_m;
  Mutex.unlock t.q_m

let dequeue t =
  Mutex.lock t.q_m;
  Dsan.acquire ~site:__POS__ t.ds_q_m;
  while Queue.is_empty t.q && not t.q_closed do
    (* Condition.wait releases [q_m] while blocked and reacquires it *)
    Dsan.release ~site:__POS__ t.ds_q_m;
    Condition.wait t.q_c t.q_m;
    Dsan.acquire ~site:__POS__ t.ds_q_m
  done;
  Dsan.write ~site:__POS__ t.ds_obj 0;
  let c = if Queue.is_empty t.q then None else Some (Queue.pop t.q) in
  Dsan.release ~site:__POS__ t.ds_q_m;
  Mutex.unlock t.q_m;
  c

let close_queue t =
  Mutex.lock t.q_m;
  Dsan.acquire ~site:__POS__ t.ds_q_m;
  Dsan.write ~site:__POS__ t.ds_obj 0;
  t.q_closed <- true;
  Condition.broadcast t.q_c;
  Dsan.release ~site:__POS__ t.ds_q_m;
  Mutex.unlock t.q_m

let register t conn =
  let id = Atomic.fetch_and_add t.next_id 1 in
  Mutex.lock t.act_m;
  Dsan.acquire ~site:__POS__ t.ds_act_m;
  Dsan.write ~site:__POS__ t.ds_obj 1;
  Hashtbl.add t.active id conn;
  Dsan.release ~site:__POS__ t.ds_act_m;
  Mutex.unlock t.act_m;
  id

let unregister t id =
  Mutex.lock t.act_m;
  Dsan.acquire ~site:__POS__ t.ds_act_m;
  Dsan.write ~site:__POS__ t.ds_obj 1;
  Hashtbl.remove t.active id;
  Dsan.release ~site:__POS__ t.ds_act_m;
  Mutex.unlock t.act_m

(* --- Request workers --- *)

let best_effort_write conn s =
  try conn.c_write s with Timeout | Client_closed -> ()

let closing_response ?(headers = []) ~status body =
  Http.response ~headers:(("Connection", "close") :: headers) ~status body

let deadline_response t =
  Atomic.incr t.s_deadlines;
  Http.response
    ~headers:
      [ ("Retry-After", string_of_int t.cfg.retry_after_s);
        ("Content-Type", "application/json") ]
    ~status:503 "{\"error\":\"deadline exceeded\"}\n"

(* One connection, possibly many requests (keep-alive).  Every exit
   path is counted; nothing a client does (or stops doing) escapes as
   an exception past this function. *)
let handle_conn t ~worker conn =
  let clk = t.cfg.clock in
  let buf = Http.create_buf () in
  let continue = ref true in
  while !continue do
    match Http.read_request ~read:conn.c_read buf with
    | None -> continue := false
    | exception Http.Bad_request msg ->
      best_effort_write conn
        (Http.serialize (closing_response ~status:400 (msg ^ "\n")));
      continue := false
    | exception Timeout ->
      Atomic.incr t.s_timeouts;
      best_effort_write conn
        (Http.serialize (closing_response ~status:408 "request timeout\n"));
      continue := false
    | exception Client_closed ->
      Atomic.incr t.s_client_aborts;
      continue := false
    | Some req ->
      let t0 = clk.Fault.Clock.now_ms () in
      let resp =
        match t.handler ~worker req with
        | resp -> resp
        | exception e ->
          Http.response ~status:500
            ("internal error: " ^ Printexc.to_string e ^ "\n")
      in
      let resp =
        if
          t.cfg.deadline_ms > 0.
          && clk.Fault.Clock.now_ms () -. t0 > t.cfg.deadline_ms
        then deadline_response t
        else resp
      in
      let ka = Http.keep_alive req && not (Gate.draining t.gate) in
      let resp = if ka then resp else Http.with_header resp "Connection" "close" in
      let head_only = req.Http.meth = Http.HEAD in
      (match conn.c_write (Http.serialize ~head_only resp) with
      | () ->
        Atomic.incr t.s_served;
        if not ka then continue := false
      | exception Timeout ->
        Atomic.incr t.s_timeouts;
        continue := false
      | exception Client_closed ->
        Atomic.incr t.s_client_aborts;
        continue := false)
  done

let worker_loop t ~worker =
  let rec go () =
    match dequeue t with
    | None -> ()
    | Some conn ->
      let id = register t conn in
      (try handle_conn t ~worker conn
       with _ -> Atomic.incr t.s_client_aborts);
      unregister t id;
      (try conn.c_close () with _ -> ());
      Gate.release t.gate;
      go ()
  in
  go ()

(* --- Accept loop and drain --- *)

let shed_response t =
  Http.serialize
    (closing_response
       ~headers:[ ("Retry-After", string_of_int t.cfg.retry_after_s) ]
       ~status:503 "{\"error\":\"overloaded\"}\n")

let refuse_response =
  lazy
    (Http.serialize
       (closing_response ~status:503 "{\"error\":\"draining\"}\n"))

let dispatch t conn =
  match Gate.try_admit t.gate with
  | Gate.Admitted -> enqueue t conn
  | Gate.Shed ->
    best_effort_write conn (shed_response t);
    (try conn.c_close () with _ -> ())
  | Gate.Refused ->
    best_effort_write conn (Lazy.force refuse_response);
    (try conn.c_close () with _ -> ())

let accept_loop t listener =
  while not (Atomic.get t.stop_requested) do
    match listener.l_accept () with
    | None -> ()
    | Some conn -> dispatch t conn
    | exception _ -> stop t
  done

(* Drain-deadline give-up: close every connection still owned by a
   worker or parked in the queue, so blocked reads and writes fail
   fast and the workers come home. *)
let force_close t =
  Mutex.lock t.q_m;
  Dsan.acquire ~site:__POS__ t.ds_q_m;
  Dsan.write ~site:__POS__ t.ds_obj 0;
  let queued = Queue.length t.q in
  while not (Queue.is_empty t.q) do
    let c = Queue.pop t.q in
    (try c.c_close () with _ -> ());
    Gate.release t.gate
  done;
  Dsan.release ~site:__POS__ t.ds_q_m;
  Mutex.unlock t.q_m;
  Mutex.lock t.act_m;
  Dsan.acquire ~site:__POS__ t.ds_act_m;
  Dsan.read ~site:__POS__ t.ds_obj 1;
  let held = Hashtbl.length t.active in
  Hashtbl.iter (fun _ c -> try c.c_close () with _ -> ()) t.active;
  Dsan.release ~site:__POS__ t.ds_act_m;
  Mutex.unlock t.act_m;
  Atomic.set t.s_aborted (queued + held)

let drain t =
  Gate.begin_drain t.gate;
  (try t.on_drain () with _ -> ());
  let clk = t.cfg.clock in
  let idle =
    if t.cfg.drain_deadline_ms < 0. then Gate.wait_idle t.gate
    else begin
      let deadline = clk.Fault.Clock.now_ms () +. t.cfg.drain_deadline_ms in
      (* wait_idle only re-checks give_up at wake-ups; on the real
         clock a hung worker would never produce one, so a watchdog
         domain ticks the gate until the wait settles.  On a virtual
         clock waits are purely event-driven and no watchdog runs. *)
      let ticking = Atomic.make true in
      let watchdog =
        if clk == Fault.Clock.real && t.cfg.drain_deadline_ms > 0. then begin
          let tok = Dsan.fork () in
          Some
            ( Domain.spawn (fun () ->
                  Dsan.born tok;
                  Fun.protect
                    ~finally:(fun () -> Dsan.dying tok)
                    (fun () ->
                      while Atomic.get ticking do
                        Unix.sleepf 0.05;
                        Gate.wake t.gate
                      done)),
              tok )
        end
        else None
      in
      let idle =
        Gate.wait_idle
          ~give_up:(fun () -> clk.Fault.Clock.now_ms () >= deadline)
          t.gate
      in
      Atomic.set ticking false;
      Option.iter
        (fun (d, tok) ->
          Domain.join d;
          Dsan.joined tok)
        watchdog;
      idle
    end
  in
  if not idle then force_close t

let serve t listener =
  let jobs = t.cfg.workers + 1 in
  (try
     Pool.run Pool.shared ~jobs (fun w ->
         if w > 0 then worker_loop t ~worker:(w - 1)
         else
           (* closing the queue is the workers' exit signal; protect it
              so a failing accept loop can never strand them — but only
              after drain, so queued conns get served (or force-closed)
              first *)
           Fun.protect
             ~finally:(fun () -> close_queue t)
             (fun () ->
               accept_loop t listener;
               (try listener.l_close () with _ -> ());
               drain t))
   with e ->
     set_code t 1;
     raise e);
  set_code t
    (if Atomic.get t.s_aborted > 0 then 4
     else if t.degraded () then 3
     else 0)
