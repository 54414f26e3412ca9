(** Happens-before race sanitizer.  See the interface for the model;
    the notes below cover the implementation.

    All sanitizer state sits behind one global mutex [m].  That makes
    the enabled mode fully serialized — deliberately: a sanitizer run
    is a correctness tool, and a single lock keeps the detector itself
    trivially race-free (its own updates are ordered, so shadow memory
    never needs its own memory-model reasoning).  The disabled mode
    never touches [m]: every entry point loads one atomic flag and
    branches.

    Vector clocks are plain [int array]s indexed by domain tid, grown
    on demand.  Domain contexts live in domain-local storage and are
    created lazily on a domain's first instrumented operation; tids
    are never reused, which keeps an ephemeral-domain workload's
    clocks small but growing — fine for test-sized runs. *)

type pos = string * int * int * int

let pp_pos ppf ((file, line, _, _) : pos) =
  Format.fprintf ppf "%s:%d" file line

(* --- switches --- *)

let on = Atomic.make false
let perturb_seed = Atomic.make 0
let enabled () = Atomic.get on

(* --- the big lock --- *)

let m = Mutex.create ()

let locked f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* --- vector clocks --- *)

let vc_get (vc : int array) t = if t < Array.length vc then vc.(t) else 0

let vc_ensure vc t =
  if t < Array.length !vc then ()
  else begin
    (* tids are minted sequentially; an index beyond any plausible
       domain count means corrupted sanitizer state, not a big fleet *)
    if t > 1_000_000 then
      invalid_arg (Printf.sprintf "Dsan.vc_ensure: absurd tid %d" t);
    (* grow to exactly [t + 1]: joins pass [length from - 1], so a
       doubling policy here would make the joined clock LONGER than its
       source, and a release would store that longer copy back into the
       lock's clock — two domains ping-ponging one lock then double the
       vector every other cycle, an exponential blow-up (seen live as a
       multi-gigabyte [Array.make] freezing the whole runtime).  Exact
       growth keeps every clock bounded by the real tid count. *)
    let bigger = Array.make (t + 1) 0 in
    Array.blit !vc 0 bigger 0 (Array.length !vc);
    vc := bigger
  end

let vc_join into from =
  vc_ensure into (Array.length from - 1);
  let a = !into in
  for t = 0 to Array.length from - 1 do
    if from.(t) > a.(t) then a.(t) <- from.(t)
  done

(* --- per-domain contexts --- *)

type ctx = {
  tid : int;
  mutable vc : int array;
  mutable locks : (int * string) list;  (* held locks, innermost first *)
  mutable ops : int;                    (* perturber counter *)
}

let next_tid = ref 0
let all_ctxs : ctx list ref = ref []

(* A context is created lazily on a domain's first instrumented
   operation.  A domain spawned through an instrumented fork/born pair
   gets the precise parent edge; one spawned by uninstrumented code (a
   raw [Domain.spawn] in a test) would otherwise start with an empty
   clock and report the pre-spawn history as concurrent, so a newborn
   conservatively inherits a snapshot of every known domain's clock:
   real races between accesses made after both domains exist are still
   caught, and the lost precision (pre-spawn concurrency) is a
   documented caveat, not a false positive.  Invariant: [vc] and
   [locks] of any context are only touched under [m], so the snapshot
   join is safe. *)
let dls_key =
  Domain.DLS.new_key (fun () ->
      locked (fun () ->
          let tid = !next_tid in
          incr next_tid;
          let vc = ref (Array.make (max 8 (tid + 1)) 0) in
          List.iter (fun c -> vc_join vc c.vc) !all_ctxs;
          !vc.(tid) <- 1;
          let c = { tid; vc = !vc; locks = []; ops = 0 } in
          all_ctxs := c :: !all_ctxs;
          c))

let ctx () = Domain.DLS.get dls_key
let tick c = c.vc.(c.tid) <- c.vc.(c.tid) + 1

(* --- identifier registries --- *)

(* ids are minted lock-free so constructors stay cheap while the
   sanitizer is off; names are recorded under [m], and only while it is
   on, so a process that never arms it keeps no name of the objects it
   creates and drops.  A report names an object created while the
   sanitizer was off by its id. *)
let next_id = Atomic.make 0
let names : (int, string) Hashtbl.t = Hashtbl.create 256

let register ~name =
  let id = Atomic.fetch_and_add next_id 1 in
  if Atomic.get on then locked (fun () -> Hashtbl.replace names id name);
  id

let alloc ~name = register ~name
let lock_id ~name = register ~name
let atomic_id ~name = register ~name
let name_of id = try Hashtbl.find names id with Not_found -> "?" ^ string_of_int id
let registered () = locked (fun () -> Hashtbl.length names)

(* --- synchronization clocks (locks and atomics share the table) --- *)

let sync_vc : (int, int array) Hashtbl.t = Hashtbl.create 64

(* --- shadow memory --- *)

type access = {
  a_tid : int;
  a_epoch : int;        (* the accessor's own clock component *)
  a_site : pos;
  a_locks : string list;
}

type loc = { mutable w : access option; mutable rs : access list }

let shadow : (int * int, loc) Hashtbl.t = Hashtbl.create 1024

(* --- races --- *)

type race = {
  r_object : string;
  r_field : int;
  r_kind : [ `Write_write | `Read_write ];
  r_site1 : pos;
  r_tid1 : int;
  r_locks1 : string list;
  r_site2 : pos;
  r_tid2 : int;
  r_locks2 : string list;
}

let races_rev : race list ref = ref []
let race_keys : (string * int * string * pos * pos, unit) Hashtbl.t =
  Hashtbl.create 32

let ops_count = ref 0
let yields_count = ref 0

let kind_name = function
  | `Write_write -> "write-write"
  | `Read_write -> "read-write"

let pp_race ppf r =
  Format.fprintf ppf
    "%s race on %s[%d]: %a (domain %d%s) vs %a (domain %d%s)"
    (kind_name r.r_kind) r.r_object r.r_field pp_pos r.r_site1 r.r_tid1
    (match r.r_locks1 with
     | [] -> ", no locks"
     | ls -> ", holding " ^ String.concat "," ls)
    pp_pos r.r_site2 r.r_tid2
    (match r.r_locks2 with
     | [] -> ", no locks"
     | ls -> ", holding " ^ String.concat "," ls)

let record_race ~obj ~field ~kind ~(prior : access) ~(c : ctx) ~site =
  let oname = name_of obj in
  let key = (oname, field, kind_name kind, prior.a_site, site) in
  if not (Hashtbl.mem race_keys key) then begin
    Hashtbl.add race_keys key ();
    races_rev :=
      {
        r_object = oname;
        r_field = field;
        r_kind = kind;
        r_site1 = prior.a_site;
        r_tid1 = prior.a_tid;
        r_locks1 = prior.a_locks;
        r_site2 = site;
        r_tid2 = c.tid;
        r_locks2 = List.map snd c.locks;
      }
      :: !races_rev
  end

(* Did [a] happen before the current state of [c]? *)
let hb (a : access) (c : ctx) = a.a_epoch <= vc_get c.vc a.a_tid

let access_of c site =
  { a_tid = c.tid; a_epoch = c.vc.(c.tid); a_site = site;
    a_locks = List.map snd c.locks }

let loc_of obj field =
  match Hashtbl.find_opt shadow (obj, field) with
  | Some l -> l
  | None ->
    let l = { w = None; rs = [] } in
    Hashtbl.add shadow (obj, field) l;
    l

(* --- the perturber --- *)

(* Deterministic pseudo-random relax bursts: the decision is a pure
   hash of (seed, site, tid, per-domain op counter) — the Fault.Inject
   discipline — so a fixed seed replays the same perturbation sequence
   per domain no matter how the domains interleave. *)
let maybe_perturb c (site : pos) =
  let seed = Atomic.get perturb_seed in
  if seed <> 0 then begin
    c.ops <- c.ops + 1;
    let (file, line, _, _) = site in
    let h = Hashtbl.hash (seed, file, line, c.tid, c.ops) in
    if h land 7 = 0 then begin
      incr yields_count;
      for _ = 0 to (h lsr 3) land 15 do
        Domain.cpu_relax ()
      done
    end
  end

(* --- slow paths (sanitizer enabled) --- *)

let read_slow ~site obj field =
  let c = ctx () in
  maybe_perturb c site;
  locked (fun () ->
      incr ops_count;
      let l = loc_of obj field in
      (match l.w with
       | Some w when w.a_tid <> c.tid && not (hb w c) ->
         record_race ~obj ~field ~kind:`Read_write ~prior:w ~c ~site
       | _ -> ());
      (* keep [rs] an antichain-ish set: this read supersedes the
         domain's previous one; reads that happened before it carry no
         extra ordering information for future writes *)
      l.rs <-
        access_of c site
        :: List.filter (fun r -> r.a_tid <> c.tid && not (hb r c)) l.rs)

let write_slow ~site obj field =
  let c = ctx () in
  maybe_perturb c site;
  locked (fun () ->
      incr ops_count;
      let l = loc_of obj field in
      (match l.w with
       | Some w when w.a_tid <> c.tid && not (hb w c) ->
         record_race ~obj ~field ~kind:`Write_write ~prior:w ~c ~site
       | _ -> ());
      List.iter
        (fun r ->
          if r.a_tid <> c.tid && not (hb r c) then
            record_race ~obj ~field ~kind:`Read_write ~prior:r ~c ~site)
        l.rs;
      l.w <- Some (access_of c site);
      l.rs <- [])

let acquire_slow ~site lid =
  let c = ctx () in
  maybe_perturb c site;
  locked (fun () ->
      incr ops_count;
      (match Hashtbl.find_opt sync_vc lid with
       | Some lvc ->
         let r = ref c.vc in
         vc_join r lvc;
         c.vc <- !r
       | None -> ());
      c.locks <- (lid, name_of lid) :: c.locks)

let release_slow ~site lid =
  let c = ctx () in
  maybe_perturb c site;
  locked (fun () ->
      incr ops_count;
      Hashtbl.replace sync_vc lid (Array.copy c.vc);
      tick c;
      c.locks <- List.filter (fun (l, _) -> l <> lid) c.locks)

let publish_slow ~site aid =
  let c = ctx () in
  maybe_perturb c site;
  locked (fun () ->
      incr ops_count;
      (match Hashtbl.find_opt sync_vc aid with
       | Some avc ->
         let r = ref avc in
         vc_join r c.vc;
         Hashtbl.replace sync_vc aid !r
       | None -> Hashtbl.replace sync_vc aid (Array.copy c.vc));
      tick c)

let consume_slow ~site aid =
  let c = ctx () in
  maybe_perturb c site;
  locked (fun () ->
      incr ops_count;
      match Hashtbl.find_opt sync_vc aid with
      | Some avc ->
        let r = ref c.vc in
        vc_join r avc;
        c.vc <- !r
      | None -> ())

(* --- fast-path wrappers --- *)

let[@inline] read ~site obj field =
  if Atomic.get on then read_slow ~site obj field

let[@inline] write ~site obj field =
  if Atomic.get on then write_slow ~site obj field

let[@inline] acquire ~site lid = if Atomic.get on then acquire_slow ~site lid
let[@inline] release ~site lid = if Atomic.get on then release_slow ~site lid
let[@inline] publish ~site aid = if Atomic.get on then publish_slow ~site aid
let[@inline] consume ~site aid = if Atomic.get on then consume_slow ~site aid

let[@inline] yield ~site =
  if Atomic.get on then begin
    let c = ctx () in
    maybe_perturb c site
  end

(* --- fork / join --- *)

type token = { mutable t_vc : int array option }

let fork () =
  if Atomic.get on then begin
    let c = ctx () in
    let t = locked (fun () ->
        let t = { t_vc = Some (Array.copy c.vc) } in
        tick c;
        t)
    in
    t
  end
  else { t_vc = None }

let born t =
  if Atomic.get on then
    let c = ctx () in
    locked (fun () ->
        match t.t_vc with
        | Some vc ->
          let r = ref c.vc in
          vc_join r vc;
          c.vc <- !r
        | None -> ())

let dying t =
  if Atomic.get on then
    let c = ctx () in
    locked (fun () ->
        t.t_vc <- Some (Array.copy c.vc);
        tick c)

let joined t =
  if Atomic.get on then
    let c = ctx () in
    locked (fun () ->
        match t.t_vc with
        | Some vc ->
          let r = ref c.vc in
          vc_join r vc;
          c.vc <- !r
        | None -> ())

(* --- reports --- *)

let races () =
  locked (fun () ->
      List.sort
        (fun a b ->
          let c = String.compare a.r_object b.r_object in
          if c <> 0 then c
          else
            let c = compare a.r_field b.r_field in
            if c <> 0 then c
            else compare (a.r_site1, a.r_site2) (b.r_site1, b.r_site2))
        !races_rev)

let race_count () = locked (fun () -> List.length !races_rev)

type stats = {
  st_ops : int;
  st_locations : int;
  st_yields : int;
  st_races : int;
}

let stats () =
  locked (fun () ->
      {
        st_ops = !ops_count;
        st_locations = Hashtbl.length shadow;
        st_yields = !yields_count;
        st_races = List.length !races_rev;
      })

let reset () =
  locked (fun () ->
      Hashtbl.reset shadow;
      Hashtbl.reset race_keys;
      races_rev := [];
      ops_count := 0;
      yields_count := 0)

let enable ?(seed = 0) () =
  Atomic.set perturb_seed seed;
  Atomic.set on true;
  (* Materialize the enabling domain's context now: otherwise a domain
     spawned before the enabler's first instrumented access would be
     joined into the enabler's newborn snapshot, hiding races against
     the enabler's own subsequent accesses. *)
  ignore (ctx ())

let disable () = Atomic.set on false

(* STRUDEL_DSAN=1 arms the sanitizer for a whole process — the lever
   the CI legs use to run the stock differential suites sanitized. *)
let () =
  match Sys.getenv_opt "STRUDEL_DSAN" with
  | Some ("1" | "true" | "yes") ->
    let seed =
      match Sys.getenv_opt "STRUDEL_DSAN_SEED" with
      | Some s -> ( try int_of_string s with _ -> 0)
      | None -> 0
    in
    enable ~seed ();
    (* a whole-process run has no natural reporting point, so dump any
       survivors on exit where the CI log will show them *)
    at_exit (fun () ->
        match races () with
        | [] -> ()
        | rs ->
          Printf.eprintf "dsan: %d race(s) detected:\n%!" (List.length rs);
          List.iter
            (fun r -> Format.eprintf "  %a@." pp_race r)
            rs)
  | _ -> ()
