(** Cross-cutting fault tolerance for the ingest-to-publish pipeline.

    STRUDEL's promise is a site integrated from external sources —
    exactly the components that break in production: a malformed BibTeX
    entry, a CSV export with a truncated row, a flaky loader, a
    template that raises on one page of ten thousand.  This library
    gives every pipeline stage a shared vocabulary for failing
    {e partially}:

    - a {!report} is one structured fault (stage, source, location,
      cause, raw excerpt) — the unit a wrapper quarantines, a mediator
      records, a degraded build lists in its manifest;
    - a {!ctx} collects reports and optionally carries a seeded
      {!Inject}or, so the same plumbing that survives real faults can
      be driven deterministically by tests and benchmarks;
    - {!Policy} names what a source load may do on failure
      ([Fail_fast | Skip_source | Stale]) and how to retry
      (exponential backoff under a deadline, measured against an
      injectable {!Clock} so tests run on virtual time);
    - {!Manifest} is the machine-readable build outcome
      ([faults.json]) with the exit-code convention [0] clean,
      [3] degraded, [1] failed.

    Everything here is policy-free by default: a pipeline that never
    passes a [ctx] behaves exactly as before (first fault aborts). *)

(* --- Reports --- *)

type stage =
  | Ingest      (** wrapper parsing / source loading *)
  | Integrate   (** mediation: mappings over sources *)
  | Render      (** HTML generation of one page *)

let stage_name = function
  | Ingest -> "ingest"
  | Integrate -> "integrate"
  | Render -> "render"

let stage_of_name = function
  | "ingest" -> Some Ingest
  | "integrate" -> Some Integrate
  | "render" -> Some Render
  | _ -> None

type report = {
  f_stage : stage;
  f_source : string;    (** source / graph / site the fault belongs to *)
  f_location : string;  (** "line 12, column 3", "entry 7", a page URL *)
  f_cause : string;     (** what went wrong *)
  f_excerpt : string;   (** raw input excerpt (possibly truncated) *)
}

let excerpt_limit = 120

(* Excerpts quote raw external input; bound them so a multi-megabyte
   malformed record cannot balloon the manifest. *)
let clip s =
  let s =
    String.map (function '\n' | '\r' | '\t' -> ' ' | c -> c) s
  in
  if String.length s <= excerpt_limit then s
  else String.sub s 0 excerpt_limit ^ "..."

let report ~stage ~source ~location ~cause ?(excerpt = "") () =
  {
    f_stage = stage;
    f_source = source;
    f_location = location;
    f_cause = cause;
    f_excerpt = clip excerpt;
  }

let pp_report ppf r =
  Fmt.pf ppf "[%s] %s at %s: %s%s" (stage_name r.f_stage) r.f_source
    r.f_location r.f_cause
    (if r.f_excerpt = "" then "" else Printf.sprintf " %S" r.f_excerpt)

(* --- Fault injection --- *)

module Inject = struct
  exception Injected of string
  (** The fault an armed injector raises at a chosen point.  Carries a
      deterministic description so degraded output is reproducible. *)

  type point =
    | Load of string * int   (** source name, attempt number *)
    | Parse of string * int  (** source name, record index *)
    | Render_page of string  (** page object name *)

  let point_name = function
    | Load (s, k) -> Printf.sprintf "load %s (attempt %d)" s k
    | Parse (s, i) -> Printf.sprintf "parse %s record %d" s i
    | Render_page n -> Printf.sprintf "render %s" n

  type t = {
    seed : int;
    p_load : float;
    p_parse : float;
    p_render : float;
    targets : string list;
        (* if non-empty, only points whose source/page name is listed
           can fail (site-targeted injection) *)
    mutable armed : bool;
  }

  let create ?(seed = 1) ?(p_load = 0.) ?(p_parse = 0.) ?(p_render = 0.)
      ?(targets = []) () =
    { seed; p_load; p_parse; p_render; targets; armed = true }

  let arm t = t.armed <- true
  let disarm t = t.armed <- false
  let armed t = t.armed

  (* Decisions are a pure hash of (seed, point), not a mutable PRNG
     stream: the same point fails identically no matter how many
     domains render concurrently or in what order the pipeline visits
     it — the property the jobs ∈ {1,4} differential tests rest on. *)
  let decide t ~key ~salt p =
    t.armed && p > 0.
    && (t.targets = [] || List.mem key t.targets)
    && begin
      let h = Hashtbl.hash (t.seed, salt, key) in
      float_of_int (h mod 10_000) < p *. 10_000.
    end

  let should_fail t point =
    match point with
    | Load (src, attempt) ->
      decide t ~key:src ~salt:("load", attempt) t.p_load
    | Parse (src, idx) -> decide t ~key:src ~salt:("parse", idx) t.p_parse
    | Render_page name -> decide t ~key:name ~salt:("render", 0) t.p_render

  (** Raise {!Injected} at [point] if the (optional) injector decides
      to; the no-injector and disarmed cases are free. *)
  let fire inj point =
    match inj with
    | None -> ()
    | Some t ->
      if should_fail t point then
        raise (Injected ("injected fault: " ^ point_name point))
end

(* --- Collecting faults: the context threaded through the pipeline --- *)

type ctx = {
  mutable reports_rev : report list;
  mutable count : int;
  inject : Inject.t option;
}

let ctx ?inject () = { reports_rev = []; count = 0; inject }
let record c r =
  c.reports_rev <- r :: c.reports_rev;
  c.count <- c.count + 1

let reports c = List.rev c.reports_rev
let fault_count c = c.count
let clear c =
  c.reports_rev <- [];
  c.count <- 0

let inject c = match c with Some c -> c.inject | None -> None

(** Run [f]; on exception, record a report built from [location] /
    [excerpt] and return [None].  The guard around one record of an
    ingest stream or one page of a build. *)
let guard c ~stage ~source ~location ?(excerpt = "") f =
  match c with
  | None -> Some (f ())
  | Some c -> (
      try Some (f ())
      with e ->
        record c
          (report ~stage ~source ~location ~cause:(Printexc.to_string e)
             ~excerpt ());
        None)

(* --- Degradation switch for the build stage --- *)

type on_error =
  | Abort    (** first render error kills the build (the default) *)
  | Degrade  (** isolate the page, emit a placeholder, record a fault *)

(* --- Clocks: real for production, virtual for tests --- *)

module Clock = struct
  type t = {
    now_ms : unit -> float;
    sleep_ms : float -> unit;
  }

  let real =
    {
      now_ms = (fun () -> Unix.gettimeofday () *. 1000.);
      sleep_ms = (fun ms -> if ms > 0. then Unix.sleepf (ms /. 1000.));
    }

  (** A virtual clock: sleeping advances time instantly and every
      sleep is recorded, so backoff schedules are testable without
      wall-clock waits.  Returns the clock and an accessor for the
      recorded sleeps (in call order). *)
  let virtual_ ?(start = 0.) () =
    let now = ref start in
    let sleeps = ref [] in
    ( {
        now_ms = (fun () -> !now);
        sleep_ms =
          (fun ms ->
            let ms = Float.max ms 0. in
            sleeps := ms :: !sleeps;
            now := !now +. ms);
      },
      fun () -> List.rev !sleeps )
end

(* --- Retry policies --- *)

module Policy = struct
  type retry = {
    attempts : int;        (** total attempts, including the first (≥ 1) *)
    base_delay_ms : float; (** delay before the second attempt *)
    multiplier : float;    (** exponential growth factor *)
    max_delay_ms : float;  (** per-wait cap *)
    deadline_ms : float;   (** give up once elapsed time exceeds this *)
  }

  let no_retry =
    {
      attempts = 1;
      base_delay_ms = 0.;
      multiplier = 2.;
      max_delay_ms = 0.;
      deadline_ms = infinity;
    }

  let default_retry =
    {
      attempts = 4;
      base_delay_ms = 50.;
      multiplier = 2.;
      max_delay_ms = 2_000.;
      deadline_ms = 30_000.;
    }

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

  let fail_fast = { on_failure = Fail_fast; retry = no_retry }
  let skip_source ?(retry = default_retry) () =
    { on_failure = Skip_source; retry }
  let stale ?(retry = default_retry) age = { on_failure = Stale age; retry }
end

module Retry = struct
  (** The planned backoff delays of a policy: [attempts - 1] waits,
      exponential from [base_delay_ms], each capped at
      [max_delay_ms].  (The deadline then truncates this schedule at
      run time.) *)
  let schedule (r : Policy.retry) : float list =
    List.init
      (max 0 (r.attempts - 1))
      (fun i ->
        Float.min r.max_delay_ms
          (r.base_delay_ms *. (r.multiplier ** float_of_int i)))

  (** Run [f ~attempt] (attempts numbered from 0) under the retry
      policy: on exception, wait the next backoff delay and try again,
      until the policy's attempt budget or deadline is exhausted.
      Returns [Error (last_exn, attempts_made)] on exhaustion.
      [on_attempt] observes each failure (for logging). *)
  let run ?(clock = Clock.real) ~(retry : Policy.retry)
      ?(on_attempt = fun ~attempt:_ _ -> ()) (f : attempt:int -> 'a) :
      ('a, exn * int) result =
    let t0 = clock.Clock.now_ms () in
    let delays = schedule retry in
    let rec go attempt delays =
      match f ~attempt with
      | v -> Ok v
      | exception e ->
        on_attempt ~attempt e;
        (match delays with
         | d :: rest
           when clock.Clock.now_ms () -. t0 +. d <= retry.deadline_ms ->
           clock.Clock.sleep_ms d;
           go (attempt + 1) rest
         | _ -> Error (e, attempt + 1))
    in
    go 0 delays
end

(* --- The build manifest: faults.json --- *)

module Manifest = struct
  type status = Clean | Degraded

  type t = {
    m_site : string;
    m_status : status;
    m_faults : report list;
  }

  let make ~site faults =
    {
      m_site = site;
      m_status = (if faults = [] then Clean else Degraded);
      m_faults = faults;
    }

  let status m = m.m_status
  let faults m = m.m_faults

  (* Exit-code convention: 0 clean, 3 degraded; 1 (a failed build) is
     produced by the process that aborted, never by a manifest. *)
  let exit_code m = match m.m_status with Clean -> 0 | Degraded -> 3

  let status_name = function Clean -> "clean" | Degraded -> "degraded"

  let pp ppf m =
    Fmt.pf ppf "@[<v>site %s: %s (%d fault%s)" m.m_site
      (status_name m.m_status)
      (List.length m.m_faults)
      (if List.length m.m_faults = 1 then "" else "s");
    List.iter (fun r -> Fmt.pf ppf "@,  %a" pp_report r) m.m_faults;
    Fmt.pf ppf "@]"

  (* -- JSON encoding -- *)

  let escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let to_json m =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf
      (Printf.sprintf "  \"site\": \"%s\",\n" (escape m.m_site));
    Buffer.add_string buf
      (Printf.sprintf "  \"status\": \"%s\",\n" (status_name m.m_status));
    Buffer.add_string buf
      (Printf.sprintf "  \"exit_code\": %d,\n" (exit_code m));
    Buffer.add_string buf
      (Printf.sprintf "  \"fault_count\": %d,\n" (List.length m.m_faults));
    Buffer.add_string buf "  \"faults\": [";
    List.iteri
      (fun i r ->
        Buffer.add_string buf (if i = 0 then "\n" else ",\n");
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"stage\": \"%s\", \"source\": \"%s\", \"location\": \
              \"%s\", \"cause\": \"%s\", \"excerpt\": \"%s\"}"
             (stage_name r.f_stage) (escape r.f_source)
             (escape r.f_location) (escape r.f_cause) (escape r.f_excerpt)))
      m.m_faults;
    Buffer.add_string buf (if m.m_faults = [] then "]\n" else "\n  ]\n");
    Buffer.add_string buf "}\n";
    Buffer.contents buf

  (* -- JSON decoding: a minimal reader for the subset we emit (and
        hand-edited variants of it) -- *)

  exception Manifest_error of string

  type json =
    | J_string of string
    | J_num of float
    | J_bool of bool
    | J_null
    | J_list of json list
    | J_obj of (string * json) list

  let parse_json (s : string) : json =
    let pos = ref 0 in
    let n = String.length s in
    let fail msg =
      raise (Manifest_error (Printf.sprintf "%s at byte %d" msg !pos))
    in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while
        !pos < n
        && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected %c" c)
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '"' -> J_string (string_lit ())
      | Some '{' -> obj ()
      | Some '[' -> list ()
      | Some 't' -> word "true" (J_bool true)
      | Some 'f' -> word "false" (J_bool false)
      | Some 'n' -> word "null" J_null
      | Some ('-' | '0' .. '9') -> number ()
      | _ -> fail "expected a JSON value"
    and word w v =
      let k = String.length w in
      if !pos + k <= n && String.sub s !pos k = w then begin
        pos := !pos + k;
        v
      end
      else fail ("expected " ^ w)
    and number () =
      let start = !pos in
      while
        !pos < n
        && match s.[!pos] with
           | '-' | '+' | '.' | 'e' | 'E' | '0' .. '9' -> true
           | _ -> false
      do
        incr pos
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> J_num f
      | None -> fail "bad number"
    and string_lit () =
      expect '"';
      let buf = Buffer.create 32 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> incr pos
          | '\\' ->
            incr pos;
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'; incr pos
               | '\\' -> Buffer.add_char buf '\\'; incr pos
               | '/' -> Buffer.add_char buf '/'; incr pos
               | 'n' -> Buffer.add_char buf '\n'; incr pos
               | 'r' -> Buffer.add_char buf '\r'; incr pos
               | 't' -> Buffer.add_char buf '\t'; incr pos
               | 'b' -> Buffer.add_char buf '\b'; incr pos
               | 'f' -> Buffer.add_char buf '\012'; incr pos
               | 'u' ->
                 if !pos + 4 >= n then fail "bad \\u escape";
                 let hex = String.sub s (!pos + 1) 4 in
                 (match int_of_string_opt ("0x" ^ hex) with
                  | Some code when code < 128 ->
                    Buffer.add_char buf (Char.chr code)
                  | Some _ -> Buffer.add_char buf '?'
                  | None -> fail "bad \\u escape");
                 pos := !pos + 5
               | _ -> fail "unknown escape");
            go ()
          | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
      in
      go ();
      Buffer.contents buf
    and list () =
      expect '[';
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        J_list []
      end
      else begin
        let rec items acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            items (v :: acc)
          | Some ']' ->
            incr pos;
            List.rev (v :: acc)
          | _ -> fail "expected , or ]"
        in
        J_list (items [])
      end
    and obj () =
      expect '{';
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        J_obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = string_lit () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            members ((k, v) :: acc)
          | Some '}' ->
            incr pos;
            List.rev ((k, v) :: acc)
          | _ -> fail "expected , or }"
        in
        J_obj (members [])
      end
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing content";
    v

  let of_json text =
    let str = function
      | J_string s -> s
      | _ -> raise (Manifest_error "expected a string")
    in
    let field name obj =
      match obj with
      | J_obj kvs -> List.assoc_opt name kvs
      | _ -> raise (Manifest_error "expected an object")
    in
    let v = parse_json text in
    let site = match field "site" v with Some s -> str s | None -> "?" in
    let status =
      match field "status" v with
      | Some (J_string "degraded") -> Degraded
      | Some (J_string "clean") | None -> Clean
      | Some _ -> raise (Manifest_error "bad status")
    in
    let faults =
      match field "faults" v with
      | Some (J_list fs) ->
        List.map
          (fun f ->
            let get name =
              match field name f with Some s -> str s | None -> ""
            in
            let stage =
              match stage_of_name (get "stage") with
              | Some s -> s
              | None -> raise (Manifest_error ("bad stage " ^ get "stage"))
            in
            report ~stage ~source:(get "source") ~location:(get "location")
              ~cause:(get "cause") ~excerpt:(get "excerpt") ())
          fs
      | Some _ -> raise (Manifest_error "faults must be a list")
      | None -> []
    in
    (* status is recomputed from the fault list, not trusted from the
       file: the two can only disagree on a hand-edited manifest *)
    ignore status;
    make ~site faults
end
