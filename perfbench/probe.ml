(* The perfbench probe: keeps one STRUDEL site up to date under a stream
   of source edits, as [strudel watch] does, and prints one JSON result
   object as its last line.

     probe.exe --workload NAME --seed N --seconds S --trace 0|1

   Set-up starts a watch session: it primes the differential engine over
   the workload's data and publishes the whole site.  The probe then
   runs rounds until [--seconds] are spent.  One round is:

   - an edit: the workload's fixed number of seeded items change title
     (through the session's recorder for the in-process synth site; as
     a new export of the bibliography source for the mediated org site);
   - the delta publish: one [Serve.Watch.cycle] -- pick up the change
     (a recorder flush, or [Mediator.Warehouse.refresh_delta] with its
     quarantine/retry policy), maintain the site graph differentially,
     re-render the pages the change invalidated and hand the site to the
     session's sink;
   - the full re-query publish of the same data: [Incremental.rebuild]
     with its own render cache (every site query runs again, pages
     re-render under the same exact trace invalidation);
   - every few rounds, one more set-up over fresh data, thrown away.

   A full major collection runs before each timed operation, so the
   garbage one operation leaves is not collected on the next one's
   clock.  Each time is scaled to a fixed machine speed by a yardstick
   run just before it (see [yardstick]): on a shared 2-vCPU virtual
   machine the raw medians of ten runs spread by 9-26% between their
   quartiles, the scaled ones by 1-4%.  The unscaled medians are
   printed on standard error.  Times are medians over the rounds; the
   delta publish also reports its 90th percentile (a run has ten or
   more samples beyond it).

   With [--trace 1] the probe reports per-layer figures instead: the
   counters each cycle report and rebuild report carry, the pages the
   sink received, the mediator's own per-source load times and the
   bytes each publish allocated.

   Correctness: every cycle must see the change and publish cleanly (no
   quarantined source, no placeholder page); every few rounds the delta
   publish must equal the full re-query publish page for page; at the
   end both must equal a cold [Site.build] of the same data. *)

open Sgraph

(* ---------------------------------------------------------------- *)
(* Samples                                                           *)

(* seconds on the monotonic clock, nanosecond resolution *)
external now : unit -> (float[@unboxed])
  = "perfbench_now" "perfbench_now_unboxed"
[@@noalloc]

type samples = { mutable xs : float array; mutable n : int }

let samples () = { xs = Array.make 256 0.; n = 0 }

let add s x =
  if s.n = Array.length s.xs then begin
    let a = Array.make (2 * s.n) 0. in
    Array.blit s.xs 0 a 0 s.n;
    s.xs <- a
  end;
  s.xs.(s.n) <- x;
  s.n <- s.n + 1

(* Linear interpolation between closest ranks. *)
let quantile s q =
  if s.n = 0 then nan
  else begin
    let a = Array.sub s.xs 0 s.n in
    Array.sort Float.compare a;
    let pos = q *. float_of_int (s.n - 1) in
    let lo = int_of_float pos in
    let hi = min (s.n - 1) (lo + 1) in
    a.(lo) +. ((a.(hi) -. a.(lo)) *. (pos -. float_of_int lo))
  end

let median s = quantile s 0.5

(* ---------------------------------------------------------------- *)
(* Machine speed                                                     *)

module Int_map = Map.Make (Int)

let yard_sink = ref 0

(* 16 MB outside the OCaml heap, so the collector never scans it. *)
let yard_words = 1 lsl 21
let yard_mem = Bigarray.Array1.create Bigarray.int Bigarray.c_layout yard_words
let () = Bigarray.Array1.fill yard_mem 1

(* A fixed kernel that uses none of the system's code, in two halves of
   about 5 ms each on a 2-vCPU Xeon virtual machine: building and
   dropping small maps (allocation and minor collections, nothing
   promoted), then random reads over [yard_mem] (cache misses).  On a
   shared host the speed of the first half swings more than the
   system's does, the second less; their sum follows it closest. *)
let yardstick () =
  let t0 = now () in
  for r = 1 to 80 do
    let m = ref Int_map.empty in
    for i = 1 to 500 do
      m := Int_map.add (((i * 7919) + r) land 0xffff) i !m
    done;
    yard_sink := !yard_sink + Int_map.cardinal !m
  done;
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to 400_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    acc := !acc + Bigarray.Array1.unsafe_get yard_mem (!x land (yard_words - 1))
  done;
  yard_sink := !yard_sink + !acc;
  now () -. t0

let yard_nominal = 0.010 (* seconds *)
let yards = samples ()

(* When the host slows the yardstick by a factor [k], it slows the
   system's code by about [k ** yard_power]: fitted over sixty
   thirty-second runs of the three workloads on a 2-vCPU Xeon virtual
   machine, the power lay between 1.1 and 1.4, and 1.25 left the least
   spread in the medians of all three. *)
let yard_power = 1.25

(* [timed ~raw s f] times [f] into [raw] and, scaled to the nominal
   machine speed by the yardstick run just before it, into [s].  Before
   the yardstick, a full major collection clears what earlier work left
   on the heap, so neither [f] nor the yardstick pays for it; after it,
   a minor collection clears the yardstick's own garbage. *)
let timed ~raw s f =
  Gc.full_major ();
  let y = yardstick () in
  add yards y;
  Gc.minor ();
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  add raw dt;
  add s (dt *. ((yard_nominal /. y) ** yard_power));
  r

(* ---------------------------------------------------------------- *)
(* Per-layer series                                                  *)

let tracing = ref false
let series_tbl : (string, samples) Hashtbl.t = Hashtbl.create 32

let series name =
  match Hashtbl.find_opt series_tbl name with
  | Some s -> s
  | None ->
    let s = samples () in
    Hashtbl.add series_tbl name s;
    s

let record name x = if !tracing then add (series name) x

(* [allocating name f] records the megabytes [f] allocated when
   tracing. *)
let allocating name f =
  if not !tracing then f ()
  else begin
    let a0 = Gc.allocated_bytes () in
    let r = f () in
    record name ((Gc.allocated_bytes () -. a0) *. 1e-6);
    r
  end

(* ---------------------------------------------------------------- *)
(* Published sites                                                   *)

(* A published site, URL to bytes.  Page writes to a file system vary
   by a factor of two from run to run on a shared host, so the probe
   publishes into memory; the pages a publish hands over are counted. *)
type store = (string, string) Hashtbl.t

let pages_emitted = ref 0
let placeholders = ref 0

(* The watch session's sink: every page it emits lands in [store]. *)
let store_sink (store : store) =
  {
    Strudel.Render_pool.sk_emit =
      (fun p ->
        incr pages_emitted;
        if Template.Generator.is_placeholder p then incr placeholders;
        Hashtbl.replace store p.Template.Generator.url
          p.Template.Generator.html);
    sk_reset = (fun () -> Hashtbl.reset store);
  }

let publish_site (store : store) (site : Template.Generator.site) =
  Hashtbl.reset store;
  List.iter
    (fun (p : Template.Generator.page) -> Hashtbl.replace store p.url p.html)
    site.Template.Generator.pages

(* [store] holds exactly [pages]. *)
let holds (store : store) (pages : Template.Generator.page list) =
  Hashtbl.length store = List.length pages
  && List.for_all
       (fun (p : Template.Generator.page) ->
         Hashtbl.find_opt store p.url = Some p.html)
       pages

let pages (b : Strudel.Site.built) =
  b.Strudel.Site.site.Template.Generator.pages

(* ---------------------------------------------------------------- *)
(* Workloads                                                         *)

(* A data set under watch: the session's source, how to apply one edit
   of [k] items, and the data graph an edit leaves. *)
type subject = {
  source : Serve.Watch.source;
  edit : Serve.Watch.t -> Random.State.t -> rev:int -> int -> unit;
  data : unit -> Graph.t;
}

type workload = {
  w_name : string;
  w_def : Strudel.Site.definition;
  w_k : int;  (** items edited per publish *)
  w_subject : seed:int -> subject;
}

(* [k] distinct indices below [n]. *)
let pick rng n k =
  let a = Array.init n Fun.id in
  for i = 0 to k - 1 do
    let j = i + Random.State.int rng (n - i) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.sub a 0 k

(* The flat synth site (root, group pages, one page per item), data in
   process: edits retitle items through the session's recorder. *)
let synth_items = 1000
let synth_groups = 20

let synth ~seed =
  let g =
    Wrappers.Synth.scale_graph ~seed ~groups:synth_groups ~items:synth_items ()
  in
  let items = Array.of_list (Graph.collection g "Items") in
  {
    source = Serve.Watch.Direct g;
    edit =
      (fun s rng ~rev k ->
        let r = Option.get (Serve.Watch.recorder s) in
        Array.iter
          (fun i ->
            let o = items.(i) in
            Delta.Rec.set_value r o "title"
              (Value.String (Printf.sprintf "%s rev %d" (Oid.name o) rev)))
          (pick rng (Array.length items) k));
    data = (fun () -> g);
  }

(* The organization site over its federated sources (a relational
   export, a projects file, a BibTeX bibliography, legacy pages),
   integrated by the warehousing mediator: edits arrive as a new export
   of the bibliography with [k] titles rewritten. *)
let org_people = 100
let org_orgs = 6
let org_pubs = 80

let title_marker = "\n  title = {"

(* The bibliography split at its title fields: chunk [i + 1] starts
   with entry [i]'s title text. *)
let split_titles text =
  let m = String.length title_marker in
  let rec go from acc =
    match
      let rec find i =
        if i + m > String.length text then None
        else if String.sub text i m = title_marker then Some i
        else find (i + 1)
      in
      find from
    with
    | None -> List.rev (String.sub text from (String.length text - from) :: acc)
    | Some i -> go (i + m) (String.sub text from (i - from) :: acc)
  in
  Array.of_list (go 0 [])

let org ~seed =
  let sources, w =
    Sites.Org.data ~seed ~people:org_people ~orgs:org_orgs ~pubs:org_pubs ()
  in
  (* the text [Sites.Org] loads its bibliography from *)
  let chunks =
    split_titles (Wrappers.Synth.bibtex ~seed:(seed + 2) ~entries:org_pubs ())
  in
  let prefix = Array.make (Array.length chunks - 1) "" in
  {
    source = Serve.Watch.Mediated w;
    edit =
      (fun _ rng ~rev k ->
        Array.iter
          (fun i -> prefix.(i) <- Printf.sprintf "Revision %d of " rev)
          (pick rng (Array.length prefix) k);
        let b = Buffer.create 16384 in
        Buffer.add_string b chunks.(0);
        Array.iteri
          (fun i p ->
            Buffer.add_string b title_marker;
            Buffer.add_string b p;
            Buffer.add_string b chunks.(i + 1))
          prefix;
        let text = Buffer.contents b in
        Mediator.Source.update sources.Sites.Org.bib (fun () ->
            fst (Wrappers.Bibtex.load ~graph_name:"BIB" text)));
    data = (fun () -> Mediator.Warehouse.graph w);
  }

let workloads =
  [
    {
      w_name = "synth-1";
      w_def = Sites.Scale.definition;
      w_k = 1;
      w_subject = synth;
    };
    {
      w_name = "synth-100";
      w_def = Sites.Scale.definition;
      w_k = 100;
      w_subject = synth;
    };
    {
      w_name = "org-10";
      w_def = Sites.Org.definition;
      w_k = 10;
      w_subject = org;
    };
  ]

(* ---------------------------------------------------------------- *)
(* The run                                                           *)

type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
}

let fail out msg =
  out.failed <- out.failed + 1;
  out.problems <- msg :: out.problems

let check_every = 5 (* rounds between delta ≡ re-query checks *)
let setup_every = 8 (* rounds between extra set-ups *)
let setup_max = 9 (* set-ups per run, the first included *)
let heap_round = 50 (* the round after which the session's heap is weighed *)

(* What a run measured: times in seconds, scaled and raw. *)
type result = {
  setups : samples;
  setups_raw : samples;
  publishes : samples;
  publishes_raw : samples;
  requeries : samples;
  requeries_raw : samples;
  hit_ratio : float;
  held_words : int;  (** the live session's heap after [heap_round] rounds *)
  site_pages : int;
}

let run ~w ~seed ~seconds =
  let out = { attempted = 0; failed = 0; problems = [] } in
  let def = w.w_def in
  (* set-up: from integrated data to a primed session with the whole
     site published *)
  let setups = samples () and setups_raw = samples () in
  let set_up ~seed store =
    let subject = w.w_subject ~seed in
    out.attempted <- out.attempted + 1;
    let session =
      timed ~raw:setups_raw setups (fun () ->
          Serve.Watch.create ~sink:(store_sink store) ~source:subject.source
            def)
    in
    (subject, session)
  in
  let watched : store = Hashtbl.create 4096 in
  let subject, session = set_up ~seed watched in
  (* the full re-query path starts from a cold build, and one untimed
     rebuild fills its render cache *)
  let requeried : store = Hashtbl.create 4096 in
  let requery_cache = Strudel.Render_cache.create () in
  let requery =
    ref
      (Strudel.Incremental.rebuild ~cache:requery_cache
         ~previous:(Strudel.Site.build ~data:(subject.data ()) def)
         ~data:(subject.data ()) ())
        .Strudel.Incremental.built
  in
  let rng = Random.State.make [| seed; 1 |] in
  let publishes = samples () and requeries = samples () in
  let publishes_raw = samples () and requeries_raw = samples () in
  let round = ref 0 in
  (* the memory the live session holds *)
  let held = ref 0 in
  let weigh () = held := Obj.reachable_words (Obj.repr session) in
  let start = now () in
  while !round = 0 || now () -. start < seconds do
    incr round;
    let failed msg = fail out (Printf.sprintf "round %d: %s" !round msg) in
    subject.edit session rng ~rev:!round w.w_k;
    (* the delta publish *)
    out.attempted <- out.attempted + 1;
    pages_emitted := 0;
    placeholders := 0;
    (match
       timed ~raw:publishes_raw publishes (fun () ->
           allocating "publish.alloc" (fun () -> Serve.Watch.cycle session))
     with
     | exception e -> failed ("the watch cycle raised " ^ Printexc.to_string e)
     | r ->
       if not r.Serve.Watch.cy_changed then
         failed "the watch cycle saw no change"
       else if r.Serve.Watch.cy_quarantined <> [] then
         failed "a source was quarantined"
       else if !placeholders > 0 then failed "a placeholder page was published";
       let count name v = record name (float_of_int v) in
       count "publish.changes" r.Serve.Watch.cy_delta_card;
       count "publish.drivers" r.Serve.Watch.cy_drivers;
       count "publish.rows" r.Serve.Watch.cy_rows;
       count "publish.touched" r.Serve.Watch.cy_touched;
       count "publish.rerendered" r.Serve.Watch.cy_rerendered;
       count "publish.reused" r.Serve.Watch.cy_reused;
       count "publish.fallbacks" (List.length r.Serve.Watch.cy_fallbacks);
       count "publish.emitted" !pages_emitted;
       record "mediator.load"
         (match Serve.Watch.warehouse session with
          | Some wh ->
            List.fold_left
              (fun acc ss -> acc +. ss.Mediator.Warehouse.ss_duration_ms)
              0. (Mediator.Warehouse.last_refresh wh)
          | None -> 0.));
    (* the full re-query publish of the same data *)
    out.attempted <- out.attempted + 1;
    (match
       timed ~raw:requeries_raw requeries (fun () ->
           allocating "requery.alloc" (fun () ->
               let r =
                 Strudel.Incremental.rebuild ~cache:requery_cache
                   ~previous:!requery ~data:(subject.data ()) ()
               in
               publish_site requeried
                 r.Strudel.Incremental.built.Strudel.Site.site;
               r))
     with
     | exception e ->
       failed ("the re-query rebuild raised " ^ Printexc.to_string e)
     | r ->
       requery := r.Strudel.Incremental.built;
       record "requery.rerendered"
         (float_of_int r.Strudel.Incremental.pages_rerendered));
    if !round mod check_every = 0 && not (holds watched (pages !requery)) then
      failed "the delta publish differs from the re-query publish";
    if !round = heap_round then weigh ();
    if !round mod setup_every = 0 && setups.n < setup_max then
      ignore (set_up ~seed:(seed + setups.n) (Hashtbl.create 4096))
  done;
  (* the reference: a cold build of the final data *)
  let cold = pages (Strudel.Site.build ~data:(subject.data ()) def) in
  if not (holds watched cold) then
    fail out "the delta publish differs from a cold build at the end";
  if not (holds requeried cold) then
    fail out "the re-query publish differs from a cold build at the end";
  if !round < heap_round then weigh ();
  let hits, misses, _ =
    Strudel.Render_cache.stats (Serve.Watch.cache session)
  in
  ( out,
    {
      setups;
      setups_raw;
      publishes;
      publishes_raw;
      requeries;
      requeries_raw;
      hit_ratio = float_of_int hits /. float_of_int (max 1 (hits + misses));
      held_words = !held;
      site_pages = List.length cold;
    } )

(* ---------------------------------------------------------------- *)
(* Output                                                            *)

let json_metric (name, value, unit) =
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. in
  let trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S seconds of rounds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer figures");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "probe.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.w_name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  tracing := !trace = 1;
  let out, r = run ~w ~seed:!seed ~seconds:!seconds in
  let layer name scale = scale *. median (series name) in
  let metrics =
    if !tracing then
      [
        ("publish_changes", layer "publish.changes" 1., "count");
        ("publish_drivers", layer "publish.drivers" 1., "count");
        ("publish_rows", layer "publish.rows" 1., "count");
        ("publish_touched", layer "publish.touched" 1., "count");
        ("publish_rerendered", layer "publish.rerendered" 1., "count");
        ("publish_reused", layer "publish.reused" 1., "count");
        ("publish_fallbacks", layer "publish.fallbacks" 1., "count");
        ("publish_emitted", layer "publish.emitted" 1., "count");
        ("publish_alloc_mb", layer "publish.alloc" 1., "MB");
        ("mediator_load_ms", layer "mediator.load" 1., "ms");
        ("cache_hit_ratio", r.hit_ratio, "ratio");
        ("requery_rerendered", layer "requery.rerendered" 1., "count");
        ("requery_alloc_mb", layer "requery.alloc" 1., "MB");
        ("site_pages", float_of_int r.site_pages, "count");
        ("yardstick_ms", 1e3 *. median yards, "ms");
      ]
    else
      [
        ("publish_ms", 1e3 *. median r.publishes, "ms");
        ("publish_p90_ms", 1e3 *. quantile r.publishes 0.9, "ms");
        ("requery_ms", 1e3 *. median r.requeries, "ms");
        ("setup_s", median r.setups, "s");
        ( "session_heap_mb",
          float_of_int (r.held_words * (Sys.word_size / 8)) *. 1e-6,
          "MB" );
      ]
  in
  List.iter (fun p -> prerr_endline ("problem: " ^ p)) (List.rev out.problems);
  Printf.eprintf "%s seed %d: %d set-ups, %d publishes, %d re-queries\n"
    w.w_name !seed r.setups.n r.publishes.n r.requeries.n;
  Printf.eprintf
    "unscaled: publish_ms %.4f publish_p90_ms %.4f requery_ms %.4f setup_s \
     %.5f; yardstick_ms %.4f\n"
    (1e3 *. median r.publishes_raw)
    (1e3 *. quantile r.publishes_raw 0.9)
    (1e3 *. median r.requeries_raw)
    (median r.setups_raw) (1e3 *. median yards);
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (out.problems = [] && out.failed = 0)
    out.attempted out.failed
    (String.concat ", " (List.map json_metric metrics))
