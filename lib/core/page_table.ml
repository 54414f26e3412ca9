(** The watch session's published pages, kept across delta cycles.

    Pages live in dense slots; [slot_of] maps a page object's oid id to
    its slot.  Per slot the table keeps the page, the read trace of its
    last render, the distinct nodes that trace read ([subjects], oid
    ids in ascending order) and its demand refs as slots.  [readers]
    inverts the subjects: node → the slots whose traces read it.  A
    re-render updates [readers] by the difference between the old and
    the new subject sets, so a page whose reads only moved (a retitle
    reorders a sorted list's reads) costs one merge of two sorted
    arrays.

    Discovery order is kept in [order] (slots) and [pos] (slot →
    index): a breadth-first pass from the roots over the slots' refs,
    deduplicated with a per-slot stamp, which replays the discovery
    order of {!Render_pool.materialize}.  The same pass decides
    reachability, so it runs whenever a ref list or the root set
    changed.  A page's URL depends only on the pages, their slug URLs
    and [order], so it can move only in such a pass: while two pages
    share a slug URL, or a page is renamed, the pass names every page
    in [order] through the wave loop's URL rule. *)

module G = Template.Generator
module IT = Hashtbl.Make (Int)
open Sgraph

type entry = {
  mutable page : G.page;  (** as published: its URL, its hrefs *)
  mutable reads : G.read list;
  mutable subjects : int array;  (** distinct subject oid ids, ascending *)
  mutable refs : int array;  (** demand refs as slots, first-reference order *)
  mutable placeholder : bool;
  slug : string;  (** the slug URL *)
  mutable url : string;  (** the URL the last naming gave, else [slug] *)
}

type t = {
  graph : Graph.t;
  fault : Fault.ctx option;
  sink : Render_pool.sink option;
  rd : Render_pool.renderer;  (* every pass's, restarted per pass *)
  root_family : string;
  mutable roots : Oid.t list;
  slot_of : int IT.t;
  mutable objs : Oid.t array;
  mutable ents : entry option array;  (* [None]: free or not rendered yet *)
  mutable born : int array;  (* the cycle that allocated the slot *)
  mutable stamp : int array;  (* the last pass that visited the slot *)
  mutable pos : int array;  (* the slot's index in [order] *)
  mutable free : int list;
  mutable next : int;  (* slots below it are in use or on [free] *)
  mutable order : int array;  (* the first [n] cells: pages in order *)
  mutable spare : int array;  (* the next pass's [order] buffer *)
  mutable scratch : int array;  (* [subjects_of]'s buffer *)
  mutable n : int;
  mutable pass : int;
  mutable cycle : int;
  readers : int list ref IT.t;  (* subject oid id → slots reading it *)
  recheck : unit IT.t;  (* placeholders, retried every cycle *)
  urls : (string, int ref) Hashtbl.t;  (* slug URL → pages holding it *)
  mutable clashes : int;  (* slug URLs held by more than one page *)
  mutable renamed : int;  (* pages the last naming renamed *)
  mutable primed : bool;
}

let no_obj = Oid.fresh "(free slot)"
let no_file _ = None

(* --- slots --- *)

let clear t =
  IT.reset t.slot_of;
  IT.reset t.readers;
  IT.reset t.recheck;
  Hashtbl.reset t.urls;
  t.clashes <- 0;
  t.renamed <- 0;
  t.objs <- [||];
  t.ents <- [||];
  t.born <- [||];
  t.stamp <- [||];
  t.pos <- [||];
  t.free <- [];
  t.next <- 0;
  t.order <- [||];
  t.spare <- [||];
  t.n <- 0;
  t.primed <- false

let grow t =
  let cap = max 64 (2 * Array.length t.objs) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.objs <- extend t.objs no_obj;
  t.ents <- extend t.ents None;
  t.born <- extend t.born 0;
  t.stamp <- extend t.stamp 0;
  t.pos <- extend t.pos 0

(* The slot of page object [o], allocated (and queued on [pending] for
   rendering) on first reference. *)
let resolve t pending o =
  match IT.find_opt t.slot_of (Oid.id o) with
  | Some s -> s
  | None ->
    let s =
      match t.free with
      | s :: rest ->
        t.free <- rest;
        s
      | [] ->
        if t.next = Array.length t.objs then grow t;
        t.next <- t.next + 1;
        t.next - 1
    in
    t.objs.(s) <- o;
    t.born.(s) <- t.cycle;
    t.stamp.(s) <- 0;
    IT.add t.slot_of (Oid.id o) s;
    pending := s :: !pending;
    s

let url_add t u =
  match Hashtbl.find_opt t.urls u with
  | None -> Hashtbl.add t.urls u (ref 1)
  | Some k ->
    if !k = 1 then t.clashes <- t.clashes + 1;
    incr k

let url_remove t u =
  match Hashtbl.find_opt t.urls u with
  | None -> ()
  | Some k ->
    if !k = 1 then Hashtbl.remove t.urls u
    else begin
      if !k = 2 then t.clashes <- t.clashes - 1;
      decr k
    end

(* --- the reverse index --- *)

let index_add t k s =
  match IT.find_opt t.readers k with
  | Some l -> l := s :: !l
  | None -> IT.add t.readers k (ref [ s ])

let index_remove t k s =
  match IT.find_opt t.readers k with
  | None -> ()
  | Some l -> (
    match List.filter (fun s' -> s' <> s) !l with
    | [] -> IT.remove t.readers k
    | rest -> l := rest)

(* Move slot [s] from the readers of [old] to those of [now], both
   sorted and distinct: one merge, touching only the difference. *)
let reindex t s old now =
  let lo = Array.length old and ln = Array.length now in
  let i = ref 0 and j = ref 0 in
  while !i < lo || !j < ln do
    if !j >= ln || (!i < lo && old.(!i) < now.(!j)) then begin
      index_remove t old.(!i) s;
      incr i
    end
    else if !i >= lo || now.(!j) < old.(!i) then begin
      index_add t now.(!j) s;
      incr j
    end
    else begin
      incr i;
      incr j
    end
  done

(* The distinct nodes a trace read, ascending.  Reads of one node come
   in runs (an anchor probes several labels), so runs collapse before
   the sort; [t.scratch] holds them. *)
let subjects_of t reads =
  let n = ref 0 in
  List.iter
    (fun r ->
      match r with
      | G.R_attr (o, _, _) | G.R_edges (o, _) | G.R_colls (o, _) ->
        let k = Oid.id o in
        if !n = 0 || t.scratch.(!n - 1) <> k then begin
          if !n = Array.length t.scratch then begin
            let b = Array.make (2 * !n) 0 in
            Array.blit t.scratch 0 b 0 !n;
            t.scratch <- b
          end;
          t.scratch.(!n) <- k;
          incr n
        end
      | G.R_file _ -> ())
    reads;
  let a = Array.sub t.scratch 0 !n in
  Array.sort Int.compare a;
  let k = ref (min 1 !n) in
  for j = 1 to !n - 1 do
    if a.(j) <> a.(!k - 1) then begin
      a.(!k) <- a.(j);
      incr k
    end
  done;
  if !k = !n then a else Array.sub a 0 !k

(* Store a fresh render in slot [s]; refs to pages not in the table
   yet allocate their slots.  [true] iff the slot's ref list changed
   (a new page always counts). *)
let set_entry t pending s (r : G.rendered) ~placeholder =
  let subjects = subjects_of t r.G.r_reads in
  let refs =
    Array.of_list (List.map (fun (o, _) -> resolve t pending o) r.G.r_refs)
  in
  let old = t.ents.(s) in
  reindex t s
    (match old with Some e -> e.subjects | None -> [||])
    subjects;
  if placeholder then IT.replace t.recheck s ()
  else if old <> None then IT.remove t.recheck s;
  match old with
  | Some e ->
    let changed = e.refs <> refs in
    e.page <- r.G.r_page;
    e.reads <- r.G.r_reads;
    e.subjects <- subjects;
    e.refs <- refs;
    e.placeholder <- placeholder;
    changed
  | None ->
    let slug = r.G.r_page.G.url in
    url_add t slug;
    t.ents.(s) <-
      Some
        { page = r.G.r_page; reads = r.G.r_reads; subjects; refs; placeholder;
          slug; url = slug };
    true

let drop t s =
  (match t.ents.(s) with
   | Some e ->
     Array.iter (fun k -> index_remove t k s) e.subjects;
     url_remove t e.slug;
     t.ents.(s) <- None
   | None -> ());
  IT.remove t.recheck s;
  IT.remove t.slot_of (Oid.id t.objs.(s));
  t.objs.(s) <- no_obj;
  t.free <- s :: t.free

(* --- verification --- *)

(* The dirty-read replay rule: a read of a node outside [dirty] stands
   (the node's out-edges and collections are as they were), a read of
   a dirty node replays on the live node; a link to a removed node
   fails the page too (a trace records node names in its hashes, so a
   node replaced by one of the same name would otherwise pass).  Pages
   render with no file loader, so a file read always replays to the
   hash it recorded. *)
let valid t dirty e =
  let changed o = IT.mem dirty (Oid.id o) in
  (not e.placeholder)
  && List.for_all
       (fun r ->
         match r with
         | G.R_attr (o, _, _) | G.R_edges (o, _) | G.R_colls (o, _) ->
           (not (changed o)) || G.replay ~file_loader:no_file t.graph o r
         | G.R_file _ -> true)
       e.reads
  && Array.for_all
       (fun s ->
         let o = t.objs.(s) in
         (not (changed o)) || Graph.mem_node t.graph o)
       e.refs

(* --- discovery order --- *)

let new_pass t =
  t.pass <- t.pass + 1;
  t.pass

(* Breadth-first from the roots over the slots' refs: a cold build's
   discovery order.  Slots it does not reach keep an old stamp. *)
let reorder t =
  let pass = new_pass t in
  if Array.length t.spare < t.next then
    t.spare <- Array.make (Array.length t.objs) 0;
  let q = t.spare in
  let n = ref 0 in
  let push s =
    if t.stamp.(s) <> pass then begin
      t.stamp.(s) <- pass;
      t.pos.(s) <- !n;
      q.(!n) <- s;
      incr n
    end
  in
  List.iter (fun o -> push (IT.find t.slot_of (Oid.id o))) t.roots;
  let i = ref 0 in
  while !i < !n do
    (match t.ents.(q.(!i)) with
     | Some e -> Array.iter push e.refs
     | None -> ());
    incr i
  done;
  t.spare <- t.order;
  t.order <- q;
  t.n <- !n

let entry t s = match t.ents.(s) with Some e -> e | None -> assert false
let page_of t s = (entry t s).page

(* --- naming --- *)

(* Name every page in [order] as the wave loop does, when the pass
   [reordered] (a URL moves only then), and mark in [stamp] the pages
   whose URL moved.  Then a page rendered this pass ([fresh], with slug
   hrefs) renders again if it or a page it links to is renamed, a kept
   page if its or a linked page's URL moved; a placeholder just takes
   its URL.  Returns whether a published URL moved, which a kept
   page's render implies. *)
let name t fresh ~reordered =
  let moved = new_pass t and published = ref false in
  if reordered then begin
    let nm = Render_pool.names () in
    t.renamed <- 0;
    for i = 0 to t.n - 1 do
      let s = t.order.(i) in
      let e = entry t s in
      let u = Render_pool.name_url nm e.slug in
      if u <> e.slug then t.renamed <- t.renamed + 1;
      if u <> e.url then begin
        t.stamp.(s) <- moved;
        if t.born.(s) < t.cycle then published := true;
        e.url <- u
      end
    done
  end;
  let href o = (entry t (IT.find t.slot_of (Oid.id o))).url in
  let rehref stale s =
    let e = entry t s in
    if stale s || Array.exists stale e.refs then
      e.page <-
        (if e.placeholder then { e.page with G.url = e.url }
         else Render_pool.rerender t.rd ~href t.graph t.objs.(s))
  in
  List.iter (rehref (fun s -> (entry t s).url <> (entry t s).slug)) fresh;
  if !published then
    for i = 0 to t.n - 1 do
      rehref (fun s -> t.stamp.(s) = moved) t.order.(i)
    done;
  !published

let by_location a b = compare a.Fault.f_location b.Fault.f_location

(* --- one pass: the first publish, or a cycle --- *)

let run t ~touched ~removed =
  let t0 = Render_pool.now_ms () in
  let prime = not t.primed in
  if prime then clear t;
  t.cycle <- t.cycle + 1;
  let rd = t.rd in
  Render_pool.restart rd;
  let pending = ref [] and rendered = ref [] and batches = ref [] in
  let waves = ref 0 and misses = ref 0 and invalidations = ref 0 in
  let reorder_needed = ref prime in
  let render slots =
    incr waves;
    let results =
      Render_pool.render_pages rd t.graph (Array.map (fun s -> t.objs.(s)) slots)
    in
    let batch = ref [] in
    Array.iteri
      (fun i (r, report) ->
        let s = slots.(i) in
        (match t.ents.(s) with
         | Some e when not e.placeholder -> incr invalidations
         | _ -> incr misses);
        Option.iter (fun rep -> batch := (s, rep) :: !batch) report;
        if set_entry t pending s r ~placeholder:(report <> None) then
          reorder_needed := true;
        rendered := s :: !rendered)
      results;
    batches := !batch :: !batches
  in
  (* the roots move only with a node of their family *)
  let in_root_family o =
    Schema.Verify.family_of_node o = Some t.root_family
  in
  if List.exists in_root_family touched || List.exists in_root_family removed
  then begin
    let roots = Schema.Verify.family_members t.graph t.root_family in
    if not (List.equal Oid.equal roots t.roots) then begin
      t.roots <- roots;
      reorder_needed := true
    end
  end;
  if !reorder_needed then
    List.iter (fun o -> ignore (resolve t pending o)) t.roots;
  (* the readers of every changed node, and the pages re-checked every
     cycle, re-render unless their traces still verify *)
  if not prime then begin
    let dirty = IT.create 64 in
    List.iter (fun o -> IT.replace dirty (Oid.id o) ()) touched;
    List.iter (fun o -> IT.replace dirty (Oid.id o) ()) removed;
    let pass = new_pass t in
    let candidates = ref [] in
    let visit s =
      if t.stamp.(s) <> pass then begin
        t.stamp.(s) <- pass;
        candidates := s :: !candidates
      end
    in
    IT.iter
      (fun k () ->
        match IT.find_opt t.readers k with
        | Some l -> List.iter visit !l
        | None -> ())
      dirty;
    IT.iter (fun s () -> visit s) t.recheck;
    let stale =
      List.filter
        (fun s ->
          if not (Graph.mem_node t.graph t.objs.(s)) then begin
            (* its object is gone: the page is unreachable now *)
            reorder_needed := true;
            false
          end
          else
            match t.ents.(s) with
            | Some e -> not (valid t dirty e)
            | None -> false)
        !candidates
      |> Array.of_list
    in
    Array.sort (fun a b -> Int.compare t.pos.(a) t.pos.(b)) stale;
    if stale <> [||] then render stale
  end;
  (* pages first linked this cycle, wave by wave *)
  while !pending <> [] do
    let slots = Array.of_list (List.rev !pending) in
    pending := [];
    render slots
  done;
  let reset = ref prime in
  if !reorder_needed then begin
    reorder t;
    for s = 0 to t.next - 1 do
      match t.ents.(s) with
      | Some _ when t.stamp.(s) <> t.pass ->
        if t.born.(s) < t.cycle then reset := true;
        drop t s
      | _ -> ()
    done
  end;
  let fresh = List.filter (fun s -> t.ents.(s) <> None) !rendered in
  if
    (t.clashes > 0 || t.renamed > 0)
    && name t fresh ~reordered:!reorder_needed
  then reset := true;
  t.primed <- true;
  (* each render batch's fault reports, under the pages' URLs *)
  let located (s, rep) =
    match t.ents.(s) with
    | Some e -> { rep with Fault.f_location = e.url }
    | None -> rep
  in
  let reports =
    List.concat_map
      (fun b -> List.sort by_location (List.rev_map located b))
      (List.rev !batches)
  in
  Option.iter (fun c -> List.iter (Fault.record c) reports) t.fault;
  let pages = List.init t.n (fun i -> page_of t t.order.(i)) in
  (match t.sink with
   | Some sk when !reset ->
     sk.Render_pool.sk_reset ();
     List.iter sk.Render_pool.sk_emit pages
   | Some sk ->
     let fresh = Array.of_list fresh in
     Array.sort (fun a b -> Int.compare t.pos.(a) t.pos.(b)) fresh;
     Array.iter (fun s -> sk.Render_pool.sk_emit (page_of t s)) fresh
   | None -> ());
  ( { G.pages; graph = t.graph },
    Render_pool.profile rd ~t0 ~pages:t.n ~rendered:(List.length !rendered)
      ~waves:!waves ~hits:(t.n - List.length fresh) ~misses:!misses
      ~invalidations:!invalidations ~degraded:(List.length reports) )

let update t ~touched ~removed =
  try run t ~touched ~removed
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    clear t;
    Printexc.raise_with_backtrace e bt

let idle t = t.primed && IT.length t.recheck = 0

let create ?jobs ?on_error ?fault ?sink ~templates ~root_family graph
    ~roots =
  let t =
    {
      graph;
      fault;
      sink;
      rd = Render_pool.renderer ?jobs ~templates ?on_error ?fault ();
      root_family;
      roots;
      slot_of = IT.create 1024;
      objs = [||];
      ents = [||];
      born = [||];
      stamp = [||];
      pos = [||];
      free = [];
      next = 0;
      order = [||];
      spare = [||];
      scratch = Array.make 256 0;
      n = 0;
      pass = 0;
      cycle = 0;
      readers = IT.create 1024;
      recheck = IT.create 16;
      urls = Hashtbl.create 1024;
      clashes = 0;
      renamed = 0;
      primed = false;
    }
  in
  (t, update t ~touched:[] ~removed:[])
