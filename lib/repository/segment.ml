(* Graph segments: the repository's one on-disk graph format.

   A segment is a short header (magic, version, body length, FNV-1a 64
   checksum of the body) and a body in a compact varint form: epoch,
   numbering flag, meta, one string table (labels, names and string
   values interned once), then nodes, edges in sequence order and
   collections with their members.  A standalone graph is its own
   whole, so its global ids and sequence numbers follow from its own
   order and cost no bytes; a shard of a repository carries them, since
   it holds a sparse subset of the union's elements.  Decoding checks
   every byte: any malformed input raises {!Corrupt} with the absolute
   byte offset at which the decoder gave up. *)

open Sgraph

exception Corrupt of string * int

let corrupt msg pos = raise (Corrupt (msg, pos))

(* The fixed-width layout before this one was "SGSEG001", version 1:
   its files fail the magic check at offset 0.  The magic now stays put
   and the version counts layouts. *)
let magic = "STRUDSEG"
let version = 2

let fnv s from upto =
  let h = ref 0xcbf29ce484222325L in
  for i = from to upto - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  !h

(* --- primitives: varints, strings, values --- *)

(* LEB128 over the 63-bit unsigned word ([lsr] is logical), so any bit
   pattern round-trips in at most 9 bytes. *)
let put_varint buf n =
  let n = ref n in
  while !n land lnot 0x7f <> 0 do
    Buffer.add_char buf (Char.chr (!n land 0x7f lor 0x80));
    n := !n lsr 7
  done;
  Buffer.add_char buf (Char.chr !n)

let put_string buf s =
  put_varint buf (String.length s);
  Buffer.add_string buf s

(* Zigzag over the full 63-bit range (wraparound-safe). *)
let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag z = (z lsr 1) lxor -(z land 1)

type reader = { src : string; mutable pos : int }

let get_byte r =
  if r.pos >= String.length r.src then corrupt "unexpected end" r.pos;
  let c = Char.code (String.unsafe_get r.src r.pos) in
  r.pos <- r.pos + 1;
  c

let get_varint r =
  let start = r.pos in
  let rec go shift acc =
    let b = get_byte r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc
    else if shift >= 56 then corrupt "varint longer than 9 bytes" start
    else go (shift + 7) acc
  in
  go 0 0

(* A count of elements that take at least a byte each: larger than the
   rest of the input is corruption, caught before anything is
   allocated for it. *)
let get_count r =
  let start = r.pos in
  let n = get_varint r in
  if n < 0 || n > String.length r.src - r.pos then
    corrupt (Printf.sprintf "count %d exceeds the remaining input" n) start;
  n

let get_string r =
  let n = get_count r in
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

type interner = { tbl : (string, int) Hashtbl.t; mutable rev : string list }

let interner () = { tbl = Hashtbl.create 256; rev = [] }

let intern it s =
  match Hashtbl.find_opt it.tbl s with
  | Some i -> i
  | None ->
    let i = Hashtbl.length it.tbl in
    Hashtbl.add it.tbl s i;
    it.rev <- s :: it.rev;
    i

(* An edge target is a value under tags 0-7 or a node under tag 8. *)
let node_tag = 8

let put_value buf it v =
  let put = put_varint buf in
  match v with
  | Value.Null -> put 0
  | Value.Bool false -> put 1
  | Value.Bool true -> put 2
  | Value.Int i ->
    put 3;
    put (zigzag i)
  | Value.Float f ->
    (* the 64 payload bits do not fit OCaml's 63-bit int: store two
       32-bit halves *)
    put 4;
    let bits = Int64.bits_of_float f in
    put (Int64.to_int (Int64.logand bits 0xFFFFFFFFL));
    put (Int64.to_int (Int64.shift_right_logical bits 32))
  | Value.String s ->
    put 5;
    put (intern it s)
  | Value.Url s ->
    put 6;
    put (intern it s)
  | Value.File (k, p) ->
    put 7;
    put (intern it (Value.file_kind_name k));
    put (intern it p)

(* The value under [tag], read at [at]. *)
let get_value r str tag at =
  match tag with
  | 0 -> Value.Null
  | 1 -> Value.Bool false
  | 2 -> Value.Bool true
  | 3 -> Value.Int (unzigzag (get_varint r))
  | 4 ->
    let lo = Int64.of_int (get_varint r) in
    let hi = Int64.of_int (get_varint r) in
    Value.Float (Int64.float_of_bits (Int64.logor lo (Int64.shift_left hi 32)))
  | 5 -> Value.String (str ())
  | 6 -> Value.Url (str ())
  | 7 ->
    let kind = str () in
    let path = str () in
    let k =
      match Value.file_kind_of_name kind with
      | Some k -> k
      | None -> Value.Other_file kind
    in
    Value.File (k, path)
  | t -> corrupt (Printf.sprintf "unknown target tag %d" t) at

(* --- writing --- *)

type whole = {
  w_graph : Graph.t;
  w_gid : int array;  (* slot -> global id, -1 for a removed node's slot *)
  w_member : (string, int Oid.Tbl.t) Hashtbl.t;
      (* collection -> member -> sequence number *)
}

let whole g =
  let module S = Graph.Slots in
  let gid = Array.make (S.count g) (-1) and n = ref 0 in
  for s = 0 to S.count g - 1 do
    if S.live g s then begin
      gid.(s) <- !n;
      incr n
    end
  done;
  let member = Hashtbl.create 16 and seq = ref 0 in
  List.iter
    (fun c ->
      let tbl = Oid.Tbl.create 16 in
      List.iter
        (fun o ->
          Oid.Tbl.replace tbl o !seq;
          incr seq)
        (Graph.collection g c);
      Hashtbl.replace member c tbl)
    (Graph.collections g);
  { w_graph = g; w_gid = gid; w_member = member }

let encode ?(epoch = 0) ?(meta = []) ?whole g =
  let module S = Graph.Slots in
  let fail what = invalid_arg ("Segment.encode: " ^ what) in
  let it = interner () in
  let body = Buffer.create 4096 in
  let put = put_varint body in
  (* a strictly ascending sequence number, as its gap from the last *)
  let put_seq last seq =
    if seq <= !last then fail "elements out of the whole graph's order";
    put (seq - !last - 1);
    last := seq
  in
  let slots = S.count g in
  let idx = Array.make slots (-1) and n = ref 0 in
  for s = 0 to slots - 1 do
    if S.live g s then begin
      idx.(s) <- !n;
      incr n
    end
  done;
  let local o = idx.(S.find g o) in
  (* each node's slot in [whole], and a cursor into its out-bucket
     there: a shard lists a node's out-edges as [whole] does *)
  let wslot =
    match whole with
    | None -> [||]
    | Some w ->
      Array.init slots (fun s ->
          if not (S.live g s) then -1
          else
            let ws = S.find w.w_graph (S.oid g s) in
            if ws < 0 then fail "node outside the whole graph" else ws)
  in
  let cursor = Array.make (Array.length wslot) 0 in
  put !n;
  for s = 0 to slots - 1 do
    if S.live g s then begin
      Option.iter (fun w -> put w.w_gid.(wslot.(s))) whole;
      put (intern it (Oid.name (S.oid g s)))
    end
  done;
  put (Graph.edge_count g);
  let last = ref (-1) in
  Graph.iter_edges_inserted
    (fun src l tgt ->
      let s = S.find g src in
      Option.iter
        (fun w ->
          let wg = w.w_graph and ws = wslot.(s) in
          let bucket = S.out wg ws in
          let rec next i =
            if i >= S.out_len wg ws then fail "edge outside the whole graph"
            else if S.label wg bucket.(i) >= 0 then i
            else next (i + 1)
          in
          let i = next cursor.(s) in
          cursor.(s) <- i + 1;
          put_seq last bucket.(i))
        whole;
      put idx.(s);
      put (intern it l);
      match tgt with
      | Graph.N o ->
        put node_tag;
        put (local o)
      | Graph.V v -> put_value body it v)
    g;
  let colls = Graph.collections g in
  put (List.length colls);
  let last = ref (-1) in
  List.iter
    (fun c ->
      put (intern it c);
      let members = Graph.collection g c in
      put (List.length members);
      let seqs =
        Option.map
          (fun w ->
            match Hashtbl.find_opt w.w_member c with
            | Some tbl -> tbl
            | None -> fail "collection outside the whole graph")
          whole
      in
      List.iter
        (fun o ->
          Option.iter
            (fun tbl ->
              match Oid.Tbl.find_opt tbl o with
              | Some seq -> put_seq last seq
              | None -> fail "member outside the whole graph")
            seqs;
          put (local o))
        members)
    colls;
  let head = Buffer.create 1024 in
  put_varint head epoch;
  put_varint head (if Option.is_none whole then 0 else 1);
  let meta = ("graph", Graph.name g) :: meta in
  put_varint head (List.length meta);
  List.iter
    (fun (k, v) ->
      put_string head k;
      put_string head v)
    meta;
  put_varint head (Hashtbl.length it.tbl);
  List.iter (put_string head) (List.rev it.rev);
  Buffer.add_buffer head body;
  let rest = Buffer.contents head in
  let out = Buffer.create (String.length rest + 32) in
  Buffer.add_string out magic;
  put_varint out version;
  put_varint out (String.length rest);
  Buffer.add_int64_le out (fnv rest 0 (String.length rest));
  Buffer.add_string out rest;
  Buffer.contents out

let write_file ~path contents =
  let tmp = path ^ ".tmp" in
  (try
     let oc = open_out_bin tmp in
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () ->
         output_string oc contents;
         close_out oc)
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let write ~path ?epoch ?meta ?whole g =
  let s = encode ?epoch ?meta ?whole g in
  write_file ~path s;
  String.length s

(* --- reading --- *)

type t = {
  size : int;
  epoch : int;
  meta : (string * string) list;
  numbered : bool;
  nodes_at : int;  (* the node table's offset, for errors across segments *)
  gids : int array;
  names : string array;
  e_seq : int array;
  e_src : int array;
  e_label : string array;
  e_tgt : int array;  (* a node index, or -1 for a value *)
  e_val : Value.t array;
  colls : string array;
  m_seq : int array;
  m_coll : int array;
  m_node : int array;
}

let of_string s =
  let len = String.length s in
  let ml = String.length magic in
  if len < ml || String.sub s 0 ml <> magic then corrupt "bad magic" 0;
  let r = { src = s; pos = ml } in
  let at = r.pos in
  let v = get_varint r in
  if v <> version then
    corrupt (Printf.sprintf "unsupported segment version %d" v) at;
  let body_len = get_varint r in
  let sum_at = r.pos in
  let body_at = sum_at + 8 in
  if body_at > len then corrupt "unexpected end (header)" len;
  if body_len < 0 || body_len > len - body_at then
    corrupt
      (Printf.sprintf "truncated: %d body bytes declared, %d present" body_len
         (len - body_at))
      len;
  if body_len < len - body_at then
    corrupt "trailing bytes" (body_at + body_len);
  if not (Int64.equal (String.get_int64_le s sum_at) (fnv s body_at len)) then
    corrupt "body checksum mismatch" sum_at;
  r.pos <- body_at;
  let epoch = get_varint r in
  let at = r.pos in
  let numbered =
    match get_varint r with
    | 0 -> false
    | 1 -> true
    | f -> corrupt (Printf.sprintf "unknown numbering %d" f) at
  in
  let meta =
    Array.to_list
      (Array.init (get_count r) (fun _ ->
           let k = get_string r in
           (k, get_string r)))
  in
  let strings = Array.init (get_count r) (fun _ -> get_string r) in
  let index what n =
    let at = r.pos in
    let i = get_varint r in
    if i < 0 || i >= n then corrupt (what ^ " index out of range") at;
    i
  in
  let str () = strings.(index "string" (Array.length strings)) in
  (* an explicit number, or the element's place in the graph's own
     order *)
  let number i = if numbered then get_varint r else i in
  let last = ref (-1) in
  let seq i =
    if not numbered then i
    else begin
      let at = r.pos in
      let gap = get_varint r in
      if gap < 0 || gap > max_int - 1 - !last then
        corrupt "sequence number out of range" at;
      last := !last + 1 + gap;
      !last
    end
  in
  let nodes_at = r.pos in
  let nn = get_count r in
  let gids = Array.make nn 0 and names = Array.make nn "" in
  for i = 0 to nn - 1 do
    gids.(i) <- number i;
    names.(i) <- str ()
  done;
  let ne = get_count r in
  let e_seq = Array.make ne 0 and e_src = Array.make ne 0 in
  let e_label = Array.make ne "" and e_tgt = Array.make ne (-1) in
  let e_val = Array.make ne Value.Null in
  for i = 0 to ne - 1 do
    e_seq.(i) <- seq i;
    e_src.(i) <- index "node" nn;
    e_label.(i) <- str ();
    let at = r.pos in
    let tag = get_varint r in
    if tag = node_tag then e_tgt.(i) <- index "node" nn
    else e_val.(i) <- get_value r str tag at
  done;
  last := -1;
  let nc = get_count r in
  let colls = Array.make nc "" and parts = ref [] and m = ref 0 in
  for c = 0 to nc - 1 do
    colls.(c) <- str ();
    let k = get_count r in
    let m_seq = Array.make k 0 and m_node = Array.make k 0 in
    for j = 0 to k - 1 do
      m_seq.(j) <- seq !m;
      incr m;
      m_node.(j) <- index "node" nn
    done;
    parts := (m_seq, m_node, Array.make k c) :: !parts
  done;
  if r.pos <> len then corrupt "trailing bytes" r.pos;
  let parts = List.rev !parts in
  let cat f = Array.concat (List.map f parts) in
  {
    size = len;
    epoch;
    meta;
    numbered;
    nodes_at;
    gids;
    names;
    e_seq;
    e_src;
    e_label;
    e_tgt;
    e_val;
    colls;
    m_seq = cat (fun (s, _, _) -> s);
    m_node = cat (fun (_, n, _) -> n);
    m_coll = cat (fun (_, _, c) -> c);
  }

let read ~path () =
  let ic = open_in_bin path in
  of_string
    (Fun.protect
       ~finally:(fun () -> close_in_noerr ic)
       (fun () -> really_input_string ic (in_channel_length ic)))

let size_bytes t = t.size
let epoch t = t.epoch

(* Call [f k i] on element [i] of segment [k], for every element of
   every segment in ascending sequence number ([seq t] numbers a
   segment's elements, which it lists in that order). *)
let merge segs seq f =
  let n = Array.length segs in
  let pos = Array.make n 0 and seqs = Array.map seq segs in
  let len = Array.map Array.length seqs in
  for _ = 1 to Array.fold_left ( + ) 0 len do
    let best = ref (-1) in
    for k = 0 to n - 1 do
      if pos.(k) < len.(k)
         && (!best < 0 || seqs.(k).(pos.(k)) < seqs.(!best).(pos.(!best)))
      then best := k
    done;
    let k = !best in
    f k pos.(k);
    pos.(k) <- pos.(k) + 1
  done

let to_graph ?name segs =
  let segs = Array.of_list segs in
  let name =
    match name with
    | Some n -> n
    | None ->
      Option.value ~default:"segment"
        (if Array.length segs = 0 then None
         else List.assoc_opt "graph" segs.(0).meta)
  in
  let g = Graph.Loader.create ~name () in
  (* every node record in global-id order; a shard's ghost stub for a
     foreign edge target must name the node as its home shard does *)
  let recs =
    Array.concat
      (Array.to_list
         (Array.mapi (fun k t -> Array.mapi (fun i gid -> (gid, k, i)) t.gids)
            segs))
  in
  Array.stable_sort (fun (a, _, _) (b, _, _) -> Int.compare a b) recs;
  let local = Array.map (fun t -> Array.make (Array.length t.gids) None) segs in
  let last = ref None in
  Array.iter
    (fun (gid, k, i) ->
      let t = segs.(k) in
      let nm = t.names.(i) in
      let o =
        match !last with
        | Some (gid', o) when gid' = gid ->
          if Oid.name o <> nm then
            corrupt
              (Printf.sprintf "conflicting names for global id %d" gid)
              t.nodes_at;
          o
        | _ ->
          let o = Oid.fresh nm in
          Graph.Loader.add_node g o;
          last := Some (gid, o);
          o
      in
      local.(k).(i) <- Some o)
    recs;
  let local = Array.map (Array.map Option.get) local in
  merge segs
    (fun t -> t.e_seq)
    (fun k i ->
      let t = segs.(k) and local = local.(k) in
      Graph.Loader.add_edge g local.(t.e_src.(i)) t.e_label.(i)
        (if t.e_tgt.(i) >= 0 then Graph.N local.(t.e_tgt.(i))
         else Graph.V t.e_val.(i)));
  (* a standalone segment lists every collection, an empty one too; a
     shard lists only those it holds members of *)
  Array.iter
    (fun t ->
      if not t.numbered then
        Array.iter (Graph.Loader.declare_collection g) t.colls)
    segs;
  merge segs
    (fun t -> t.m_seq)
    (fun k i ->
      let t = segs.(k) in
      Graph.Loader.add_to_collection g t.colls.(t.m_coll.(i))
        local.(k).(t.m_node.(i)));
  Graph.Loader.finish g
