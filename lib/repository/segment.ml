(* Mmap-able binary shard segments.

   The layout is a node-major int-coded form of the graph written out
   as fixed-width little-endian int64 sections: a header of counts, then
   string table, node table (global id + name), value heap, forward and
   reverse adjacency, collections, per-element sequence numbers and a
   small metadata blob.  Every section's offset is a pure function of
   the header counts, so a mapped reader indexes sections in place; a
   body checksum (FNV-1a 64) catches bit flips, and every access is
   bounds-checked so corruption surfaces as {!Binary.Corrupt} with the
   absolute byte offset, never as a crash. *)

open Sgraph

let magic = "SGSEG001"
let header_ints = 16
let header_len = String.length magic + (8 * header_ints)

(* Counts above this are rejected before any geometry arithmetic, so a
   corrupted header cannot overflow offset computations. *)
let max_count = 1 lsl 42

let corrupt msg pos = raise (Binary.Corrupt (msg, pos))
let pad8 n = (n + 7) land lnot 7

let fnv_basis = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv_string s =
  let h = ref fnv_basis in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

(* --- section geometry --- *)

type geometry = {
  n_nodes : int;
  n_values : int;
  n_labels : int;
  n_edges : int;
  n_colls : int;
  n_members : int;
  n_strings : int;
  strblob_len : int;
  valheap_len : int;
  meta_len : int;
  o_str_off : int;
  o_strblob : int;
  o_labels : int;
  o_node_gid : int;
  o_node_name : int;
  o_val_off : int;
  o_valheap : int;
  o_fwd_off : int;
  o_fwd_lab : int;
  o_fwd_tgt : int;
  o_edge_seq : int;
  o_rev_off : int;
  o_rev_src : int;
  o_rev_lab : int;
  o_coll_sid : int;
  o_coll_off : int;
  o_members : int;
  o_member_seq : int;
  o_meta : int;
  total : int;
}

let geometry ~n_nodes ~n_values ~n_labels ~n_edges ~n_colls ~n_members
    ~n_strings ~strblob_len ~valheap_len ~meta_len =
  let pos = ref header_len in
  let sec bytes =
    let o = !pos in
    pos := o + bytes;
    o
  in
  let ints n = sec (8 * n) in
  let o_str_off = ints (n_strings + 1) in
  let o_strblob = sec (pad8 strblob_len) in
  let o_labels = ints n_labels in
  let o_node_gid = ints n_nodes in
  let o_node_name = ints n_nodes in
  let o_val_off = ints (n_values + 1) in
  let o_valheap = sec (pad8 valheap_len) in
  let o_fwd_off = ints (n_nodes + 1) in
  let o_fwd_lab = ints n_edges in
  let o_fwd_tgt = ints n_edges in
  let o_edge_seq = ints n_edges in
  let o_rev_off = ints (n_nodes + n_values + 1) in
  let o_rev_src = ints n_edges in
  let o_rev_lab = ints n_edges in
  let o_coll_sid = ints n_colls in
  let o_coll_off = ints (n_colls + 1) in
  let o_members = ints n_members in
  let o_member_seq = ints n_members in
  let o_meta = sec (pad8 meta_len) in
  {
    n_nodes;
    n_values;
    n_labels;
    n_edges;
    n_colls;
    n_members;
    n_strings;
    strblob_len;
    valheap_len;
    meta_len;
    o_str_off;
    o_strblob;
    o_labels;
    o_node_gid;
    o_node_name;
    o_val_off;
    o_valheap;
    o_fwd_off;
    o_fwd_lab;
    o_fwd_tgt;
    o_edge_seq;
    o_rev_off;
    o_rev_src;
    o_rev_lab;
    o_coll_sid;
    o_coll_off;
    o_members;
    o_member_seq;
    o_meta;
    total = !pos;
  }

(* --- writing --- *)

(* The node-major int-coded layout a segment stores, read off the live
   graph: nodes renumbered [0..n_nodes-1] in [Graph.nodes] order, atomic
   values coded [n_nodes..] in first-appearance order over the forward
   edges, labels by the graph's own ids; forward adjacency in each
   node's edge insertion order, reverse adjacency over every code,
   node-major. *)
type layout = {
  l_idx : int array;  (* slot -> node index, -1 for a removed node *)
  l_nodes : Oid.t array;
  l_values : Value.t array;
  l_labels : string array;
  l_fwd_off : int array;
  l_fwd_lab : int array;
  l_fwd_tgt : int array;
  l_rev_off : int array;
  l_rev_src : int array;
  l_rev_lab : int array;
}

let layout g =
  let module S = Graph.Slots in
  let ns = S.count g in
  let idx = Array.make ns (-1) in
  let nodes = ref [] and nn = ref 0 in
  for s = 0 to ns - 1 do
    if S.live g s then begin
      idx.(s) <- !nn;
      incr nn;
      nodes := S.oid g s :: !nodes
    end
  done;
  let nn = !nn in
  let ne = Graph.edge_count g in
  let fwd_off = Array.make (nn + 1) 0 in
  let fwd_lab = Array.make ne 0 and fwd_tgt = Array.make ne 0 in
  let vcode = Array.make (S.value_count g) (-1) in
  let vals_rev = ref [] and nv = ref 0 in
  let e = ref 0 in
  for s = 0 to ns - 1 do
    if S.live g s then begin
      fwd_off.(idx.(s)) <- !e;
      let ids = S.out g s in
      for k = 0 to S.out_len g s - 1 do
        let lab = S.label g ids.(k) in
        if lab >= 0 then begin
          let tk = S.target g ids.(k) in
          fwd_lab.(!e) <- lab;
          fwd_tgt.(!e) <-
            (if S.is_node tk then idx.(S.index tk)
             else begin
               let vi = S.index tk in
               if vcode.(vi) < 0 then begin
                 vcode.(vi) <- nn + !nv;
                 incr nv;
                 vals_rev := S.value g vi :: !vals_rev
               end;
               vcode.(vi)
             end);
          incr e
        end
      done
    end
  done;
  fwd_off.(nn) <- !e;
  let ntc = nn + !nv in
  let rev_off = Array.make (ntc + 1) 0 in
  Array.iter (fun t -> rev_off.(t + 1) <- rev_off.(t + 1) + 1) fwd_tgt;
  for t = 1 to ntc do
    rev_off.(t) <- rev_off.(t) + rev_off.(t - 1)
  done;
  let rev_src = Array.make ne 0 and rev_lab = Array.make ne 0 in
  let rcur = Array.sub rev_off 0 ntc in
  for i = 0 to nn - 1 do
    for e = fwd_off.(i) to fwd_off.(i + 1) - 1 do
      let t = fwd_tgt.(e) in
      rev_src.(rcur.(t)) <- i;
      rev_lab.(rcur.(t)) <- fwd_lab.(e);
      rcur.(t) <- rcur.(t) + 1
    done
  done;
  {
    l_idx = idx;
    l_nodes = Array.of_list (List.rev !nodes);
    l_values = Array.of_list (List.rev !vals_rev);
    l_labels = Array.init (S.label_count g) (S.label_name g);
    l_fwd_off = fwd_off;
    l_fwd_lab = fwd_lab;
    l_fwd_tgt = fwd_tgt;
    l_rev_off = rev_off;
    l_rev_src = rev_src;
    l_rev_lab = rev_lab;
  }

let node_index lay g o ~err =
  let s = Graph.Slots.find g o in
  if s < 0 then invalid_arg err else lay.l_idx.(s)

let encode_layout lay ?(epoch = 0) ?(meta = []) ~gid ~edge_seq ~coll_seq
    (g : Graph.t) =
  let n_nodes = Array.length lay.l_nodes in
  let n_values = Array.length lay.l_values in
  let n_labels = Array.length lay.l_labels in
  let n_edges = Array.length lay.l_fwd_lab in
  let it = Binary.interner () in
  let label_sid = Array.map (Binary.intern it) lay.l_labels in
  let node_name_sid =
    Array.map (fun o -> Binary.intern it (Oid.name o)) lay.l_nodes
  in
  let node_gid = Array.map gid lay.l_nodes in
  let vbuf = Buffer.create 256 in
  let val_off = Array.make (n_values + 1) 0 in
  Array.iteri
    (fun i v ->
      val_off.(i) <- Buffer.length vbuf;
      Binary.put_value vbuf it v)
    lay.l_values;
  val_off.(n_values) <- Buffer.length vbuf;
  let seqs = Array.make n_edges 0 in
  for i = 0 to n_nodes - 1 do
    let base = lay.l_fwd_off.(i) in
    let o = lay.l_nodes.(i) in
    for k = 0 to lay.l_fwd_off.(i + 1) - base - 1 do
      seqs.(base + k) <- edge_seq o k
    done
  done;
  let colls = Graph.collections g in
  let n_colls = List.length colls in
  let coll_sid = Array.of_list (List.map (Binary.intern it) colls) in
  let member_lists =
    List.map (fun c -> (c, Array.of_list (Graph.collection g c))) colls
  in
  let coll_off = Array.make (n_colls + 1) 0 in
  List.iteri
    (fun ci (_, ms) -> coll_off.(ci + 1) <- coll_off.(ci) + Array.length ms)
    member_lists;
  let n_members = coll_off.(n_colls) in
  let mem_idx = Array.make n_members 0 in
  let mem_seq = Array.make n_members 0 in
  List.iteri
    (fun ci (c, ms) ->
      Array.iteri
        (fun k o ->
          let p = coll_off.(ci) + k in
          mem_idx.(p) <-
            node_index lay g o ~err:"Segment.encode: member is not a node";
          mem_seq.(p) <- coll_seq c k)
        ms)
    member_lists;
  let meta = ("graph", Graph.name g) :: meta in
  let mbuf = Buffer.create 64 in
  List.iter
    (fun (k, v) ->
      if String.contains k '=' || String.contains k '\n'
         || String.contains v '\n'
      then invalid_arg "Segment.encode: malformed meta key/value";
      Buffer.add_string mbuf k;
      Buffer.add_char mbuf '=';
      Buffer.add_string mbuf v;
      Buffer.add_char mbuf '\n')
    meta;
  let strings = Binary.interner_strings it in
  let n_strings = List.length strings in
  let sbuf = Buffer.create 1024 in
  let str_off = Array.make (n_strings + 1) 0 in
  List.iteri
    (fun i s ->
      str_off.(i) <- Buffer.length sbuf;
      Buffer.add_string sbuf s)
    strings;
  str_off.(n_strings) <- Buffer.length sbuf;
  let geo =
    geometry ~n_nodes ~n_values ~n_labels ~n_edges ~n_colls ~n_members
      ~n_strings ~strblob_len:(Buffer.length sbuf)
      ~valheap_len:(Buffer.length vbuf) ~meta_len:(Buffer.length mbuf)
  in
  let body = Buffer.create (geo.total - header_len) in
  let add_int v = Buffer.add_int64_le body (Int64.of_int v) in
  let add_ints a = Array.iter add_int a in
  let add_blob b =
    let len = Buffer.length b in
    Buffer.add_buffer body b;
    for _ = len + 1 to pad8 len do
      Buffer.add_char body '\000'
    done
  in
  add_ints str_off;
  add_blob sbuf;
  add_ints label_sid;
  add_ints node_gid;
  add_ints node_name_sid;
  add_ints val_off;
  add_blob vbuf;
  add_ints lay.l_fwd_off;
  add_ints lay.l_fwd_lab;
  add_ints lay.l_fwd_tgt;
  add_ints seqs;
  add_ints lay.l_rev_off;
  add_ints lay.l_rev_src;
  add_ints lay.l_rev_lab;
  add_ints coll_sid;
  add_ints coll_off;
  add_ints mem_idx;
  add_ints mem_seq;
  add_blob mbuf;
  let body = Buffer.contents body in
  assert (header_len + String.length body = geo.total);
  let out = Buffer.create geo.total in
  Buffer.add_string out magic;
  let hi v = Buffer.add_int64_le out (Int64.of_int v) in
  hi 1 (* version *);
  hi (Graph.generation g);
  hi epoch;
  hi n_nodes;
  hi n_values;
  hi n_labels;
  hi n_edges;
  hi n_colls;
  hi n_members;
  hi n_strings;
  hi geo.strblob_len;
  hi geo.valheap_len;
  hi geo.meta_len;
  Buffer.add_int64_le out (fnv_string body);
  hi geo.total;
  hi 0 (* reserved *);
  Buffer.add_string out body;
  Buffer.contents out

let encode ?epoch ?meta ~gid ~edge_seq ~coll_seq g =
  encode_layout (layout g) ?epoch ?meta ~gid ~edge_seq ~coll_seq g

let write_file ~path s =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc s;
  close_out oc;
  Sys.rename tmp path;
  String.length s

let write ~path ?epoch ?meta ~gid ~edge_seq ~coll_seq g =
  write_file ~path (encode ?epoch ?meta ~gid ~edge_seq ~coll_seq g)

let edge_log_seq g =
  let module S = Graph.Slots in
  let live = Array.make (S.count g) [||] in
  for s = 0 to S.count g - 1 do
    if S.live g s then begin
      let bucket = S.out g s in
      let ids = ref [] in
      for i = S.out_len g s - 1 downto 0 do
        if S.label g bucket.(i) >= 0 then ids := bucket.(i) :: !ids
      done;
      live.(s) <- Array.of_list !ids
    end
  done;
  fun o k -> live.(S.find g o).(k)

let write_graph ~path ?epoch ?meta g =
  let lay = layout g in
  let idx o = node_index lay g o ~err:"Segment.write_graph: unknown node" in
  let coll_base = Hashtbl.create 16 in
  let base = ref 0 in
  List.iter
    (fun c ->
      Hashtbl.replace coll_base c !base;
      base := !base + Graph.collection_size g c)
    (Graph.collections g);
  write_file ~path
    (encode_layout lay ?epoch ?meta ~gid:idx
       ~edge_seq:(edge_log_seq g)
       ~coll_seq:(fun c k -> Hashtbl.find coll_base c + k)
       g)

(* --- reading --- *)

type bsrc =
  | S of string
  | M of (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let blen = function S s -> String.length s | M a -> Bigarray.Array1.dim a

let get_u8 src i =
  match src with
  | S s -> Char.code (String.unsafe_get s i)
  | M a -> Char.code (Bigarray.Array1.unsafe_get a i)

let get_raw src pos =
  if pos < 0 || pos + 8 > blen src then
    corrupt "unexpected end (int64 field)" (max 0 (min pos (blen src)));
  match src with
  | S s -> String.get_int64_le s pos
  | M a ->
    let b = Bytes.create 8 in
    for i = 0 to 7 do
      Bytes.unsafe_set b i (Bigarray.Array1.unsafe_get a (pos + i))
    done;
    Bytes.get_int64_le b 0

let get_int src pos =
  let v = get_raw src pos in
  if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
    corrupt "int64 field out of range" pos;
  Int64.to_int v

let get_sub src pos len =
  if len < 0 || pos < 0 || pos + len > blen src then
    corrupt "unexpected end (byte range)" (max 0 (min pos (blen src)));
  match src with
  | S s -> String.sub s pos len
  | M a -> String.init len (fun i -> Bigarray.Array1.unsafe_get a (pos + i))

type t = {
  src : bsrc;
  geo : geometry;
  v_version : int;
  v_generation : int;
  v_epoch : int;
  mutable strings_cache : string array option;
}

type etarget = T_node of int | T_value of Value.t

let fnv_src src from upto =
  let h = ref fnv_basis in
  for i = from to upto - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (get_u8 src i))) fnv_prime
  done;
  !h

let open_view ~verify src =
  let len = blen src in
  if len < header_len then corrupt "file shorter than header" len;
  if get_sub src 0 (String.length magic) <> magic then corrupt "bad magic" 0;
  let fpos i = String.length magic + (8 * i) in
  let field i = get_int src (fpos i) in
  let version = field 0 in
  if version <> 1 then
    corrupt (Printf.sprintf "unsupported segment version %d" version) (fpos 0);
  let count i what =
    let v = field i in
    if v > max_count then
      corrupt (what ^ " count implausibly large") (fpos i);
    v
  in
  let geo =
    geometry
      ~n_nodes:(count 3 "node")
      ~n_values:(count 4 "value")
      ~n_labels:(count 5 "label")
      ~n_edges:(count 6 "edge")
      ~n_colls:(count 7 "collection")
      ~n_members:(count 8 "member")
      ~n_strings:(count 9 "string")
      ~strblob_len:(count 10 "string blob")
      ~valheap_len:(count 11 "value heap")
      ~meta_len:(count 12 "meta blob")
  in
  let total = field 14 in
  if total <> geo.total then
    corrupt "declared length does not match section geometry" (fpos 14);
  if total <> len then corrupt "file length mismatch" (min total len);
  if verify then begin
    let sum = fnv_src src header_len len in
    if Int64.compare sum (get_raw src (fpos 13)) <> 0 then
      corrupt "body checksum mismatch" (fpos 13)
  end;
  {
    src;
    geo;
    v_version = version;
    v_generation = field 1;
    v_epoch = field 2;
    strings_cache = None;
  }

let of_string ?(verify = true) s = open_view ~verify (S s)

let read ?(verify = true) ~path () =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_string ~verify s

let map ?(verify = true) ~path () =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let size = (Unix.fstat fd).Unix.st_size in
      if size < header_len then corrupt "file shorter than header" size;
      let ga = Unix.map_file fd Bigarray.char Bigarray.c_layout false [| -1 |] in
      open_view ~verify (M (Bigarray.array1_of_genarray ga)))

(* --- accessors --- *)

let size_bytes t = blen t.src
let version t = t.v_version
let generation t = t.v_generation
let epoch t = t.v_epoch
let node_count t = t.geo.n_nodes
let value_count t = t.geo.n_values
let edge_count t = t.geo.n_edges
let label_count t = t.geo.n_labels
let member_count t = t.geo.n_members

let arr t off i = get_int t.src (off + (8 * i))

let string_at t ~at i =
  if i < 0 || i >= t.geo.n_strings then corrupt "string index out of range" at;
  let s0 = arr t t.geo.o_str_off i in
  let s1 = arr t t.geo.o_str_off (i + 1) in
  if s0 > s1 || s1 > t.geo.strblob_len then
    corrupt "string table offsets out of range" (t.geo.o_str_off + (8 * i));
  get_sub t.src (t.geo.o_strblob + s0) (s1 - s0)

let strings t =
  match t.strings_cache with
  | Some a -> a
  | None ->
    let a =
      Array.init t.geo.n_strings (fun i ->
          string_at t ~at:(t.geo.o_str_off + (8 * i)) i)
    in
    t.strings_cache <- Some a;
    a

let check_index what n i =
  if i < 0 || i >= n then invalid_arg ("Segment." ^ what ^ ": index out of range")

let label_name t i =
  check_index "label_name" t.geo.n_labels i;
  string_at t ~at:(t.geo.o_labels + (8 * i)) (arr t t.geo.o_labels i)

let node_gid t i =
  check_index "node_gid" t.geo.n_nodes i;
  arr t t.geo.o_node_gid i

let node_name t i =
  check_index "node_name" t.geo.n_nodes i;
  string_at t ~at:(t.geo.o_node_name + (8 * i)) (arr t t.geo.o_node_name i)

let value t i =
  check_index "value" t.geo.n_values i;
  let s0 = arr t t.geo.o_val_off i in
  let s1 = arr t t.geo.o_val_off (i + 1) in
  if s0 > s1 || s1 > t.geo.valheap_len then
    corrupt "value heap offsets out of range" (t.geo.o_val_off + (8 * i));
  let abs = t.geo.o_valheap + s0 in
  let slice = get_sub t.src abs (s1 - s0) in
  let r = { Binary.src = slice; pos = 0 } in
  let v =
    try Binary.get_value r (strings t)
    with Binary.Corrupt (msg, p) -> corrupt msg (abs + p)
  in
  if r.Binary.pos <> String.length slice then
    corrupt "trailing bytes in value" (abs + r.Binary.pos);
  v

let collections t =
  List.init t.geo.n_colls (fun i ->
      string_at t ~at:(t.geo.o_coll_sid + (8 * i)) (arr t t.geo.o_coll_sid i))

let meta t =
  let blob = get_sub t.src t.geo.o_meta t.geo.meta_len in
  let lines = String.split_on_char '\n' blob in
  List.filter_map
    (fun line ->
      if line = "" then None
      else
        match String.index_opt line '=' with
        | Some i ->
          Some
            ( String.sub line 0 i,
              String.sub line (i + 1) (String.length line - i - 1) )
        | None -> corrupt "malformed meta line" t.geo.o_meta)
    lines

let iter_edges t f =
  let g = t.geo in
  if g.n_nodes > 0 && arr t g.o_fwd_off 0 <> 0 then
    corrupt "forward offsets must start at 0" g.o_fwd_off;
  let labels = Array.init g.n_labels (label_name t) in
  for i = 0 to g.n_nodes - 1 do
    let e0 = arr t g.o_fwd_off i in
    let e1 = arr t g.o_fwd_off (i + 1) in
    if e0 > e1 || e1 > g.n_edges then
      corrupt "forward offsets not monotonic" (g.o_fwd_off + (8 * i));
    for e = e0 to e1 - 1 do
      let lab = arr t g.o_fwd_lab e in
      if lab < 0 || lab >= g.n_labels then
        corrupt "label index out of range" (g.o_fwd_lab + (8 * e));
      let tc = arr t g.o_fwd_tgt e in
      let tgt =
        if tc < g.n_nodes then T_node tc
        else if tc < g.n_nodes + g.n_values then T_value (value t (tc - g.n_nodes))
        else corrupt "target tcode out of range" (g.o_fwd_tgt + (8 * e))
      in
      f (arr t g.o_edge_seq e) i labels.(lab) tgt
    done
  done;
  if g.n_nodes > 0 && arr t g.o_fwd_off g.n_nodes <> g.n_edges then
    corrupt "forward offsets do not cover all edges"
      (g.o_fwd_off + (8 * g.n_nodes))

let iter_members t f =
  let g = t.geo in
  if g.n_colls > 0 && arr t g.o_coll_off 0 <> 0 then
    corrupt "collection offsets must start at 0" g.o_coll_off;
  for ci = 0 to g.n_colls - 1 do
    let cname =
      string_at t ~at:(g.o_coll_sid + (8 * ci)) (arr t g.o_coll_sid ci)
    in
    let m0 = arr t g.o_coll_off ci in
    let m1 = arr t g.o_coll_off (ci + 1) in
    if m0 > m1 || m1 > g.n_members then
      corrupt "collection offsets not monotonic" (g.o_coll_off + (8 * ci));
    for m = m0 to m1 - 1 do
      let idx = arr t g.o_members m in
      if idx < 0 || idx >= g.n_nodes then
        corrupt "member index out of range" (g.o_members + (8 * m));
      f (arr t g.o_member_seq m) cname idx
    done
  done;
  if g.n_colls > 0 && arr t g.o_coll_off g.n_colls <> g.n_members then
    corrupt "collection offsets do not cover all members"
      (g.o_coll_off + (8 * g.n_colls))

let to_graph ?(indexed = true) ?name t =
  let name =
    match name with
    | Some n -> n
    | None -> (
      match List.assoc_opt "graph" (meta t) with
      | Some n -> n
      | None -> "segment")
  in
  let g = Graph.Loader.create ~indexed ~name () in
  let nodes = Array.init t.geo.n_nodes (fun i -> Oid.fresh (node_name t i)) in
  Array.iter (Graph.Loader.add_node g) nodes;
  let by_seq l =
    List.sort (fun (a, _) (b, _) -> Int.compare a b) (List.rev l)
  in
  let edges = ref [] and members = ref [] in
  iter_edges t (fun seq i l tgt -> edges := (seq, (i, l, tgt)) :: !edges);
  List.iter
    (fun (_, (i, l, tgt)) ->
      Graph.Loader.add_edge g nodes.(i) l
        (match tgt with
         | T_node j -> Graph.N nodes.(j)
         | T_value v -> Graph.V v))
    (by_seq !edges);
  List.iter (Graph.Loader.declare_collection g) (collections t);
  iter_members t (fun seq c i -> members := (seq, (c, i)) :: !members);
  List.iter
    (fun (_, (c, i)) -> Graph.Loader.add_to_collection g c nodes.(i))
    (by_seq !members);
  Graph.Loader.finish g

let validate t =
  ignore (strings t);
  for i = 0 to t.geo.n_values - 1 do
    ignore (value t i)
  done;
  for i = 0 to t.geo.n_nodes - 1 do
    ignore (node_gid t i);
    ignore (node_name t i)
  done;
  iter_edges t (fun _ _ _ _ -> ());
  (* reverse adjacency: monotonic offsets over all tcodes, sources and
     labels in range *)
  let g = t.geo in
  let nt = g.n_nodes + g.n_values in
  if arr t g.o_rev_off 0 <> 0 then
    corrupt "reverse offsets must start at 0" g.o_rev_off;
  for i = 0 to nt - 1 do
    let e0 = arr t g.o_rev_off i in
    let e1 = arr t g.o_rev_off (i + 1) in
    if e0 > e1 || e1 > g.n_edges then
      corrupt "reverse offsets not monotonic" (g.o_rev_off + (8 * i))
  done;
  if arr t g.o_rev_off nt <> g.n_edges then
    corrupt "reverse offsets do not cover all edges" (g.o_rev_off + (8 * nt));
  for e = 0 to g.n_edges - 1 do
    let s = arr t g.o_rev_src e in
    if s < 0 || s >= g.n_nodes then
      corrupt "reverse source out of range" (g.o_rev_src + (8 * e));
    let l = arr t g.o_rev_lab e in
    if l < 0 || l >= g.n_labels then
      corrupt "reverse label out of range" (g.o_rev_lab + (8 * e))
  done;
  iter_members t (fun _ _ _ -> ());
  ignore (meta t)
