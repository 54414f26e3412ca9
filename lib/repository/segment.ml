(* Graph segments: the repository's one on-disk graph format.

   A segment is a short header (magic, version, body length, FNV-1a 64
   checksum of the body) and a body in a compact varint form: epoch,
   numbering flag (always 0), meta, one string table (labels, names and
   string values interned once), then nodes, edges in insertion order
   and collections with their members.  Decoding checks every byte: any
   malformed input raises {!Corrupt} with the absolute byte offset at
   which the decoder gave up. *)

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

let encode ?(epoch = 0) g =
  let module S = Graph.Slots in
  let it = interner () in
  let body = Buffer.create 4096 in
  let put = put_varint body in
  let slots = S.count g in
  let idx = Array.make slots (-1) and n = ref 0 in
  for s = 0 to slots - 1 do
    if S.live g s then begin
      idx.(s) <- !n;
      incr n
    end
  done;
  let local o = idx.(S.find g o) in
  put !n;
  for s = 0 to slots - 1 do
    if S.live g s then put (intern it (Oid.name (S.oid g s)))
  done;
  put (Graph.edge_count g);
  Graph.iter_edges_inserted
    (fun src l tgt ->
      put (local src);
      put (intern it l);
      match tgt with
      | Graph.N o ->
        put node_tag;
        put (local o)
      | Graph.V v -> put_value body it v)
    g;
  let colls = Graph.collections g in
  put (List.length colls);
  List.iter
    (fun c ->
      put (intern it c);
      let members = Graph.collection g c in
      put (List.length members);
      List.iter (fun o -> put (local o)) members)
    colls;
  let head = Buffer.create 1024 in
  put_varint head epoch;
  (* the numbering flag: 0, a graph in its own order *)
  put_varint head 0;
  let meta = [ ("graph", Graph.name g) ] in
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

let write ~path ?epoch g =
  let s = encode ?epoch g in
  write_file ~path s;
  String.length s

(* --- reading --- *)

type t = {
  size : int;
  epoch : int;
  meta : (string * string) list;
  names : string array;
  e_src : int array;
  e_label : string array;
  e_tgt : int array;  (* a node index, or -1 for a value *)
  e_val : Value.t array;
  colls : string array;
  members : int array array;  (* per collection, node indexes *)
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
  (* 0 is the one numbering: a graph in its own order; 1, the global
     numbering of a sharded repository's partitions, is refused here *)
  (match get_varint r with
   | 0 -> ()
   | f -> corrupt (Printf.sprintf "unsupported numbering %d" f) at);
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
  let names = Array.init (get_count r) (fun _ -> str ()) in
  let nn = Array.length names in
  let ne = get_count r in
  let e_src = Array.make ne 0 and e_label = Array.make ne "" in
  let e_tgt = Array.make ne (-1) and e_val = Array.make ne Value.Null in
  for i = 0 to ne - 1 do
    e_src.(i) <- index "node" nn;
    e_label.(i) <- str ();
    let at = r.pos in
    let tag = get_varint r in
    if tag = node_tag then e_tgt.(i) <- index "node" nn
    else e_val.(i) <- get_value r str tag at
  done;
  let nc = get_count r in
  let colls = Array.make nc "" and members = Array.make nc [||] in
  for c = 0 to nc - 1 do
    colls.(c) <- str ();
    members.(c) <- Array.init (get_count r) (fun _ -> index "node" nn)
  done;
  if r.pos <> len then corrupt "trailing bytes" r.pos;
  { size = len; epoch; meta; names; e_src; e_label; e_tgt; e_val; colls; members }

let read ~path () =
  let ic = open_in_bin path in
  of_string
    (Fun.protect
       ~finally:(fun () -> close_in_noerr ic)
       (fun () -> really_input_string ic (in_channel_length ic)))

let size_bytes t = t.size
let epoch t = t.epoch

let to_graph ?name t =
  let name =
    match name with
    | Some n -> n
    | None -> Option.value ~default:"segment" (List.assoc_opt "graph" t.meta)
  in
  let g = Graph.Loader.create ~name () in
  let nodes =
    Array.map
      (fun nm ->
        let o = Oid.fresh nm in
        Graph.Loader.add_node g o;
        o)
      t.names
  in
  Array.iteri
    (fun i src ->
      Graph.Loader.add_edge g nodes.(src) t.e_label.(i)
        (if t.e_tgt.(i) >= 0 then Graph.N nodes.(t.e_tgt.(i))
         else Graph.V t.e_val.(i)))
    t.e_src;
  (* every collection in order, an empty one too, then the members *)
  Array.iter (Graph.Loader.declare_collection g) t.colls;
  Array.iteri
    (fun c coll ->
      Array.iter (fun i -> Graph.Loader.add_to_collection g coll nodes.(i))
        t.members.(c))
    t.colls;
  Graph.Loader.finish g
