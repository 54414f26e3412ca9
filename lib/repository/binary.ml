(** A compact binary storage representation for semistructured data.

    §6 lists "designing efficient storage representations for
    semistructured data" among the open problems — traditional systems
    lay data out using the schema, which the repository does not have.
    This format stores a graph schema-free but compactly: one string
    table (labels, names and string values are interned once), varint
    ids, and a flat edge list; indexes are rebuilt on load, per the
    repository's full-indexing policy (§2.2).

    The encoding is deterministic (no [Marshal]), versioned by magic,
    and typically 3–6× smaller than the DDL text. *)

open Sgraph

exception Corrupt of string * int  (** message, byte offset *)

let magic = "SGBIN1"

(* --- primitive encoders --- *)

(* Treats the int as a 63-bit unsigned word ([lsr] is logical), so any
   bit pattern round-trips. *)
let put_varint buf n =
  let n = ref n in
  let continue = ref true in
  while !continue do
    let b = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

(* Zigzag over the full 63-bit range (wraparound-safe). *)
let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag z = (z lsr 1) lxor (- (z land 1))

type reader = { src : string; mutable pos : int }

let get_byte r =
  if r.pos >= String.length r.src then raise (Corrupt ("unexpected end", r.pos));
  let c = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  c

let get_varint r =
  let rec go shift acc =
    let b = get_byte r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 <> 0 then go (shift + 7) acc else acc
  in
  go 0 0

let get_bytes r n =
  if r.pos + n > String.length r.src then raise (Corrupt ("unexpected end", r.pos));
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

(* --- string table --- *)

type interner = {
  tbl : (string, int) Hashtbl.t;
  mutable rev : string list;
  mutable count : int;
}

let interner () = { tbl = Hashtbl.create 256; rev = []; count = 0 }
let interner_strings it = List.rev it.rev

let intern it s =
  match Hashtbl.find_opt it.tbl s with
  | Some i -> i
  | None ->
    let i = it.count in
    Hashtbl.add it.tbl s i;
    it.rev <- s :: it.rev;
    it.count <- i + 1;
    i

(* --- value encoding --- *)

let put_value buf it v =
  match v with
  | Value.Null -> put_varint buf 0
  | Value.Bool false -> put_varint buf 1
  | Value.Bool true -> put_varint buf 2
  | Value.Int i ->
    put_varint buf 3;
    put_varint buf (zigzag i)
  | Value.Float f ->
    (* the 64 payload bits do not fit OCaml's 63-bit int: store two
       32-bit halves *)
    put_varint buf 4;
    let bits = Int64.bits_of_float f in
    put_varint buf (Int64.to_int (Int64.logand bits 0xFFFFFFFFL));
    put_varint buf (Int64.to_int (Int64.shift_right_logical bits 32))
  | Value.String s ->
    put_varint buf 5;
    put_varint buf (intern it s)
  | Value.Url s ->
    put_varint buf 6;
    put_varint buf (intern it s)
  | Value.File (k, p) ->
    put_varint buf 7;
    put_varint buf (intern it (Value.file_kind_name k));
    put_varint buf (intern it p)

let get_value r strings =
  let str i =
    if i < 0 || i >= Array.length strings then
      raise (Corrupt ("string index", r.pos));
    strings.(i)
  in
  match get_varint r with
  | 0 -> Value.Null
  | 1 -> Value.Bool false
  | 2 -> Value.Bool true
  | 3 -> Value.Int (unzigzag (get_varint r))
  | 4 ->
    let lo = Int64.of_int (get_varint r) in
    let hi = Int64.of_int (get_varint r) in
    Value.Float (Int64.float_of_bits (Int64.logor lo (Int64.shift_left hi 32)))
  | 5 -> Value.String (str (get_varint r))
  | 6 -> Value.Url (str (get_varint r))
  | 7 ->
    let kind = str (get_varint r) in
    let path = str (get_varint r) in
    let k =
      match Value.file_kind_of_name kind with
      | Some k -> k
      | None -> Value.Other_file kind
    in
    Value.File (k, path)
  | t -> raise (Corrupt (Printf.sprintf "unknown value tag %d" t, r.pos))

(* --- graph encoding --- *)

let encode (g : Graph.t) : string =
  let it = interner () in
  let body = Buffer.create 4096 in
  (* graph name *)
  put_varint body (intern it (Graph.name g));
  (* nodes: name per node, indexed by position *)
  let nodes = Graph.nodes g in
  let node_idx = Oid.Tbl.create 256 in
  put_varint body (List.length nodes);
  List.iteri
    (fun i o ->
      Oid.Tbl.replace node_idx o i;
      put_varint body (intern it (Oid.name o)))
    nodes;
  (* edges, in insertion order: replaying them rebuilds every index in
     the graph's order, not only each node's out-edges *)
  put_varint body (Graph.edge_count g);
  Graph.iter_edges_inserted
    (fun src l tgt ->
      put_varint body (Oid.Tbl.find node_idx src);
      put_varint body (intern it l);
      match tgt with
      | Graph.N o ->
        put_varint body 0;
        put_varint body (Oid.Tbl.find node_idx o)
      | Graph.V v ->
        put_varint body 1;
        put_value body it v)
    g;
  (* collections *)
  let colls = Graph.collections g in
  put_varint body (List.length colls);
  List.iter
    (fun c ->
      put_varint body (intern it c);
      let members = Graph.collection g c in
      put_varint body (List.length members);
      List.iter (fun o -> put_varint body (Oid.Tbl.find node_idx o)) members)
    colls;
  (* assemble: magic, string table, body *)
  let out = Buffer.create (Buffer.length body + 1024) in
  Buffer.add_string out magic;
  let strings = List.rev it.rev in
  put_varint out (List.length strings);
  List.iter
    (fun s ->
      put_varint out (String.length s);
      Buffer.add_string out s)
    strings;
  Buffer.add_buffer out body;
  Buffer.contents out

let decode ?(indexed = true) (s : string) : Graph.t =
  if String.length s < String.length magic
     || String.sub s 0 (String.length magic) <> magic
  then raise (Corrupt ("bad magic", 0));
  let r = { src = s; pos = String.length magic } in
  let nstrings = get_varint r in
  let strings =
    Array.init nstrings (fun _ ->
        let len = get_varint r in
        get_bytes r len)
  in
  let str i =
    if i < 0 || i >= nstrings then raise (Corrupt ("string index", r.pos));
    strings.(i)
  in
  let g = Graph.Loader.create ~indexed ~name:(str (get_varint r)) () in
  let nnodes = get_varint r in
  let nodes = Array.init nnodes (fun _ -> Oid.fresh (str (get_varint r))) in
  Array.iter (Graph.Loader.add_node g) nodes;
  let node i =
    if i < 0 || i >= nnodes then raise (Corrupt ("node index", r.pos));
    nodes.(i)
  in
  let nedges = get_varint r in
  for _ = 1 to nedges do
    let src = node (get_varint r) in
    let label = str (get_varint r) in
    match get_varint r with
    | 0 -> Graph.Loader.add_edge g src label (Graph.N (node (get_varint r)))
    | 1 -> Graph.Loader.add_edge g src label (Graph.V (get_value r strings))
    | t -> raise (Corrupt (Printf.sprintf "unknown target tag %d" t, r.pos))
  done;
  let ncolls = get_varint r in
  for _ = 1 to ncolls do
    let cname = str (get_varint r) in
    Graph.Loader.declare_collection g cname;
    let nmembers = get_varint r in
    for _ = 1 to nmembers do
      Graph.Loader.add_to_collection g cname (node (get_varint r))
    done
  done;
  if r.pos <> String.length s then raise (Corrupt ("trailing bytes", r.pos));
  Graph.Loader.finish g

(* --- file helpers --- *)

let save ~path g =
  let oc = open_out_bin path in
  output_string oc (encode g);
  close_out oc

let load ?indexed ~path () =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  decode ?indexed s
