(* Atomic, not plain mutable ints: the memo hit/miss counters are
   bumped from worker domains during parallel shard scans and the
   freeze counter from whichever domain wins the double-checked
   freeze, while profiling readers sum them from the main domain. *)
type kstats = {
  freezes : int Atomic.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

let kstats_create () =
  { freezes = Atomic.make 0; hits = Atomic.make 0; misses = Atomic.make 0 }

type cache = ..

type t = {
  gen : int;
  uid : int;
  stats : kstats;
  n_nodes : int;
  node_ids : Oid.t array;
  idx_of_node : int Oid.Tbl.t;
  n_values : int;
  values : Value.t array;
  n_labels : int;
  label_names : string array;
  local_of_label : (string, int) Hashtbl.t;
  fwd_off : int array;
  fwd_lab : int array;
  fwd_tgt : int array;
  seg : (int, int * int) Hashtbl.t;
  seg_tgt : int array;
  rev_off : int array;
  rev_src : int array;
  rev_lab : int array;
  label_edges : int array;
  label_srcs : int array;
  cache : (int, cache) Hashtbl.t;
}

let uid_counter = ref 0
let uid_lock = Mutex.create ()

let fresh_uid () =
  Mutex.lock uid_lock;
  let u = !uid_counter in
  incr uid_counter;
  Mutex.unlock uid_lock;
  u

let node_index s o = Oid.Tbl.find_opt s.idx_of_node o
let label_local s l = Hashtbl.find_opt s.local_of_label l

let tcode_is_node s tc = tc < s.n_nodes

let out_degree s i = s.fwd_off.(i + 1) - s.fwd_off.(i)
let in_degree s tc = s.rev_off.(tc + 1) - s.rev_off.(tc)

let seg_range s i lab = Hashtbl.find_opt s.seg ((i * s.n_labels) + lab)
