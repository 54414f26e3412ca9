type fn = { f_name : string; f_hash : int }

let fn f_name = { f_name; f_hash = String.hash f_name }

(* A term's key.  The arguments are the caller's array on a probe and a
   copy once the key enters a table. *)
type key = { k_fn : fn; k_args : Graph.target array }

let arg_equal (a : Graph.target) (b : Graph.target) =
  match (a, b) with
  | N x, N y -> Oid.id x = Oid.id y
  | V x, V y -> Value.equal x y
  | N _, V _ | V _, N _ -> false

let mix h x =
  let h = (h lxor x) * 0x9E3779B1 in
  h lxor (h lsr 29)

let arg_hash : Graph.target -> int = function
  | N o -> 2 * Oid.id o
  | V v -> (2 * Value.hash v) + 1

let rec args_equal a b i =
  i = Array.length a || (arg_equal a.(i) b.(i) && args_equal a b (i + 1))

module Key = Hashtbl.Make (struct
  type t = key

  let equal a b =
    (a.k_fn == b.k_fn
    || (a.k_fn.f_hash = b.k_fn.f_hash
       && String.equal a.k_fn.f_name b.k_fn.f_name))
    && Array.length a.k_args = Array.length b.k_args
    && args_equal a.k_args b.k_args 0

  let hash k =
    let h = ref k.k_fn.f_hash in
    for i = 0 to Array.length k.k_args - 1 do
      h := mix !h (arg_hash k.k_args.(i))
    done;
    !h land max_int
end)

type t = {
  table : Oid.t Key.t;
  inverse : key Oid.Tbl.t;
  mutable reuse : t option;
      (* the previous generation, whose oids terms created again take *)
}

let create ?reuse () =
  { table = Key.create 256; inverse = Oid.Tbl.create 256; reuse }

let forget_reuse t = t.reuse <- None

let arg_name : Graph.target -> string = function
  | N o -> Oid.name o
  | V v -> Value.to_display_string v

let term_name f args =
  let b = Buffer.create 32 in
  Buffer.add_string b f.f_name;
  Buffer.add_char b '(';
  Array.iteri
    (fun i a ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (arg_name a))
    args;
  Buffer.add_char b ')';
  Buffer.contents b

let enter t key o =
  Key.add t.table key o;
  Oid.Tbl.add t.inverse o key

let apply t f args =
  let probe = { k_fn = f; k_args = args } in
  match Key.find t.table probe with
  | o -> (o, false)
  | exception Not_found ->
    let key = { k_fn = f; k_args = Array.copy args } in
    let o =
      match t.reuse with
      | Some prev -> (
        match Key.find prev.table probe with
        | o -> o
        | exception Not_found -> Oid.fresh (term_name f args))
      | None -> Oid.fresh (term_name f args)
    in
    enter t key o;
    (o, true)

let adopt t o =
  if not (Oid.Tbl.mem t.inverse o) then
    match t.reuse with
    | Some prev -> (
      match Oid.Tbl.find_opt prev.inverse o with
      | Some key -> enter t key o
      | None -> invalid_arg ("Skolem.adopt: no term for " ^ Oid.name o))
    | None -> invalid_arg "Skolem.adopt: the scope reuses none"

let size t = Key.length t.table

let term_of t o =
  match Oid.Tbl.find_opt t.inverse o with
  | Some k -> Some (k.k_fn.f_name, Array.to_list k.k_args)
  | None -> None
