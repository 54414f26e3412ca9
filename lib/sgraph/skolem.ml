type arg =
  | A_oid of Oid.t
  | A_val of Value.t

(* Arguments are keyed structurally; oids by their numeric id. *)
type key_arg = K_oid of int | K_val of Value.t

let key_of_arg = function
  | A_oid o -> K_oid (Oid.id o)
  | A_val v -> K_val v

type t = {
  table : (string * key_arg list, Oid.t) Hashtbl.t;
  by_fn : (string, Oid.t list ref) Hashtbl.t;
  inverse : (string * arg list) Oid.Tbl.t;
  mutable fns_rev : string list;
  mutable reuse : t option;
      (* the previous generation, whose oids terms created again take *)
}

let create ?reuse () =
  {
    table = Hashtbl.create 256;
    by_fn = Hashtbl.create 16;
    inverse = Oid.Tbl.create 256;
    fns_rev = [];
    reuse;
  }

let forget_reuse t = t.reuse <- None

let arg_name = function
  | A_oid o -> Oid.name o
  | A_val v -> Value.to_display_string v

let term_name f args = f ^ "(" ^ String.concat "," (List.map arg_name args) ^ ")"

let enter t key f args o =
  Hashtbl.add t.table key o;
  Oid.Tbl.add t.inverse o (f, args);
  match Hashtbl.find_opt t.by_fn f with
  | Some r -> r := o :: !r
  | None ->
    Hashtbl.add t.by_fn f (ref [ o ]);
    t.fns_rev <- f :: t.fns_rev

let apply t f args =
  let key = (f, List.map key_of_arg args) in
  match Hashtbl.find_opt t.table key with
  | Some o -> (o, false)
  | None ->
    let o =
      match t.reuse with
      | Some prev -> (
        match Hashtbl.find_opt prev.table key with
        | Some o -> o
        | None -> Oid.fresh (term_name f args))
      | None -> Oid.fresh (term_name f args)
    in
    enter t key f args o;
    (o, true)

let adopt t o =
  if not (Oid.Tbl.mem t.inverse o) then
    match t.reuse with
    | Some prev -> (
      match Oid.Tbl.find_opt prev.inverse o with
      | Some (f, args) -> enter t (f, List.map key_of_arg args) f args o
      | None -> invalid_arg ("Skolem.adopt: no term for " ^ Oid.name o))
    | None -> invalid_arg "Skolem.adopt: the scope reuses none"

let find t f args = Hashtbl.find_opt t.table (f, List.map key_of_arg args)
let functions t = List.rev t.fns_rev

let created t f =
  match Hashtbl.find_opt t.by_fn f with Some r -> List.rev !r | None -> []

let size t = Hashtbl.length t.table
let term_of t o = Oid.Tbl.find_opt t.inverse o
