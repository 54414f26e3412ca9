type t = { id : int; name : string }

(* Wrappers mint oids on several domains at once. *)
let counter = Atomic.make 1

let fresh name = { id = Atomic.fetch_and_add counter 1; name }

let id t = t.id
let name t = t.name
let equal a b = a.id = b.id
let compare a b = Int.compare a.id b.id
let hash t = t.id

let pp ppf t = Fmt.pf ppf "&%s#%d" t.name t.id
let pp_name ppf t = Fmt.string ppf t.name

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
