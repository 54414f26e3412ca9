(* The paper's expressive-power claims, executed.

   "Surprisingly, StruQL can express transitive closure of an
   arbitrary relation as the composition of two queries" — a single
   where–link query cannot (it follows from [BUN 96]), but encoding the
   relation as graph edges with the first query and closing with a
   regular path expression in the second can. *)

open Sgraph
open Struql

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* an arbitrary binary relation encoded as tuple objects *)
let relation_graph (pairs : (int * int) list) =
  let g = Graph.create ~name:"REL" () in
  List.iteri
    (fun i (a, b) ->
      let t' = Graph.new_node g (Printf.sprintf "t%d" i) in
      Graph.add_to_collection g "R" t';
      Graph.add_edge g t' "fst" (Graph.V (Value.Int a));
      Graph.add_edge g t' "snd" (Graph.V (Value.Int b)))
    pairs;
  g

(* query 1: reify the relation as edges between element nodes *)
let q1 =
  {|WHERE R(t), t -> "fst" -> a, t -> "snd" -> b
    CREATE N(a), N(b)
    LINK N(a) -> "e" -> N(b),
         N(a) -> "val" -> a, N(b) -> "val" -> b
    COLLECT Nodes(N(a)), Nodes(N(b))
    OUTPUT G1|}

(* query 2: transitive closure via a regular path expression, reified
   back into tuple objects *)
let q2 =
  {|WHERE Nodes(x), x -> "e"+ -> y, x -> "val" -> a, y -> "val" -> b
    CREATE Pair(a, b)
    LINK Pair(a, b) -> "fst" -> a, Pair(a, b) -> "snd" -> b
    COLLECT TC(Pair(a, b))
    OUTPUT G2|}

(* independent reference: Warshall over the pair list *)
let closure_ref pairs =
  let module S = Set.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let s = ref (S.of_list pairs) in
  let changed = ref true in
  while !changed do
    changed := false;
    S.iter
      (fun (a, b) ->
        S.iter
          (fun (b', c) ->
            if b = b' && not (S.mem (a, c) !s) then begin
              s := S.add (a, c) !s;
              changed := true
            end)
          !s)
      !s
  done;
  S.elements !s

let struql_closure pairs =
  let g = relation_graph pairs in
  let g1 = Exec.run g (Parser.parse q1) in
  let g2 = Exec.run g1 (Parser.parse q2) in
  List.filter_map
    (fun o ->
      match Graph.attr_value g2 o "fst", Graph.attr_value g2 o "snd" with
      | Some (Value.Int a), Some (Value.Int b) -> Some (a, b)
      | _ -> None)
    (Graph.collection g2 "TC")
  |> List.sort_uniq compare

let cases =
  [
    ("chain", [ (1, 2); (2, 3); (3, 4) ]);
    ("cycle", [ (1, 2); (2, 3); (3, 1) ]);
    ("diamond", [ (1, 2); (1, 3); (2, 4); (3, 4) ]);
    ("self-loop", [ (1, 1); (1, 2) ]);
    ("disconnected", [ (1, 2); (5, 6) ]);
    ("dense", [ (1, 2); (2, 1); (2, 3); (3, 4); (4, 2); (5, 1) ]);
  ]

let pairs_gen =
  QCheck.Gen.(
    list_size (int_range 0 10)
      (pair (int_range 0 5) (int_range 0 5)))

let suite =
  List.map
    (fun (name, pairs) ->
      t ("transitive closure by query composition: " ^ name) (fun () ->
          check_bool "equals Warshall" true
            (struql_closure pairs = closure_ref pairs)))
    cases
  @ [
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make
           ~name:"TC by composition equals Warshall (random relations)"
           ~count:100
           (QCheck.make
              ~print:(fun ps ->
                String.concat ";"
                  (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) ps))
              pairs_gen)
           (fun pairs ->
             let pairs = List.sort_uniq compare pairs in
             struql_closure pairs = closure_ref pairs));
      t "a single query's closure is over graph paths, not the relation"
        (fun () ->
          (* sanity for the [BUN 96] remark: without reification, the
             tuple encoding has no e-paths to close over *)
          let g = relation_graph [ (1, 2); (2, 3) ] in
          let out =
            Exec.run g
              (Parser.parse
                 {|WHERE R(t), t -> "e"+ -> u COLLECT Out(t) OUTPUT o|})
          in
          check_int "no matches" 0 (Graph.collection_size out "Out"));
    ]
