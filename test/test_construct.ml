(* The compiled construction stage (Eval.compile, Eval.row, Eval.flush)
   against the oracle's term-by-term interpreter (test/oracle.ml), over
   random data graphs and random blocks: repeated and nested Skolem
   terms, value arguments of every kind (Int 1 / Float 1.0 /
   String "1", NaN, 0.0 / -0.0), arc variables, all five aggregates
   with clauses sharing a group, nested blocks and every construction
   error.  Each run is compared on four things:

   - the output graph, in every index order;
   - the Skolem scope: its size, and the creation order, name and
     term of every term it holds;
   - the emitter's events: per row, the sequence of first occurrences
     (what Dexec records per derivation and the GAV recorder per
     mapping), and the raw sequence of edge and membership events,
     which the compiled construction leaves unchanged (it emits a
     distinct term's node event once per row instead of at every use);
   - the raised message, the state at the raise included. *)

open Sgraph
open Struql

let t name f = Alcotest.test_case name `Quick f

(* --- observing one run --- *)

type event = Ev_node of Oid.t | Ev_edge of Oid.t * string * Graph.target
  | Ev_coll of string * Oid.t | Ev_row

(* The compiled path builds into a Skolem scope, the oracle into its
   own reference scope. *)
type scope = Compiled of Skolem.t | Reference of Oracle.scope

type run = {
  mutable out : Graph.t;
  scope : scope;
  events : event list ref;  (* newest first *)
  mutable raised : string option;
}

let new_run scope =
  { out = Graph.create ~name:"out" (); scope; events = ref []; raised = None }

let compiled_run () = new_run (Compiled (Skolem.create ()))
let oracle_run () = new_run (Reference (Oracle.new_scope ()))

let skolem r = match r.scope with Compiled s -> s | Reference _ -> assert false

let reference r =
  match r.scope with Reference s -> s | Compiled _ -> assert false

let size r =
  match r.scope with
  | Compiled s -> Skolem.size s
  | Reference s -> Oracle.scope_size s

let term_of r o =
  match r.scope with
  | Compiled s -> Skolem.term_of s o
  | Reference s -> Oracle.term_of s o

let recorder r =
  let push e = r.events := e :: !(r.events) in
  {
    Eval.em_apply = true;
    em_node = (fun o -> push (Ev_node o));
    em_edge = (fun s l tg -> push (Ev_edge (s, l, tg)));
    em_coll = (fun c o -> push (Ev_coll (c, o)));
  }

let compiled_sink r =
  { Eval.out = Eval.Live r.out; scope = skolem r; emit = Some (recorder r) }

let oracle_sink r =
  { Oracle.out = r.out; scope = reference r; emit = Some (recorder r) }

let catching r f =
  match f () with
  | () -> ()
  | exception Eval.Eval_error m -> r.raised <- Some m

(* Values print with their kind, floats in hex, so [Int 1], [Float 1.0]
   and [String "1"] stay apart, as do [0.0] and [-0.0]. *)
let vstr = function
  | Value.Float f -> Printf.sprintf "float %h" f
  | v -> Value.kind_name v ^ " " ^ Value.to_string v

(* A run's observable state, its oids canonical: a term's oid by its
   place in creation order, with its name; a data oid by its name. *)
let observe r =
  let created =
    List.filter (fun o -> term_of r o <> None) (Graph.nodes r.out)
    |> List.sort Oid.compare
  in
  let rank = Hashtbl.create 16 in
  List.iteri (fun i o -> Hashtbl.replace rank (Oid.id o) i) created;
  let oid o =
    match Hashtbl.find_opt rank (Oid.id o) with
    | Some i -> Printf.sprintf "s%d=%s" i (Oid.name o)
    | None -> Oid.name o
  in
  let tgt = function Graph.N o -> oid o | Graph.V v -> vstr v in
  let g = r.out in
  let nodes = Graph.nodes g in
  let values =
    Graph.fold_edges
      (fun _ _ tg acc -> match tg with Graph.V v -> v :: acc | Graph.N _ -> acc)
      g []
    |> List.sort_uniq Value.compare
  in
  let graph =
    (("nodes", List.map oid nodes)
     :: List.map
          (fun o ->
            ( "out " ^ oid o,
              List.map (fun (l, tg) -> l ^ "=" ^ tgt tg) (Graph.out_edges g o) ))
          nodes)
    @ [ ("collections", Graph.collections g); ("labels", Graph.labels g) ]
    @ List.map
        (fun c -> ("coll " ^ c, List.map oid (Graph.collection g c)))
        (Graph.collections g)
    @ List.map
        (fun l ->
          ( "label " ^ l,
            List.map (fun (o, tg) -> oid o ^ "=" ^ tgt tg) (Graph.label_extent g l)
          ))
        (Graph.labels g)
    @ List.map
        (fun v ->
          ( "value " ^ vstr v,
            List.map (fun (o, l) -> oid o ^ "." ^ l) (Graph.value_index g v) ))
        values
    @ List.map
        (fun o ->
          ( "in " ^ oid o,
            List.map (fun (s, l) -> oid s ^ "." ^ l) (Graph.in_edges g (Graph.N o))
          ))
        nodes
  in
  let scope =
    ("size", [ string_of_int (size r) ])
    :: List.map
         (fun o ->
           match term_of r o with
           | Some (f, args) -> ("term " ^ oid o, f :: List.map tgt args)
           | None -> assert false)
         created
  in
  let ev = function
    | Ev_node o -> "node " ^ oid o
    | Ev_edge (s, l, tg) -> Printf.sprintf "edge %s.%s=%s" (oid s) l (tgt tg)
    | Ev_coll (c, o) -> Printf.sprintf "coll %s %s" c (oid o)
    | Ev_row -> "row"
  in
  let events = List.rev !(r.events) in
  (* first occurrences within each row *)
  let firsts =
    let seen = Hashtbl.create 16 in
    List.filter_map
      (fun e ->
        let s = ev e in
        if (match e with Ev_row -> true | _ -> false) then begin
          Hashtbl.reset seen;
          Some s
        end
        else if Hashtbl.mem seen s then None
        else begin
          Hashtbl.add seen s ();
          Some s
        end)
      events
  in
  let raw =
    List.filter_map
      (function Ev_node _ -> None | e -> Some (ev e))
      events
  in
  [ ("raised", Option.to_list r.raised) ]
  @ graph @ scope
  @ [ ("first occurrences", firsts); ("edge and membership events", raw) ]

(* The first difference, for a failing case's report. *)
let diff a b =
  let rec go = function
    | (k, x) :: a', (k', y) :: b' ->
      if k = k' && x = y then go (a', b')
      else
        Printf.sprintf "oracle   %s: %s\ncompiled %s: %s" k
          (String.concat " | " x) k' (String.concat " | " y)
    | [], [] -> "equal"
    | _ -> "lengths differ"
  in
  go (a, b)

(* --- random data and blocks --- *)

let pool =
  [| Value.Int 1; Value.Float 1.0; Value.String "1"; Value.Float Float.nan;
     Value.Float 0.0; Value.Float (-0.0); Value.String "x"; Value.Bool true;
     Value.Null; Value.Url "http://a"; Value.File (Value.Text, "f.txt");
     Value.Int 2 |]

let labels = [| "a"; "b"; "c" |]

type dtarget = D_node of int | D_val of int

(* nodes (and whether each is in C), edges (source, label, target) *)
type data = bool array * (int * int * dtarget) list

let gen_data : data QCheck.Gen.t =
  let open QCheck.Gen in
  int_range 2 5 >>= fun n ->
  pair
    (array_size (return n) (frequencyl [ (3, true); (1, false) ]))
    (list_size (int_range 2 14)
       (triple (int_bound (n - 1))
          (int_bound (Array.length labels - 1))
          (frequency
             [ (1, map (fun i -> D_node i) (int_bound (n - 1)));
               (3, map (fun k -> D_val k) (int_bound (Array.length pool - 1))) ])))

let build_data ((members, edges) : data) =
  let g = Graph.create ~name:"data" () in
  let nodes =
    Array.init (Array.length members) (fun i -> Oid.fresh (Printf.sprintf "d%d" i))
  in
  Array.iteri
    (fun i o ->
      Graph.add_node g o;
      if members.(i) then Graph.add_to_collection g "C" o)
    nodes;
  List.iter
    (fun (s, l, tg) ->
      Graph.add_edge g nodes.(s) labels.(l)
        (match tg with D_node j -> Graph.N nodes.(j) | D_val k -> Graph.V pool.(k)))
    edges;
  (g, nodes)

(* The variables a block may read: objects and arc variables. *)
type scope_vars = { objs : string list; arcs : string list }

let aggs = [ Ast.Count; Ast.Sum; Ast.Min; Ast.Max; Ast.Avg ]

let gen_leaf vs =
  let open QCheck.Gen in
  frequency
    [ (30, map (fun v -> Ast.T_var v) (oneofl (vs.objs @ vs.arcs)));
      (20, map (fun k -> Ast.T_const pool.(k)) (int_bound (Array.length pool - 1)));
      (* an aggregate out of place raises where it is read *)
      (1, map (fun v -> Ast.T_agg (Ast.Count, Ast.T_var v)) (oneofl vs.objs)) ]

let rec gen_skolem vs depth =
  let open QCheck.Gen in
  map2
    (fun f args -> Ast.T_skolem (f, args))
    (oneofl [ "F"; "G"; "H" ])
    (list_size (int_bound 2)
       (if depth = 0 then gen_leaf vs
        else frequency [ (3, gen_leaf vs); (2, gen_skolem vs (depth - 1)) ]))

(* One block's construction clauses over a few Skolem terms it repeats,
   nested ones among them. *)
let gen_clauses vs : (Ast.create_clause list * Ast.link_clause list
                      * Ast.collect_clause list) QCheck.Gen.t =
  let open QCheck.Gen in
  list_size (int_range 1 3) (gen_skolem vs 1) >>= fun terms ->
  let term =
    frequency [ (4, oneofl terms); (1, gen_skolem vs 1); (1, gen_leaf vs) ]
  in
  let source =
    frequency
      [ (40, oneofl terms);
        (1, map (fun v -> Ast.T_var v) (oneofl vs.objs));
        (1, return (Ast.T_const (Value.Int 1))) ]
  in
  let label =
    frequency
      ([ (12, map (fun l -> Ast.L_const l) (oneofl [ "a"; "n"; "m" ]));
         (* an object variable as a label: a node raises, a value is
            printed *)
         (1, map (fun v -> Ast.L_var v) (oneofl vs.objs)) ]
      @
      if vs.arcs = [] then []
      else [ (8, map (fun v -> Ast.L_var v) (oneofl vs.arcs)) ])
  in
  let target =
    frequency
      [ (3, term);
        (3, map2 (fun fn inner -> Ast.T_agg (fn, inner)) (oneofl aggs) term) ]
  in
  let link = triple source label target in
  let links =
    list_size (int_range 0 4) link >>= fun ls ->
    (* repeat an aggregate clause: the two share one group *)
    match List.filter (function _, _, Ast.T_agg _ -> true | _ -> false) ls with
    | [] -> return ls
    | agg :: _ ->
      bool >|= fun dup -> if dup then ls @ [ agg ] else ls
  in
  let create =
    list_size (int_bound 2)
      (oneofl terms >|= function
       | Ast.T_skolem (f, args) -> (f, args)
       | _ -> assert false)
  in
  let collect =
    list_size (int_bound 2)
      (pair (oneofl [ "P"; "Q" ])
         (frequency [ (12, oneofl terms); (1, gen_leaf vs) ]))
  in
  triple create links collect

let edge x l y = Ast.C_edge (Ast.T_var x, l, Ast.T_var y)

let gen_block : Ast.block QCheck.Gen.t =
  let open QCheck.Gen in
  oneofl
    [ ([ Ast.C_atom ("C", [ Ast.T_var "x" ]) ], { objs = [ "x" ]; arcs = [] });
      ( [ Ast.C_atom ("C", [ Ast.T_var "x" ]); edge "x" (Ast.L_var "l") "v" ],
        { objs = [ "x"; "v" ]; arcs = [ "l" ] } );
      ( [ Ast.C_atom ("C", [ Ast.T_var "x" ]); edge "x" (Ast.L_const "a") "v" ],
        { objs = [ "x"; "v" ]; arcs = [] } ) ]
  >>= fun (where, vs) ->
  gen_clauses vs >>= fun (create, link, collect) ->
  let nvs = { objs = "w" :: vs.objs; arcs = "k" :: vs.arcs } in
  list_size (int_bound 1)
    (gen_clauses nvs >|= fun (create, link, collect) ->
     { Ast.where = [ edge "x" (Ast.L_var "k") "w" ]; create; link; collect;
       nested = [] })
  >|= fun nested -> { Ast.where; create; link; collect; nested }

let gen_query =
  QCheck.Gen.(list_size (int_range 1 2) gen_block >|= fun blocks ->
              Ast.query blocks)

let print_query q = Pretty.to_string q

(* --- whole queries: Exec.run against Oracle.run --- *)

let options = { Eval.default_options with validate = false }

let run_query engine data q =
  let r =
    match engine with
    | `Oracle -> oracle_run ()
    | `Compiled | `Fresh -> compiled_run ()
  in
  catching r (fun () ->
      match engine with
      | `Oracle ->
        ignore
          (Oracle.run ~options ~scope:(reference r) ~into:r.out
             ~emit:(recorder r) data q)
      | `Compiled ->
        ignore
          (Exec.run ~options ~scope:(skolem r) ~into:r.out ~emit:(recorder r)
             data q)
      | `Fresh ->
        r.out <- Exec.run ~options ~scope:(skolem r) ~emit:(recorder r) data q);
  observe r

let query_agrees (d, q) =
  let data, _ = build_data d in
  let o = run_query `Oracle data q and c = run_query `Compiled data q in
  (* the same run into a fresh output, which the bulk loader builds; a
     run that raises returns no graph, so then only the error compares *)
  let f = run_query `Fresh data q in
  let f, c' =
    match c with
    | ("raised", [ _ ]) :: _ -> ([ List.hd f ], [ List.hd c ])
    | _ -> (f, c)
  in
  (o = c || QCheck.Test.fail_report (diff o c))
  && (f = c' || QCheck.Test.fail_reportf "into a graph / fresh: %s" (diff c' f))

let arb_query =
  QCheck.make
    ~print:(fun (_, q) -> print_query q)
    QCheck.Gen.(pair gen_data gen_query)

(* --- single rows: every binding a row can hold, unbound ones too --- *)

let gen_rows nodes : Eval.env list QCheck.Gen.t =
  let open QCheck.Gen in
  let n = Array.length nodes in
  let node = map (fun i -> Eval.B_target (Graph.N nodes.(i))) (int_bound (n - 1)) in
  let value =
    map
      (fun k -> Eval.B_target (Graph.V pool.(k)))
      (int_bound (Array.length pool - 1))
  in
  let lab =
    map (fun i -> Eval.B_label labels.(i)) (int_bound (Array.length labels - 1))
  in
  let binding v gen =
    frequency [ (30, map (fun b -> Some (v, b)) gen); (1, return None) ]
  in
  list_size (int_range 1 5)
    (map
       (fun bs ->
         List.fold_left
           (fun env -> function Some (v, b) -> Eval.Env.add v b env | None -> env)
           Eval.Env.empty bs)
       (flatten_l
          [ binding "x" node;
            binding "v" (frequency [ (3, value); (1, node) ]);
            binding "l" (frequency [ (8, lab); (2, value); (1, node) ]);
            frequency
              [ (8, map (fun b -> Some ("y", b)) node); (1, return None) ] ]))

(* A block over rows, through the oracle's interpreter and through the
   compiled construction, each run's events marked before every row
   and before the flush. *)
let run_rows block rows =
  let o = oracle_run () and c = compiled_run () in
  let mark r = r.events := Ev_row :: !(r.events) in
  catching o (fun () ->
      let snk = oracle_sink o and groups = Oracle.new_groups () in
      List.iter
        (fun env ->
          mark o;
          Oracle.construct_row snk groups block env)
        rows;
      mark o;
      Oracle.construct_flush snk groups);
  catching c (fun () ->
      let bld = Eval.builder (compiled_sink c) (Eval.compile block) in
      List.iter
        (fun env ->
          mark c;
          Eval.row bld env)
        rows;
      mark c;
      Eval.flush bld);
  (o, c)

let rows_agree (block, d, seed) =
  let _, nodes = build_data d in
  let rows =
    QCheck.Gen.generate1 ~rand:(Random.State.make [| seed |]) (gen_rows nodes)
  in
  let o, c = run_rows block rows in
  let o = observe o and c = observe c in
  o = c || QCheck.Test.fail_report (diff o c)

let arb_rows =
  QCheck.make
    ~print:(fun (b, _, seed) ->
      Printf.sprintf "seed %d\n%s" seed (print_query (Ast.query [ b ])))
    QCheck.Gen.(
      triple
        (gen_clauses { objs = [ "x"; "v"; "y" ]; arcs = [ "l" ] }
         >|= fun (create, link, collect) ->
         { Ast.empty_block with create; link; collect })
        gen_data (int_bound 1_000_000))

(* --- fixed cases: each behaviour the generators must reach --- *)

let parse_block src = List.hd (Parser.parse src).Ast.blocks

(* Run a block over rows both ways; fail on any difference. *)
let both block rows =
  let o, c = run_rows block rows in
  let oo = observe o and co = observe c in
  if oo <> co then Alcotest.fail (diff oo co);
  c

let env bs = List.fold_left (fun e (v, b) -> Eval.Env.add v b e) Eval.Env.empty bs
let value v = Eval.B_target (Graph.V v)
let node o = Eval.B_target (Graph.N o)

let count p r = List.length (List.filter p !(r.events))

let fixed =
  [
    t "a term is built once per row: its node event comes once, first" (fun () ->
        let b =
          parse_block
            {|CREATE F(G(x)), G(x)
              LINK G(x) -> "up" -> F(G(x)), F(G(x)) -> "k" -> x
              COLLECT P(F(G(x)))
              OUTPUT O|}
        in
        let r =
          both b
            [ env [ ("x", value (Value.Int 1)) ];
              env [ ("x", value (Value.Int 2)) ] ]
        in
        Alcotest.(check int) "node events: two terms, two rows" 4
          (count (function Ev_node _ -> true | _ -> false) r);
        Alcotest.(check int) "edge events" 4
          (count (function Ev_edge _ -> true | _ -> false) r);
        match List.rev !(r.events) with
        | Ev_row :: Ev_node g :: Ev_node f :: _ ->
          Alcotest.(check (list string)) "nested before its parent"
            [ "G(1)"; "F(G(1))" ] [ Oid.name g; Oid.name f ]
        | _ -> Alcotest.fail "the row opens on two node events");
    t "Int 1, Float 1.0 and String \"1\" are three terms, 0.0 and -0.0 two, NaN one"
      (fun () ->
        let b = parse_block {|CREATE F(v) OUTPUT O|} in
        let rows =
          List.map
            (fun v -> env [ ("v", value v) ])
            Value.
              [ Int 1; Float 1.0; String "1"; Int 1; Float Float.nan;
                Float Float.nan; Float 0.0; Float (-0.0) ]
        in
        let r = both b rows in
        Alcotest.(check int) "terms" 6 (size r));
    t "two clauses with one group key share a group" (fun () ->
        let b =
          parse_block
            {|LINK S() -> "n" -> count(v), S() -> "m" -> sum(v),
                   S() -> "n" -> count(v)
              OUTPUT O|}
        in
        let rows =
          List.map (fun i -> env [ ("v", value (Value.Int i)) ]) [ 1; 2; 2; 3 ]
        in
        let r = both b rows in
        Alcotest.(check (list string)) "one edge per group, first-row order"
          [ "n=int 3"; "m=int 6" ]
          (List.filter_map
             (function
               | Ev_edge (_, l, Graph.V v) -> Some (l ^ "=" ^ vstr v)
               | _ -> None)
             (List.rev !(r.events))));
    t "every construction error is raised where the interpreter raises it"
      (fun () ->
        let d = Oid.fresh "d" in
        List.iter
          (fun (src, rows, msg) ->
            let r = both (parse_block src) rows in
            Alcotest.(check (option string)) src (Some msg) r.raised)
          [ ( {|CREATE F(x) LINK x -> "a" -> F(x) OUTPUT O|},
              [ env [ ("x", node d) ] ],
              "LINK may only add edges from newly created (Skolem) nodes; \
               existing nodes are immutable" );
            ( {|CREATE F(x) COLLECT P(F(x)), Q(x) OUTPUT O|},
              [ env [ ("x", value (Value.Int 1)) ] ],
              "COLLECT Q applied to an atomic value" );
            ( {|CREATE F(x) LINK F(x) -> "a" -> y OUTPUT O|},
              [ env [ ("x", value (Value.Int 1)) ] ],
              "unbound variable y in construction" );
            ( {|CREATE F(x) LINK F(x) -> l -> x OUTPUT O|},
              [ env [ ("x", value (Value.Int 1)); ("l", node d) ] ],
              "arc variable l bound to a node" );
            ( {|CREATE F(x) LINK F(x) -> l -> x OUTPUT O|},
              [ env [ ("x", value (Value.Int 1)); ("l", Eval.B_label "a") ];
                env [ ("x", value (Value.Int 2)) ] ],
              "unbound arc variable l" );
            ( {|CREATE F(x), G(x, count(x)) OUTPUT O|},
              [ env [ ("x", value (Value.Int 1)) ] ],
              "count(...) may only appear as a LINK target" ) ]);
  ]

let suite =
  fixed
  @ [
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make ~count:300
           ~name:"compiled rows = the interpreter's rows: graph, scope, events, errors"
           arb_rows rows_agree);
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make ~count:300
           ~name:"Exec.run = Oracle.run on random blocks: graph, scope, events, errors"
           arb_query query_agrees);
    ]
