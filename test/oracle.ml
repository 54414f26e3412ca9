(* The reference StruQL evaluator: the naive two-stage semantics of §3,
   kept as the oracle the streaming engine (Struql.Exec) is checked
   against.

   Stage 1 materializes a block's whole binding relation, applying one
   plan step at a time to every row; stage 2 constructs over the
   finished relation; nested blocks then run over the parent's
   relation, so their WHERE clauses are conjoined with their
   ancestors'.  Only the per-row semantics (Eval.exec_step,
   Eval.construct_row) is shared with the engine.  The oracle never
   freezes the data graph itself, so on a graph nobody has frozen its
   path conditions take the interpretive BFS lane rather than the
   compiled kernel. *)

open Sgraph
open Struql

(* the largest relation stage 1 has materialized *)
type stats = { mutable max_intermediate : int }

let new_stats () = { max_intermediate = 0 }

let exec_steps ?(stats = new_stats ()) g reg envs steps =
  List.fold_left
    (fun envs step ->
      let envs' =
        List.concat_map (fun env -> Eval.exec_step g reg env step) envs
      in
      stats.max_intermediate <- max stats.max_intermediate (List.length envs');
      envs')
    envs steps

let plan (options : Eval.options) g ~bound ~needed_obj ~needed_label conds =
  Plan.plan ~strategy:options.strategy ~registry:options.registry g ~bound
    ~needed_obj ~needed_label conds

let rec run_block options sink g bound envs (b : Ast.block) =
  let needed_obj, needed_label = Eval.construction_needs b in
  let steps = plan options g ~bound ~needed_obj ~needed_label b.where in
  let envs = exec_steps g options.Eval.registry envs steps in
  let groups = Eval.new_groups () in
  List.iter (Eval.construct_row sink groups b) envs;
  Eval.construct_flush sink groups;
  let bound = Ast.dedup (bound @ List.concat_map Plan.step_binds steps) in
  List.iter (run_block options sink g bound envs) b.nested

let run ?(options = Eval.default_options) ?scope ?into g (q : Ast.query) =
  if options.validate then Check.validate_exn q;
  let out =
    match into with Some o -> o | None -> Graph.create ~name:q.output ()
  in
  let scope = match scope with Some s -> s | None -> Skolem.create () in
  let sink = { Eval.out; scope; emit = None } in
  List.iter (run_block options sink g [] [ Eval.Env.empty ]) q.blocks;
  out

(* stage 1 alone: the binding relation of a condition list *)
let bindings ?(options = Eval.default_options) g conds =
  let steps = plan options g ~bound:[] ~needed_obj:[] ~needed_label:[] conds in
  exec_steps g options.registry [ Eval.Env.empty ] steps
