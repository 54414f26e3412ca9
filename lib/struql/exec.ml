(* Streaming physical-operator execution of StruQL: the one engine that
   evaluates whole queries.

   Each plan step becomes a pipelined operator over an [env Seq.t];
   rows flow operator-to-operator depth-first, so the pull order is
   exactly the row order of applying the steps one at a time to the
   whole relation (the naive two-stage semantics of §3).  Each block's
   construction clauses compile once per run ({!Eval.compile}) and
   consume the stream row-by-row ({!Eval.row}), so the mutation
   sequence — and therefore every Skolem oid — is fixed by that row
   order.  Two situations force materialization of a block's
   relation: nested blocks (they re-consume the parent rows, and the
   parent's construction must fully precede theirs), and [into == g]
   (construction would mutate the graph the pipeline is still
   scanning). *)

open Sgraph

(* --- Access-path classification --- *)

type access =
  | Coll_scan of string
  | Coll_probe of string
  | Extern_filter of string
  | Edge_out
  | Edge_by_label of string option
  | Edge_probe of string option
  | Edge_in
  | Edge_scan
  | Path_walk
  | Path_scan
  | Filter
  | Bind_eq
  | In_scan
  | Anti_join
  | Domain_objects
  | Domain_labels

let pp_access ppf = function
  | Coll_scan c -> Fmt.pf ppf "coll scan %s" c
  | Coll_probe c -> Fmt.pf ppf "coll probe %s" c
  | Extern_filter n -> Fmt.pf ppf "extern %s" n
  | Edge_out -> Fmt.string ppf "edge index: out-edges"
  | Edge_by_label (Some l) -> Fmt.pf ppf "edge index: label extent %S" l
  | Edge_by_label None -> Fmt.string ppf "edge index: label extent (runtime)"
  | Edge_probe (Some l) ->
    Fmt.pf ppf "edge index: label extent %S, hash probe on target" l
  | Edge_probe None ->
    Fmt.string ppf "edge index: label extent (runtime), hash probe on target"
  | Edge_in -> Fmt.string ppf "edge index: in-edges"
  | Edge_scan -> Fmt.string ppf "edge scan"
  | Path_walk -> Fmt.string ppf "path walk"
  | Path_scan -> Fmt.string ppf "path scan"
  | Filter -> Fmt.string ppf "filter"
  | Bind_eq -> Fmt.string ppf "bind ="
  | In_scan -> Fmt.string ppf "list scan"
  | Anti_join -> Fmt.string ppf "anti-join"
  | Domain_objects -> Fmt.string ppf "domain: objects"
  | Domain_labels -> Fmt.string ppf "domain: labels"

(* Mirrors the runtime dispatch of [Eval.exec_edge] / [exec_path] /
   [exec_cond]: boundness at this point in the plan decides the access
   path, so the classification is static. *)
let classify bound (s : Plan.step) : access =
  match s with
  | Plan.Domain_obj _ -> Domain_objects
  | Plan.Domain_label _ -> Domain_labels
  | Plan.Exec c ->
    (match c with
     | Plan.CC_not _ -> Anti_join
     | Plan.CC_coll (name, t) ->
       if Plan.term_bound bound t then Coll_probe name else Coll_scan name
     | Plan.CC_extern (name, _) -> Extern_filter name
     | Plan.CC_edge (x, l, y) ->
       let label = match l with Ast.L_const s -> Some s | Ast.L_var _ -> None in
       if Plan.term_bound bound x then Edge_out
       else if Plan.label_bound bound l then
         if Plan.term_bound bound y then Edge_probe label
         else Edge_by_label label
       else if Plan.term_bound bound y then Edge_in
       else Edge_scan
     | Plan.CC_path (x, _, _, _) ->
       if Plan.term_bound bound x then Path_walk else Path_scan
     | Plan.CC_cmp (Ast.Eq, a, b) ->
       if Plan.term_bound bound a && Plan.term_bound bound b then Filter
       else Bind_eq
     | Plan.CC_cmp _ -> Filter
     | Plan.CC_in (t, _) ->
       if Plan.term_bound bound t then Filter else In_scan)

let vset_of_list vs =
  List.fold_left (fun s v -> Plan.VSet.add v s) Plan.VSet.empty vs

let vset_add_binds vs step =
  List.fold_left (fun s v -> Plan.VSet.add v s) vs (Plan.step_binds step)

(* --- Static plans (EXPLAIN) --- *)

type op_plan = {
  op_step : Plan.step;
  op_access : access;
  op_est_fanout : float;
  op_est_rows : float;
}

type block_plan = {
  bp_path : string;
  bp_steps : op_plan list;
  bp_nested : block_plan list;
}

type query_plan = {
  qp_strategy : Plan.strategy;
  qp_blocks : block_plan list;
}

let rec plan_block st ~registry ~strategy g bound path (b : Ast.block) =
  let needed_obj, needed_label = Eval.construction_needs b in
  let steps =
    Plan.plan ~strategy ~registry g ~bound ~needed_obj ~needed_label b.where
  in
  let _, _, rev_ops =
    List.fold_left
      (fun (vs, card, acc) step ->
        let fanout =
          match step with
          | Plan.Exec c -> fst (Plan.estimate st vs c)
          | Plan.Domain_obj _ -> st.Plan.n_objects
          | Plan.Domain_label _ -> st.Plan.n_labels
        in
        let card' = Float.max 0.01 (card *. fanout) in
        let op =
          {
            op_step = step;
            op_access = classify vs step;
            op_est_fanout = fanout;
            op_est_rows = card';
          }
        in
        (vset_add_binds vs step, card', op :: acc))
      (vset_of_list bound, 1., [])
      steps
  in
  let bound' =
    Ast.dedup (bound @ List.concat_map (fun s -> Plan.step_binds s) steps)
  in
  {
    bp_path = path;
    bp_steps = List.rev rev_ops;
    bp_nested =
      List.mapi
        (fun i n ->
          plan_block st ~registry ~strategy g bound'
            (path ^ "." ^ string_of_int (i + 1))
            n)
        b.nested;
  }

let plan_query ?(options = Eval.default_options) g (q : Ast.query) =
  if options.Eval.validate then Check.validate_exn q;
  let st = Plan.stats_of_graph g in
  {
    qp_strategy = options.Eval.strategy;
    qp_blocks =
      List.mapi
        (fun i b ->
          plan_block st ~registry:options.Eval.registry
            ~strategy:options.Eval.strategy g []
            (string_of_int (i + 1))
            b)
        q.blocks;
  }

let strategy_name = function
  | Plan.Naive -> "naive"
  | Plan.Heuristic -> "heuristic"
  | Plan.Cost_based -> "cost-based"

let pp_est ppf r =
  if r >= 10. then Fmt.pf ppf "%.0f" r else Fmt.pf ppf "%.1f" r

let rec pp_block_plan ppf bp =
  Fmt.pf ppf "block %s" bp.bp_path;
  List.iter
    (fun op ->
      Fmt.pf ppf "@,  -> %a  [%a]  (est rows %a)" Plan.pp_step op.op_step
        pp_access op.op_access pp_est op.op_est_rows)
    bp.bp_steps;
  List.iter (fun n -> Fmt.pf ppf "@,%a" pp_block_plan n) bp.bp_nested

let pp_query_plan ppf qp =
  Fmt.pf ppf "@[<v>QUERY PLAN (strategy: %s)" (strategy_name qp.qp_strategy);
  List.iter (fun bp -> Fmt.pf ppf "@,%a" pp_block_plan bp) qp.qp_blocks;
  Fmt.pf ppf "@]"

let explain ?options g q = Fmt.str "%a" pp_query_plan (plan_query ?options g q)

(* --- Runtime profiles (EXPLAIN ANALYZE) --- *)

type op_stats = {
  os_step : Plan.step;
  os_access : access;
  mutable os_rows_in : int;
  mutable os_rows_out : int;
  mutable os_max_batch : int;
  mutable os_time : float;
  mutable os_timed : bool;
}

type block_profile = {
  bpr_path : string;
  bpr_ops : op_stats list;
  mutable bpr_rows : int;
}

type profile = {
  prf_strategy : Plan.strategy;
  mutable prf_blocks : block_profile list;
  mutable prf_rows : int;
  mutable prf_peak_live : int;
  mutable prf_time : float;
  mutable prf_kernel_hits : int;
  mutable prf_kernel_misses : int;
  (* differential-evaluation observability (Delta-StruQL): how many
     top-level blocks the delta engine can maintain incrementally, and
     the fallback reasons of the rest *)
  mutable prf_delta_blocks : int;
  mutable prf_delta_fallback : (string * string) list;  (* path, reason *)
}

let profile_steps p =
  List.fold_left (fun n b -> n + List.length b.bpr_ops) 0 p.prf_blocks

let profile_rows_out p =
  List.fold_left
    (fun n b -> List.fold_left (fun n o -> n + o.os_rows_out) n b.bpr_ops)
    0 p.prf_blocks

let pp_op_stats ppf os =
  Fmt.pf ppf "-> %a  [%a]  (in=%d out=%d batch<=%d%t)" Plan.pp_step os.os_step
    pp_access os.os_access os.os_rows_in os.os_rows_out os.os_max_batch
    (fun ppf ->
      if os.os_timed then Fmt.pf ppf " time=%.3fms" (os.os_time *. 1000.))

let pp_profile ppf p =
  Fmt.pf ppf "@[<v>EXPLAIN ANALYZE (strategy: %s)" (strategy_name p.prf_strategy);
  List.iter
    (fun bp ->
      Fmt.pf ppf "@,block %s  (rows=%d)" bp.bpr_path bp.bpr_rows;
      List.iter (fun os -> Fmt.pf ppf "@,  %a" pp_op_stats os) bp.bpr_ops)
    p.prf_blocks;
  Fmt.pf ppf "@,total: rows=%d operators=%d peak live bindings=%d%t@]"
    p.prf_rows (profile_steps p) p.prf_peak_live (fun ppf ->
      if p.prf_time > 0. then Fmt.pf ppf " elapsed=%.3fms" (p.prf_time *. 1000.);
      if p.prf_kernel_hits > 0 || p.prf_kernel_misses > 0 then
        Fmt.pf ppf "@,kernel: memo hits=%d misses=%d" p.prf_kernel_hits
          p.prf_kernel_misses;
      if p.prf_delta_blocks > 0 || p.prf_delta_fallback <> [] then begin
        Fmt.pf ppf "@,delta: evaluable blocks=%d fallback=%d"
          p.prf_delta_blocks
          (List.length p.prf_delta_fallback);
        List.iter
          (fun (path, why) ->
            Fmt.pf ppf "@,  block %s falls back: %s" path why)
          (List.rev p.prf_delta_fallback)
      end)

(* --- Live-binding accounting --- *)

(* Counts binding rows buffered in the pipeline: the per-row output
   batch of each operator (released as downstream pulls each row) plus
   any materialized parent relations.  Its high-water mark is the
   streaming analogue of the largest intermediate relation an eager
   evaluator materializes. *)
type live = { mutable cur : int; mutable peak : int }

let live_alloc lv n =
  lv.cur <- lv.cur + n;
  if lv.cur > lv.peak then lv.peak <- lv.cur

let live_release lv n = lv.cur <- lv.cur - n

(* --- The pipeline --- *)

let new_op_stats bound step =
  {
    os_step = step;
    os_access = classify bound step;
    os_rows_in = 0;
    os_rows_out = 0;
    os_max_batch = 0;
    os_time = 0.;
    os_timed = false;
  }

(* --- The bound-target edge probe ---

   An edge step with an unbound source, a known label and a bound
   target scans the label's whole extent for every row in [Eval]'s
   lane.  The probe indexes the extent once per run instead, each entry
   under every key its target can be equal under (an oid's id, a
   value's {!Value.coerce_keys}).  A row visits only the entries sharing
   a key with its own target, in ascending extent position, and applies
   the scan's own [match_term]/[match_label] to each, so the rows and
   their order are the scan's.  A table is rebuilt when the graph's
   generation moves and dies with its operator. *)

type pkey = P_node of int | P_val of Value.coerce_key

let target_pkeys = function
  | Graph.N o -> [ P_node (Oid.id o) ]
  | Graph.V v -> List.map (fun k -> P_val k) (Value.coerce_keys v)

type ptable = {
  pt_entries : (Oid.t * Graph.target) array;  (* the label extent *)
  pt_index : (pkey, int list) Hashtbl.t;  (* key -> ascending positions *)
}

let ptable_build g l =
  let entries = Array.of_list (Graph.label_extent g l) in
  let index = Hashtbl.create ((2 * Array.length entries) + 1) in
  for i = Array.length entries - 1 downto 0 do
    List.iter
      (fun k ->
        let ps = Option.value ~default:[] (Hashtbl.find_opt index k) in
        Hashtbl.replace index k (i :: ps))
      (target_pkeys (snd entries.(i)))
  done;
  { pt_entries = entries; pt_index = index }

(* Extent positions an entry matching one of [keys] can sit at. *)
let ptable_candidates pt keys =
  match List.filter_map (Hashtbl.find_opt pt.pt_index) keys with
  | [] -> []
  | [ ps ] -> ps
  | pss -> List.sort_uniq Int.compare (List.concat pss)

(* The label an edge step reads, as [Eval]'s scan resolves it. *)
let known_label env = function
  | Ast.L_const c -> Some c
  | Ast.L_var v -> (
    match Eval.Env.find_opt v env with
    | Some (Eval.B_label l) -> Some l
    | Some (Eval.B_target (Graph.V (Value.String s))) -> Some s
    | Some (Eval.B_target _) | None -> None)

let target_keys env y =
  match Eval.term_binding env y with
  | Some (Eval.B_target tgt) -> Some (target_pkeys tgt)
  | Some (Eval.B_label l) -> Some (target_pkeys (Graph.V (Value.String l)))
  | None -> None

(* The probe lane of one operator, tables built on first use.  A row
   the plan's static boundness misjudged scans instead. *)
let probe_exec g reg step x lt y =
  let tables = Hashtbl.create 1 in
  let gen = ref (Graph.generation g) in
  let table l =
    if Graph.generation g <> !gen then begin
      Hashtbl.reset tables;
      gen := Graph.generation g
    end;
    match Hashtbl.find_opt tables l with
    | Some pt -> pt
    | None ->
      let pt = ptable_build g l in
      Hashtbl.add tables l pt;
      pt
  in
  fun env ->
    match (Eval.term_binding env x, known_label env lt, target_keys env y) with
    | None, Some l, Some keys ->
      let pt = table l in
      List.filter_map
        (fun i ->
          let src, tgt = pt.pt_entries.(i) in
          match Eval.match_term env x (Graph.N src) with
          | None -> None
          | Some env' -> (
            match Eval.match_label env' lt l with
            | None -> None
            | Some env'' -> Eval.match_term env'' y tgt))
        (ptable_candidates pt keys)
    | _ -> Eval.exec_step g reg env step

(* A physical operator: its statistics, and how it extends one row. *)
type op = { os : op_stats; exec : Eval.env -> Eval.env list }

let ops_of_steps g reg bound steps =
  let _, rev =
    List.fold_left
      (fun (vs, acc) step ->
        let os = new_op_stats vs step in
        let exec =
          match (os.os_access, step) with
          | Edge_probe _, Plan.Exec (Plan.CC_edge (x, lt, y)) ->
            probe_exec g reg step x lt y
          | _ -> fun env -> Eval.exec_step g reg env step
        in
        (vset_add_binds vs step, { os; exec } :: acc))
      (vset_of_list bound, [])
      steps
  in
  List.rev rev

(* One physical operator over a row stream.  The expansion batch is a
   list, but only one batch per operator is ever live —
   [Seq.concat_map] pulls rows depth-first, which is exactly the row
   order of a step-by-step [List.concat_map] over the whole relation. *)
let op_seq ~timed live { os; exec } (input : Eval.env Seq.t) : Eval.env Seq.t =
  if timed then os.os_timed <- true;
  Seq.concat_map
    (fun env ->
      os.os_rows_in <- os.os_rows_in + 1;
      let outs =
        if timed then begin
          let t0 = Sys.time () in
          let r = exec env in
          os.os_time <- os.os_time +. (Sys.time () -. t0);
          r
        end
        else exec env
      in
      let k = List.length outs in
      os.os_rows_out <- os.os_rows_out + k;
      if k > os.os_max_batch then os.os_max_batch <- k;
      live_alloc live k;
      Seq.map
        (fun e ->
          live_release live 1;
          e)
        (List.to_seq outs))
    input

let fold_pipeline ~timed live ops input =
  List.fold_left (fun s op -> op_seq ~timed live op s) input ops

(* The differential engine's lane: one block's operators, built once,
   stepping its drivers' rows through the same pipeline. *)
let stepper g reg ~bound steps =
  let ops = ops_of_steps g reg bound steps in
  let live = { cur = 0; peak = 0 } in
  fun envs ->
    List.of_seq (fold_pipeline ~timed:false live ops (List.to_seq envs))

(** Kill switch for differential (delta) evaluation: when cleared,
    {!Dexec}-driven pipelines ([strudel watch], warehouse delta
    refresh) fall back to cold full builds.  The streaming evaluator
    itself always runs full — the switch is honoured by the
    differential layer above it. *)
let delta_enabled = ref true

(* --- Whole-query evaluation --- *)

type rctx = {
  g : Graph.t;
  sink : Eval.cons;
  registry : Builtins.registry;
  strategy : Plan.strategy;
  timed : bool;
  live : live;
  materialize_all : bool;
      (* [into == g]: stage 1 would scan the graph construction is
         mutating, so each block materializes its relation before
         constructing *)
  blocks_rev : block_profile list ref;
  mutable plans : ((Ast.block * Ast.var list) * Plan.step list) list;
      (* every block planned so far, keyed by (block, bound variables),
         for the delta classifier *)
  prof : profile;
}

let rec run_block rctx path bound (inputs : Eval.env Seq.t) (b : Ast.block) =
  let needed_obj, needed_label = Eval.construction_needs b in
  let steps =
    Plan.plan ~strategy:rctx.strategy ~registry:rctx.registry rctx.g ~bound
      ~needed_obj ~needed_label b.where
  in
  rctx.plans <- ((b, bound), steps) :: rctx.plans;
  let ops = ops_of_steps rctx.g rctx.registry bound steps in
  let bpr =
    { bpr_path = path; bpr_ops = List.map (fun o -> o.os) ops; bpr_rows = 0 }
  in
  rctx.blocks_rev := bpr :: !(rctx.blocks_rev);
  let bld = Eval.builder rctx.sink (Eval.compile b) in
  let construct env = Eval.row bld env in
  let stream = fold_pipeline ~timed:rctx.timed rctx.live ops inputs in
  if b.nested = [] && not rctx.materialize_all then begin
    (* fully pipelined: construct each row as it is pulled *)
    Seq.iter
      (fun env ->
        bpr.bpr_rows <- bpr.bpr_rows + 1;
        construct env)
      stream;
    Eval.flush bld
  end
  else begin
    (* nested blocks re-consume the relation, and the parent's
       construction must fully precede theirs for oid-order fidelity *)
    let rows = List.of_seq stream in
    let n = List.length rows in
    bpr.bpr_rows <- n;
    live_alloc rctx.live n;
    List.iter construct rows;
    Eval.flush bld;
    let bound' =
      Ast.dedup (bound @ List.concat_map (fun s -> Plan.step_binds s) steps)
    in
    List.iteri
      (fun i nested ->
        run_block rctx
          (path ^ "." ^ string_of_int (i + 1))
          bound' (List.to_seq rows) nested)
      b.nested;
    live_release rctx.live n
  end;
  rctx.prof.prf_rows <- rctx.prof.prf_rows + bpr.bpr_rows

(* One delta class per top-level block, from the plans its run made. *)
let classify_top rctx path (b : Ast.block) =
  let plan ~bound nb =
    snd (List.find (fun ((b', bd), _) -> b' == nb && bd = bound) rctx.plans)
  in
  let prof = rctx.prof in
  match Plan.delta_class ~pure:Builtins.pure_extern ~plan b with
  | Plan.D_static | Plan.D_driven _ ->
    prof.prf_delta_blocks <- prof.prf_delta_blocks + 1
  | Plan.D_fallback why ->
    prof.prf_delta_fallback <- (path, why) :: prof.prf_delta_fallback

(* One query into [out]; [materialize_all] when [out] is the data graph. *)
let eval_query ~options ~timed ~scope ?emit ~out ~materialize_all g
    (q : Ast.query) =
  if options.Eval.validate then Check.validate_exn q;
  let prof =
    {
      prf_strategy = options.Eval.strategy;
      prf_blocks = [];
      prf_rows = 0;
      prf_peak_live = 0;
      prf_time = 0.;
      prf_kernel_hits = 0;
      prf_kernel_misses = 0;
      prf_delta_blocks = 0;
      prf_delta_fallback = [];
    }
  in
  let k0 = Graph.kernel_counters g in
  let rctx =
    {
      g;
      sink = { Eval.out; scope; emit };
      registry = options.Eval.registry;
      strategy = options.Eval.strategy;
      timed;
      live = { cur = 0; peak = 0 };
      materialize_all;
      blocks_rev = ref [];
      plans = [];
      prof;
    }
  in
  let t0 = Sys.time () in
  List.iteri
    (fun i b ->
      let path = string_of_int (i + 1) in
      run_block rctx path [] (Seq.return Eval.Env.empty) b;
      classify_top rctx path b)
    q.blocks;
  prof.prf_time <- Sys.time () -. t0;
  prof.prf_peak_live <- rctx.live.peak;
  prof.prf_blocks <- List.rev !(rctx.blocks_rev);
  let k1 = Graph.kernel_counters g in
  prof.prf_kernel_hits <- k1.Graph.hits - k0.Graph.hits;
  prof.prf_kernel_misses <- k1.Graph.misses - k0.Graph.misses;
  prof

let run_all ?(options = Eval.default_options) ?(timed = false) ?scope ?emit
    ~name g qs =
  let scope = match scope with Some s -> s | None -> Skolem.create () in
  let ld = Graph.Loader.create ~name () in
  let profs =
    List.map
      (eval_query ~options ~timed ~scope ?emit ~out:(Eval.Fresh ld)
         ~materialize_all:false g)
      qs
  in
  (Graph.Loader.finish ld, profs)

let run_with_profile ?(options = Eval.default_options) ?(timed = false) ?scope
    ?into ?emit g (q : Ast.query) =
  match into with
  | None -> (
    match run_all ~options ~timed ?scope ?emit ~name:q.output g [ q ] with
    | out, [ prof ] -> (out, prof)
    | _ -> assert false)
  | Some out ->
    let scope = match scope with Some s -> s | None -> Skolem.create () in
    ( out,
      eval_query ~options ~timed ~scope ?emit ~out:(Eval.Live out)
        ~materialize_all:(out == g) g q )

let run ?options ?scope ?into ?emit g q =
  fst (run_with_profile ?options ?scope ?into ?emit g q)

let run_string ?options ?scope ?into g src =
  let registry =
    match options with Some o -> o.Eval.registry | None -> Builtins.default
  in
  let q = Parser.parse ~registry src in
  run ?options ?scope ?into g q

(* --- Stage 1 alone --- *)

let pipeline_of_conds ~options ~timed ~env ~bound ~needed_obj ~needed_label g
    conds =
  let bound =
    Ast.dedup (bound @ List.map fst (Eval.Env.bindings env))
  in
  let steps =
    Plan.plan ~strategy:options.Eval.strategy ~registry:options.Eval.registry g
      ~bound ~needed_obj ~needed_label conds
  in
  let live = { cur = 0; peak = 0 } in
  let ops = ops_of_steps g options.Eval.registry bound steps in
  let stream = fold_pipeline ~timed live ops (Seq.return env) in
  (stream, List.map (fun o -> o.os) ops, live)

let bindings_profiled ?(options = Eval.default_options) ?(timed = false)
    ?(env = Eval.Env.empty) ?(bound = []) ?(needed_obj = [])
    ?(needed_label = []) g conds =
  let s, ops, live =
    pipeline_of_conds ~options ~timed ~env ~bound ~needed_obj ~needed_label g
      conds
  in
  let rows = List.of_seq s in
  (rows, ops, live.peak)

let bindings ?options ?env ?bound ?needed_obj ?needed_label g conds =
  let rows, _, _ =
    bindings_profiled ?options ?env ?bound ?needed_obj ?needed_label g conds
  in
  rows
