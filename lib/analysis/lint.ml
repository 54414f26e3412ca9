(** Cross-layer static analysis of a site specification.

    [run] analyzes queries, templates, derived schema, constraints and
    source declarations without building the site; see the catalog in
    {!Diagnostic.catalog} for the codes each family emits. *)

open Sgraph
module P = Struql.Parser
module Ast = Struql.Ast
module SS = Schema.Site_schema

type spec = {
  name : string;
  queries : (string * string) list;
  templates : Template.Generator.template_set;
  root_family : string;
  constraints : Schema.Verify.constraint_ list;
  registry : Struql.Builtins.registry;
  data : Graph.t option;
  declared_sources : string list;
  mapping_sources : string list;
  max_guide_states : int;
}

let of_definition ?data ?(declared_sources = []) ?(mapping_sources = [])
    ?(max_guide_states = 10_000)
    (def : Strudel.Site.definition) =
  {
    name = def.Strudel.Site.name;
    queries = def.Strudel.Site.queries;
    templates = def.Strudel.Site.templates;
    root_family = def.Strudel.Site.root_family;
    constraints = def.Strudel.Site.constraints;
    registry = def.Strudel.Site.registry;
    data;
    declared_sources;
    mapping_sources;
    max_guide_states;
  }

type fail_on = Fail_error | Fail_warning

let fail_on_of_string = function
  | "error" -> Some Fail_error
  | "warning" -> Some Fail_warning
  | _ -> None

let exit_code fo diags =
  let threshold = match fo with Fail_error -> 2 | Fail_warning -> 1 in
  if
    List.exists
      (fun d -> Diagnostic.severity_rank d.Diagnostic.severity >= threshold)
      diags
  then 1
  else 0

(* --- span plumbing --- *)

let dspan file (sp : P.span) =
  { Diagnostic.file; l1 = sp.P.sl; c1 = sp.P.sc; l2 = sp.P.el; c2 = sp.P.ec }

let ospan file sp = Option.map (dspan file) sp

let file_only file = { Diagnostic.file; l1 = 0; c1 = 0; l2 = 0; c2 = 0 }

(* Locate [needle] in template text; a file-only span when absent. *)
let find_span file text needle =
  let n = String.length text and m = String.length needle in
  let rec idx i =
    if i + m > n then None
    else if String.sub text i m = needle then Some i
    else idx (i + 1)
  in
  match idx 0 with
  | None -> file_only file
  | Some i ->
    let line = ref 1 and bol = ref 0 in
    for j = 0 to i - 1 do
      if text.[j] = '\n' then begin
        incr line;
        bol := j + 1
      end
    done;
    let c = i - !bol + 1 in
    { Diagnostic.file; l1 = !line; c1 = c; l2 = !line; c2 = c + m }

(* Pair AST items with their spans when the span list is aligned. *)
let zip_opt items sps =
  match sps with
  | Some sps when List.length sps = List.length items ->
    List.map2 (fun i s -> (i, Some s)) items sps
  | _ -> List.map (fun i -> (i, None)) items

type pq = { qname : string; ast : Ast.query; spans : P.query_spans }

(* Visit every block of the query with its spans, outermost first. *)
let iter_blocks f (pq : pq) =
  let rec go (b : Ast.block) (sb : P.block_spans option) =
    f pq.qname b sb;
    let nsps = Option.map (fun s -> s.P.s_nested) sb in
    List.iter (fun (nb, nsb) -> go nb nsb) (zip_opt b.Ast.nested nsps)
  in
  List.iter
    (fun (b, sb) -> go b sb)
    (zip_opt pq.ast.Ast.blocks (Some pq.spans))

let where_sp (sb : P.block_spans option) =
  Option.map (fun s -> s.P.s_where) sb

let link_sp (sb : P.block_spans option) = Option.map (fun s -> s.P.s_link) sb

let create_sp (sb : P.block_spans option) =
  Option.map (fun s -> s.P.s_create) sb

let collect_sp (sb : P.block_spans option) =
  Option.map (fun s -> s.P.s_collect) sb

(* Collection references, looking through negation. *)
let rec atom_names acc = function
  | Ast.C_atom (n, _) -> n :: acc
  | Ast.C_not c -> atom_names acc c
  | Ast.C_edge _ | Ast.C_path _ | Ast.C_cmp _ | Ast.C_in _ -> acc

(* Occurrences of a variable in a block subtree (conditions and
   construction clauses, nested blocks included). *)
let occurrences v b =
  let count acc vars =
    acc + List.length (List.filter (String.equal v) vars)
  in
  let rec go acc (b : Ast.block) =
    let acc =
      List.fold_left
        (fun acc c -> count acc (Ast.condition_vars [] c))
        acc b.Ast.where
    in
    let acc =
      List.fold_left
        (fun acc (_, args) -> count acc (List.fold_left Ast.term_vars [] args))
        acc b.Ast.create
    in
    let acc =
      List.fold_left
        (fun acc (x, l, y) ->
          count acc (Ast.label_vars (Ast.term_vars (Ast.term_vars [] x) y) l))
        acc b.Ast.link
    in
    let acc =
      List.fold_left
        (fun acc (_, t) -> count acc (Ast.term_vars [] t))
        acc b.Ast.collect
    in
    List.fold_left go acc b.Ast.nested
  in
  go 0 b

(* Delta-evaluability of one top-level block (SA070): the classifier
   the differential engine runs at prime time ({!Struql.Plan.delta_class}),
   planned against [data] when the lint has it, else an empty graph
   (classification depends on plan shape, not contents). *)
let delta_top_class ~registry ~data (b : Ast.block) : Struql.Plan.delta_class
    =
  let g =
    match data with Some g -> g | None -> Graph.create ~name:"lint" ()
  in
  let plan ~bound (blk : Ast.block) =
    let needed_obj, needed_label = Struql.Eval.construction_needs blk in
    Struql.Plan.plan ~registry g ~bound ~needed_obj ~needed_label
      blk.Ast.where
  in
  Struql.Plan.delta_class ~pure:Struql.Builtins.pure_extern ~plan b

let run (spec : spec) : Diagnostic.t list =
  let diags = ref [] in
  let add_ ?span ?related code sev msg =
    diags := Diagnostic.make ?span ?related ~code sev msg :: !diags
  in

  (* --- plumbing: parse queries (SA001) --- *)
  let parsed =
    List.filter_map
      (fun (qname, src) ->
        match P.parse_located ~registry:spec.registry src with
        | ast, spans -> Some { qname; ast; spans }
        | exception P.Parse_error (msg, line, col) ->
          let span =
            {
              Diagnostic.file = qname;
              l1 = line;
              c1 = col;
              l2 = line;
              c2 = (if col > 0 then col + 1 else col);
            }
          in
          add_ ~span "SA001" Diagnostic.Error ("query does not parse: " ^ msg);
          None)
      spec.queries
  in

  (* --- plumbing: scope/safety checks (SA002, SA003) --- *)
  List.iter
    (fun pq ->
      let r = Struql.Check.check_located ~spans:pq.spans pq.ast in
      List.iter
        (fun (p, sp) ->
          add_ ?span:(ospan pq.qname sp) "SA002" Diagnostic.Error
            (Fmt.str "%a" Struql.Check.pp_problem p))
        r.Struql.Check.l_errors;
      List.iter
        (fun (p, sp) ->
          add_ ?span:(ospan pq.qname sp) "SA003" Diagnostic.Warning
            (Fmt.str "%a" Struql.Check.pp_problem p))
        r.Struql.Check.l_warnings)
    parsed;

  (* --- plumbing: mediator source declarations (SA005) --- *)
  List.iter
    (fun m ->
      if m <> "*" && not (List.mem m spec.declared_sources) then
        add_ "SA005" Diagnostic.Error
          (Printf.sprintf
             "mediator mapping reads source '%s', which is not declared \
              (declared: %s)"
             m
             (String.concat ", " spec.declared_sources)))
    (List.sort_uniq String.compare spec.mapping_sources);

  (* flattened views of the parsed queries, with spans *)
  let all_conds = ref [] in
  let all_links = ref [] in
  let all_creates = ref [] in
  let all_collects = ref [] in
  List.iter
    (fun pq ->
      iter_blocks
        (fun qn b sb ->
          List.iter
            (fun (c, sp) -> all_conds := (qn, c, sp) :: !all_conds)
            (zip_opt b.Ast.where (where_sp sb));
          List.iter
            (fun (l, sp) -> all_links := (qn, l, sp) :: !all_links)
            (zip_opt b.Ast.link (link_sp sb));
          List.iter
            (fun (k, sp) -> all_creates := (qn, k, sp) :: !all_creates)
            (zip_opt b.Ast.create (create_sp sb));
          List.iter
            (fun (c, sp) -> all_collects := (qn, c, sp) :: !all_collects)
            (zip_opt b.Ast.collect (collect_sp sb)))
        pq)
    parsed;
  let all_conds = List.rev !all_conds in
  let all_links = List.rev !all_links in
  let all_creates = List.rev !all_creates in
  let all_collects = List.rev !all_collects in

  (* --- family 5: delta evaluability (SA070) ---
     [strudel watch] maintains the site differentially only for blocks
     whose re-derivation a data delta can drive; a block that falls
     back (aggregates, negation, enumerators, opaque externs,
     constant-anchored reads) replays in full each cycle.  The lint
     surfaces the same classification the engine computes at prime
     time, with the reason. *)
  List.iter
    (fun pq ->
      List.iteri
        (fun i (b, sb) ->
          match
            try
              Some
                (delta_top_class ~registry:spec.registry ~data:spec.data b)
            with _ -> None (* unplannable block: reported as SA002 *)
          with
          | None | Some (Struql.Plan.D_static | Struql.Plan.D_driven _) -> ()
          | Some (Struql.Plan.D_fallback why) ->
            let sp =
              Option.bind sb (fun s ->
                  match s.P.s_where with sp :: _ -> Some sp | [] -> None)
            in
            add_
              ?span:(ospan pq.qname sp)
              "SA070" Diagnostic.Info
              (Printf.sprintf
                 "block %d cannot be delta-evaluated (%s): strudel watch \
                  re-evaluates it in full each cycle"
                 (i + 1) why))
        (zip_opt pq.ast.Ast.blocks (Some pq.spans)))
    parsed;

  (* --- family 1: path emptiness against the data (SA010–SA013) --- *)
  (match spec.data with
   | None -> ()
   | Some g ->
     List.iter
       (fun (qn, c, sp) ->
         match c with
         | Ast.C_edge (_, Ast.L_const l, _) when Graph.label_count g l = 0 ->
           add_ ?span:(ospan qn sp) "SA011" Diagnostic.Warning
             (Printf.sprintf "edge label \"%s\" never occurs in the data" l)
         | _ -> ())
       all_conds;
     List.iter
       (fun (qn, c, sp) ->
         match c with
         | Ast.C_atom (name, _)
           when not (Struql.Builtins.is_extern spec.registry name) ->
           if not (List.mem name (Graph.collections g)) then
             add_ ?span:(ospan qn sp) "SA012" Diagnostic.Warning
               (Printf.sprintf
                  "WHERE atom %s(...) names a collection absent from the data"
                  name)
           else if Graph.collection_size g name = 0 then
             add_ ?span:(ospan qn sp) "SA012" Diagnostic.Warning
               (Printf.sprintf
                  "WHERE atom %s(...) names an empty collection" name)
         | _ -> ())
       all_conds;
     let paths =
       List.filter_map
         (fun (qn, c, sp) ->
           match c with
           | Ast.C_path (_, r, _) -> Some (qn, r, sp)
           | _ -> None)
         all_conds
     in
     if paths <> [] then (
       match
         Schema.Dataguide.of_graph ~roots:(Graph.nodes g)
           ~max_states:spec.max_guide_states g
       with
       | guide ->
         List.iter
           (fun (qn, r, sp) ->
             if not (Schema.Dataguide.intersect_nonempty guide r) then
               add_ ?span:(ospan qn sp) "SA010" Diagnostic.Error
                 (Fmt.str
                    "path expression %a can never match the data \
                     (empty NFA-DataGuide product)"
                    Path.pp r))
           paths
       | exception Schema.Dataguide.Too_large n ->
         add_ "SA013" Diagnostic.Info
           (Printf.sprintf
              "path emptiness analysis skipped: DataGuide exceeds %d states"
              n)));

  (* --- family 2: dead and unused specification (SA020–SA024) --- *)
  List.iter
    (fun pq ->
      let qn = pq.qname in
      (* [outer] = variables bound by enclosing blocks: a nested
         condition like [l = "year"] filters such a variable rather
         than binding a fresh one, so it is not a SA020 candidate. *)
      let rec go outer (b : Ast.block) (sb : P.block_spans option) =
        (* SA020: bound exactly once, never used again in the subtree *)
        let wsp = zip_opt b.Ast.where (where_sp sb) in
        let bound =
          Ast.dedup (List.fold_left Ast.positive_vars [] b.Ast.where)
        in
        List.iter
          (fun v ->
            if
              String.length v > 0
              && v.[0] <> '_'
              && (not (List.mem v outer))
              && occurrences v b = 1
            then begin
              let sp =
                List.find_map
                  (fun (c, sp) ->
                    if List.mem v (Ast.condition_vars [] c) then sp else None)
                  wsp
              in
              add_
                ?span:(Option.map (dspan qn) sp)
                "SA020" Diagnostic.Warning
                (Printf.sprintf "variable %s is bound but never used" v)
            end)
          bound;
        (* SA023: duplicate link clauses within one block *)
        let seen = ref [] in
        List.iter
          (fun (lc, sp) ->
            if List.mem lc !seen then
              add_ ?span:(ospan qn sp) "SA023" Diagnostic.Warning
                (Fmt.str "duplicate link clause %a" Struql.Pretty.pp_link lc)
            else seen := lc :: !seen)
          (zip_opt b.Ast.link (link_sp sb));
        let outer = bound @ outer in
        let nsps = Option.map (fun s -> s.P.s_nested) sb in
        List.iter
          (fun (nb, nsb) -> go outer nb nsb)
          (zip_opt b.Ast.nested nsps)
      in
      List.iter
        (fun (b, sb) -> go [] b sb)
        (zip_opt pq.ast.Ast.blocks (Some pq.spans)))
    parsed;

  (* SA021: collected but untemplated and never queried *)
  let templated =
    List.map fst spec.templates.Template.Generator.by_collection
  in
  let referenced =
    List.fold_left (fun acc (_, c, _) -> atom_names acc c) [] all_conds
  in
  let seen_coll = ref [] in
  List.iter
    (fun (qn, (cname, _), sp) ->
      if not (List.mem cname !seen_coll) then begin
        seen_coll := cname :: !seen_coll;
        if
          (not (List.mem cname templated))
          && not (List.mem cname referenced)
        then
          add_ ?span:(ospan qn sp) "SA021" Diagnostic.Warning
            (Printf.sprintf
               "collection %s is collected but never used (no template is \
                bound to it and no query reads it)"
               cname)
      end)
    all_collects;

  (* the merged site schema of all queries (SA022, SA024, SA030/31,
     and the template analyses below) *)
  let schemas =
    List.filter_map
      (fun pq ->
        match SS.of_query pq.ast with
        | s -> Some (pq.qname, s)
        | exception SS.Schema_error _ -> None (* reported as SA002 *))
      parsed
  in
  let merged = SS.union_all schemas in
  let created =
    List.sort_uniq String.compare
      (List.map (fun k -> k.SS.k_fn) merged.SS.creates)
  in

  (* SA024: the root family must exist *)
  if parsed <> [] && not (List.mem spec.root_family created) then
    add_ "SA024" Diagnostic.Error
      (Printf.sprintf "root family %s is never created by any query"
         spec.root_family);

  (* SA022: families with no path from the root *)
  let reachable =
    List.filter_map
      (function SS.NF f -> Some f | SS.NS -> None)
      (SS.reachable_from merged (SS.NF spec.root_family))
  in
  List.iter
    (fun f ->
      if f <> spec.root_family && not (List.mem f reachable) then begin
        let sp =
          List.find_map
            (fun (qn, (g, _), sp) -> if g = f then Some (qn, sp) else None)
            all_creates
        in
        let span =
          match sp with
          | Some (qn, sp) -> ospan qn sp
          | None -> None
        in
        add_ ?span "SA022" Diagnostic.Warning
          (Printf.sprintf
             "family %s is unreachable from root family %s: its pages are \
              never linked"
             f spec.root_family)
      end)
    created;

  (* --- family 3: schema-level constraint verification (SA030/31) --- *)
  if parsed <> [] then
    List.iter
      (fun (c, v) ->
        match v with
        | Schema.Verify.Holds -> ()
        | Schema.Verify.Violated ws ->
          add_ ~related:ws
            ~span:(file_only (spec.name ^ ":constraints"))
            "SA030" Diagnostic.Error
            (Fmt.str "constraint %a is violated by the site schema"
               Schema.Verify.pp_constraint c)
        | Schema.Verify.Unknown reason ->
          add_ ~related:[ reason ]
            ~span:(file_only (spec.name ^ ":constraints"))
            "SA031" Diagnostic.Info
            (Fmt.str "constraint %a cannot be decided statically"
               Schema.Verify.pp_constraint c))
      (Schema.Verify.check_all_schema merged spec.constraints);

  (* --- family 4: template lint (SA004, SA040–SA043) --- *)
  let ts = spec.templates in
  let tfile kind name = Printf.sprintf "template:%s:%s" kind name in
  let parse_template kind name text =
    match Template.Tparse.parse text with
    | ast -> Some ast
    | exception Template.Tparse.Template_error msg ->
      add_
        ~span:(file_only (tfile kind name))
        "SA004" Diagnostic.Error
        ("template does not parse: " ^ msg);
      None
  in
  let t_collection =
    List.filter_map
      (fun (k, txt) ->
        Option.map
          (fun a -> (k, txt, a))
          (parse_template "collection" k txt))
      ts.Template.Generator.by_collection
  in
  let t_named =
    List.filter_map
      (fun (k, txt) ->
        Option.map (fun a -> (k, txt, a)) (parse_template "named" k txt))
      ts.Template.Generator.named
  in
  let t_object =
    List.filter_map
      (fun (k, txt) ->
        Option.map (fun a -> (k, txt, a)) (parse_template "object" k txt))
      ts.Template.Generator.by_object
  in

  let collected_names =
    List.sort_uniq String.compare
      (List.map (fun (_, (c, _), _) -> c) all_collects)
  in

  (* SA040: collection templates for never-collected collections *)
  if parsed <> [] then
    List.iter
      (fun (c, _, _) ->
        if not (List.mem c collected_names) then
          add_
            ~span:(file_only (tfile "collection" c))
            "SA040" Diagnostic.Error
            (Printf.sprintf
               "template is bound to collection %s, which no query collects"
               c))
      t_collection;

  (* constant HTML-template links: family -> named-template name *)
  let const_template_links =
    List.filter_map
      (fun (qn, (x, l, y), sp) ->
        match (x, l, y) with
        | ( Ast.T_skolem (f, _),
            Ast.L_const "HTML-template",
            Ast.T_const (Value.String s) ) ->
          Some (qn, f, s, sp)
        | _ -> None)
      all_links
  in
  let named_names = List.map (fun (k, _, _) -> k) t_named in

  (* SA042: broken template references *)
  List.iter
    (fun (qn, f, s, sp) ->
      if not (List.mem s named_names) then
        add_ ?span:(ospan qn sp) "SA042" Diagnostic.Error
          (Printf.sprintf
             "family %s selects HTML-template \"%s\", but no such named \
              template exists"
             f s))
    const_template_links;
  if parsed <> [] then
    List.iter
      (fun (k, _, _) ->
        match String.index_opt k '(' with
        | Some i ->
          let f = String.sub k 0 i in
          if not (List.mem f created) then
            add_
              ~span:(file_only (tfile "object" k))
              "SA042" Diagnostic.Error
              (Printf.sprintf
                 "object template is bound to %s, but family %s is never \
                  created"
                 k f)
        | None -> (
          match spec.data with
          | Some g when Graph.find_node g k = None ->
            add_
              ~span:(file_only (tfile "object" k))
              "SA042" Diagnostic.Error
              (Printf.sprintf
                 "object template is bound to %s, which names no data object"
                 k)
          | _ -> ()))
      t_object;

  (* SA043: named templates no constant link ever selects *)
  List.iter
    (fun (k, _, _) ->
      if
        not
          (List.exists (fun (_, _, s, _) -> s = k) const_template_links)
      then
        add_
          ~span:(file_only (tfile "named" k))
          "SA043" Diagnostic.Info
          (Printf.sprintf
             "named template \"%s\" is never selected by a constant \
              HTML-template link (the data may still select it)"
             k))
    t_named;

  (* SA041: attribute references no page of the family can carry.
     A family's pages only get the edges the queries link from it, so
     the schema lists their possible attributes exactly — unless some
     edge has a variable label (then anything is possible: skip). *)
  let edges = SS.edges merged in
  let family_attrs f =
    let mine =
      List.filter (fun e -> SS.node_equal e.SS.src (SS.NF f)) edges
    in
    if
      List.exists
        (fun e -> match e.SS.label with Ast.L_var _ -> true | _ -> false)
        mine
    then None
    else
      Some
        (List.filter_map
           (fun e ->
             match e.SS.label with
             | Ast.L_const l -> Some l
             | Ast.L_var _ -> None)
           mine)
  in
  let collect_families c =
    let infos = List.filter (fun ci -> ci.SS.c_name = c) merged.SS.collects in
    let fams =
      List.map
        (fun ci ->
          match ci.SS.c_term with
          | Ast.T_skolem (f, _) -> Some f
          | _ -> None)
        infos
    in
    if infos = [] || List.exists Option.is_none fams then None
    else Some (List.sort_uniq String.compare (List.filter_map Fun.id fams))
  in
  let attrs_of_families fams =
    List.fold_left
      (fun acc f ->
        match (acc, family_attrs f) with
        | None, _ | _, None -> None
        | Some acc, Some attrs -> Some (attrs @ acc))
      (Some []) fams
  in
  let lint_template_attrs file text ast fams =
    match attrs_of_families fams with
    | None -> () (* a variable-labelled edge: any attribute possible *)
    | Some attrs ->
      let warned = ref [] in
      let check scope ae =
        match ae with
        | [] -> ()
        | head :: _ ->
          if
            (not (List.mem head scope))
            && (not (List.mem head attrs))
            && not (List.mem head !warned)
          then begin
            warned := head :: !warned;
            let needle = "@" ^ String.concat "." ae in
            add_
              ~span:(find_span file text needle)
              "SA041" Diagnostic.Warning
              (Printf.sprintf
                 "no page of family %s can carry attribute %s (families'  \
                  possible attributes: %s)"
                 (String.concat "/" fams)
                 head
                 (match List.sort_uniq String.compare attrs with
                  | [] -> "none"
                  | l -> String.concat ", " l))
          end
      in
      let check_dirs scope (d : Template.Tast.directives) =
        match d.Template.Tast.format with
        | Template.Tast.F_link (Some (Template.Tast.Tag_attr ae)) ->
          check scope ae
        | Template.Tast.F_link (Some (Template.Tast.Tag_string _)) -> ()
        | Template.Tast.F_link None -> ()
        | Template.Tast.F_default | Template.Tast.F_embed -> ()
      in
      let rec walk scope nodes = List.iter (walk_node scope) nodes
      and walk_node scope = function
        | Template.Tast.Text _ -> ()
        | Template.Tast.Fmt (ae, d) | Template.Tast.Fmt_list (ae, d) ->
          check scope ae;
          check_dirs scope d
        | Template.Tast.If (_, a, b) ->
          walk scope a;
          walk scope b
        | Template.Tast.For (v, ae, d, body) ->
          check scope ae;
          check_dirs scope d;
          walk (v :: scope) body
      in
      walk [] ast
  in
  if parsed <> [] then begin
    List.iter
      (fun (c, txt, ast) ->
        match collect_families c with
        | Some (_ :: _ as fams) ->
          lint_template_attrs (tfile "collection" c) txt ast fams
        | Some [] | None -> ())
      t_collection;
    List.iter
      (fun (k, txt, ast) ->
        let fams =
          List.sort_uniq String.compare
            (List.filter_map
               (fun (_, f, s, _) -> if s = k then Some f else None)
               const_template_links)
        in
        if fams <> [] then
          lint_template_attrs (tfile "named" k) txt ast fams)
      t_named;
    List.iter
      (fun (k, txt, ast) ->
        match String.index_opt k '(' with
        | Some i ->
          let f = String.sub k 0 i in
          if List.mem f created then
            lint_template_attrs (tfile "object" k) txt ast [ f ]
        | None -> ())
      t_object
  end;

  List.sort Diagnostic.compare (List.rev !diags)
