(** Recursive-descent parser for StruQL's concrete syntax.

    The syntax follows the paper (keywords are case-insensitive):

    {v
    INPUT BIBTEX
    { CREATE RootPage(), AbstractsPage()
      LINK RootPage() -> "AbstractsPage" -> AbstractsPage() }
    { WHERE Publications(x), x -> l -> v
      CREATE PaperPresentation(x), AbstractPage(x)
      LINK AbstractPage(x) -> l -> v
      { WHERE l = "year"
        CREATE YearPage(v)
        LINK YearPage(v) -> "Paper" -> PaperPresentation(x) }
    }
    OUTPUT HomePage
    v}

    Braces delimit blocks; a nested block's WHERE conjoins with its
    ancestors'.  Top-level clauses outside any brace form one implicit
    block (clauses of one block may be intermixed; the meaning is that
    of the query with all clauses joined).  Conditions are separated by
    [,] or [;].  Single-edge conditions write [x -> l -> y] (an ident
    hop is an arc variable, a string hop a literal label); anything
    richer — [*], concatenation [.], alternation [|], postfix [* + ?],
    label predicates, [true] — is a regular path expression.  [x in
    {"a", "b"}] abbreviates a disjunction of equalities. *)

open Sgraph

exception Parse_error of string * int * int  (** message, line, column *)

type span = { sl : int; sc : int; el : int; ec : int }

type block_spans = {
  s_where : span list;
  s_create : span list;
  s_link : span list;
  s_collect : span list;
  s_nested : block_spans list;
}

type query_spans = block_spans list

let empty_block_spans =
  { s_where = []; s_create = []; s_link = []; s_collect = []; s_nested = [] }

let puncts =
  [ "->"; "{"; "}"; "("; ")"; ","; ";"; "."; "|"; "*"; "+"; "?";
    "!="; "<="; ">="; "<"; ">"; "=" ]

let keywords =
  [ "input"; "output"; "where"; "create"; "link"; "collect"; "in"; "not" ]

let is_keyword s = List.mem (String.lowercase_ascii s) keywords

type state = { st : Lex.Stream.t; reg : Builtins.registry }

(* End of a clause item list: a clause keyword, brace, or EOF ("not"
   and "in" are keywords but start/continue conditions, not clauses). *)
let clause_keywords = [ "input"; "output"; "where"; "create"; "link"; "collect" ]

let at_list_end p =
  match Lex.Stream.peek p.st with
  | Lex.Eof | Lex.Punct "{" | Lex.Punct "}" -> true
  | Lex.Ident s -> List.mem (String.lowercase_ascii s) clause_keywords
  | _ -> false

let accept_separator p =
  Lex.Stream.accept_punct p.st "," || Lex.Stream.accept_punct p.st ";"

(* --- Terms --- *)

let parse_literal p =
  let at = Lex.Stream.pos p.st in
  match Lex.Stream.advance p.st with
  | Lex.Str s -> Value.String s
  | Lex.Int_lit i -> Value.Int i
  | Lex.Float_lit f -> Value.Float f
  | Lex.Ident "true" -> Value.Bool true
  | Lex.Ident "false" -> Value.Bool false
  | Lex.Ident "null" -> Value.Null
  | tok ->
    Lex.Stream.error_at at
      (Fmt.str "expected a literal, found %a" Lex.pp_token tok)

(* A term in a WHERE condition: a variable or a constant. *)
let parse_where_term p =
  match Lex.Stream.peek p.st with
  | Lex.Ident s when not (is_keyword s) && s <> "true" && s <> "false"
                     && s <> "null" ->
    ignore (Lex.Stream.advance p.st);
    Ast.T_var s
  | _ -> Ast.T_const (parse_literal p)

(* A term in a construction clause: Skolem term, aggregate, variable or
   constant.  An all-lowercase aggregate name (count/sum/min/max/avg)
   applied to one argument is an aggregate; Skolem functions are
   conventionally capitalized. *)
let rec parse_cons_term p =
  let at = Lex.Stream.pos p.st in
  match Lex.Stream.peek p.st, Lex.Stream.peek2 p.st with
  | Lex.Ident s, Lex.Punct "(" when not (is_keyword s) -> (
    ignore (Lex.Stream.advance p.st);
    Lex.Stream.eat_punct p.st "(";
    let args = ref [] in
    if not (Lex.Stream.accept_punct p.st ")") then begin
      args := [ parse_cons_term p ];
      while Lex.Stream.accept_punct p.st "," do
        args := parse_cons_term p :: !args
      done;
      Lex.Stream.eat_punct p.st ")"
    end;
    match Ast.agg_of_name s, List.rev !args with
    | Some fn, [ inner ] -> Ast.T_agg (fn, inner)
    | Some _, args ->
      Lex.Stream.error_at at
        (Fmt.str "aggregate %s expects exactly one argument, got %d" s
           (List.length args))
    | None, args -> Ast.T_skolem (s, args))
  | Lex.Ident s, _ when not (is_keyword s) && s <> "true" && s <> "false"
                        && s <> "null" ->
    ignore (Lex.Stream.advance p.st);
    Ast.T_var s
  | _ -> Ast.T_const (parse_literal p)

(* --- Regular path expressions --- *)

(* [at] is where [name] starts. *)
let label_pred p ~at name =
  if name = "true" then Path.Any
  else
    match Builtins.find_label_pred p.reg name with
    | Some f -> Path.Named_pred (name, f)
    | None ->
      Lex.Stream.error_at at
        (Fmt.str "unknown label predicate '%s' in path expression" name)

let rec parse_rpe p = parse_alt p

and parse_alt p =
  let left = parse_seq p in
  if Lex.Stream.accept_punct p.st "|" then Path.Alt (left, parse_alt p)
  else left

and parse_seq p =
  let left = parse_postfix p in
  if Lex.Stream.accept_punct p.st "." then Path.Seq (left, parse_seq p)
  else left

and parse_postfix p =
  let atom = parse_atom p in
  let rec post acc =
    if Lex.Stream.accept_punct p.st "*" then post (Path.Star acc)
    else if Lex.Stream.accept_punct p.st "+" then post (Path.Plus acc)
    else if Lex.Stream.accept_punct p.st "?" then post (Path.Opt acc)
    else acc
  in
  post atom

and parse_atom p =
  let at = Lex.Stream.pos p.st in
  match Lex.Stream.advance p.st with
  | Lex.Str s -> Path.Edge (Path.Label s)
  | Lex.Punct "*" -> Path.any_path
  | Lex.Punct "(" ->
    let r = parse_rpe p in
    Lex.Stream.eat_punct p.st ")";
    r
  | Lex.Ident s -> Path.Edge (label_pred p ~at s)
  | tok ->
    Lex.Stream.error_at at
      (Fmt.str "expected a path expression, found %a" Lex.pp_token tok)

(* A hop between two '->' arrows.  A bare ident is an arc variable;
   [true], a string followed by path operators, '*', or '(' start a
   regular path expression. *)
type hop = H_label of Ast.label_term | H_rpe of Path.t

let rpe_continues p =
  match Lex.Stream.peek p.st with
  | Lex.Punct ("." | "|" | "*" | "+" | "?") -> true
  | _ -> false

let rec parse_hop p =
  let at = Lex.Stream.pos p.st in
  match Lex.Stream.peek p.st with
  | Lex.Ident "true" ->
    ignore (Lex.Stream.advance p.st);
    if rpe_continues p then
      H_rpe (parse_rest_of_rpe p (Path.Edge Path.Any))
    else H_rpe (Path.Edge Path.Any)
  | Lex.Ident s when not (is_keyword s) ->
    if Builtins.find_label_pred p.reg s <> None then begin
      ignore (Lex.Stream.advance p.st);
      let atom = Path.Edge (label_pred p ~at s) in
      if rpe_continues p then H_rpe (parse_rest_of_rpe p atom)
      else H_rpe atom
    end
    else begin
      ignore (Lex.Stream.advance p.st);
      if rpe_continues p then
        Lex.Stream.error_at at
          (Fmt.str
             "'%s' is not a registered label predicate; only predicates, \
              strings, 'true', '*' and parentheses may appear in path \
              expressions" s)
      else H_label (Ast.L_var s)
    end
  | Lex.Str s ->
    ignore (Lex.Stream.advance p.st);
    if rpe_continues p then
      H_rpe (parse_rest_of_rpe p (Path.Edge (Path.Label s)))
    else H_label (Ast.L_const s)
  | Lex.Punct ("*" | "(") -> H_rpe (parse_rpe p)
  | tok ->
    Lex.Stream.error p.st
      (Fmt.str "expected an edge label or path expression, found %a"
         Lex.pp_token tok)

(* Continue an RPE whose first atom has been consumed. *)
and parse_rest_of_rpe p atom =
  let rec post acc =
    if Lex.Stream.accept_punct p.st "*" then post (Path.Star acc)
    else if Lex.Stream.accept_punct p.st "+" then post (Path.Plus acc)
    else if Lex.Stream.accept_punct p.st "?" then post (Path.Opt acc)
    else acc
  in
  let left = post atom in
  let left =
    if Lex.Stream.accept_punct p.st "." then Path.Seq (left, parse_seq p)
    else left
  in
  if Lex.Stream.accept_punct p.st "|" then Path.Alt (left, parse_alt p)
  else left

(* --- Conditions --- *)

let parse_cmp_op p =
  let at = Lex.Stream.pos p.st in
  match Lex.Stream.advance p.st with
  | Lex.Punct "=" -> Ast.Eq
  | Lex.Punct "!=" -> Ast.Ne
  | Lex.Punct "<" -> Ast.Lt
  | Lex.Punct "<=" -> Ast.Le
  | Lex.Punct ">" -> Ast.Gt
  | Lex.Punct ">=" -> Ast.Ge
  | tok ->
    Lex.Stream.error_at at
      (Fmt.str "expected a comparison operator, found %a" Lex.pp_token tok)

let rec parse_condition p acc =
  (* appends one or more conditions (a chain yields several) to acc *)
  let at = Lex.Stream.pos p.st in
  match Lex.Stream.peek p.st, Lex.Stream.peek2 p.st with
  | Lex.Ident s, _ when String.lowercase_ascii s = "not" ->
    ignore (Lex.Stream.advance p.st);
    Lex.Stream.eat_punct p.st "(";
    let inner = parse_condition p [] in
    Lex.Stream.eat_punct p.st ")";
    (match inner with
     | [ c ] -> Ast.C_not c :: acc
     | _ ->
       (* negation of a conjunction is not in the core language *)
       Lex.Stream.error_at at "not(...) must contain a single condition")
  | Lex.Ident s, Lex.Punct "(" when not (is_keyword s) ->
    (* atom: collection membership or external predicate *)
    ignore (Lex.Stream.advance p.st);
    Lex.Stream.eat_punct p.st "(";
    let args = ref [] in
    if not (Lex.Stream.accept_punct p.st ")") then begin
      args := [ parse_where_term p ];
      while Lex.Stream.accept_punct p.st "," do
        args := parse_where_term p :: !args
      done;
      Lex.Stream.eat_punct p.st ")"
    end;
    Ast.C_atom (s, List.rev !args) :: acc
  | _ ->
    let t = parse_where_term p in
    (match Lex.Stream.peek p.st with
     | Lex.Punct "->" -> parse_chain p t acc
     | Lex.Punct ("=" | "!=" | "<" | "<=" | ">" | ">=") ->
       let op = parse_cmp_op p in
       let t2 = parse_where_term p in
       Ast.C_cmp (op, t, t2) :: acc
     | Lex.Ident s when String.lowercase_ascii s = "in" ->
       ignore (Lex.Stream.advance p.st);
       Lex.Stream.eat_punct p.st "{";
       let vs = ref [ parse_literal p ] in
       while Lex.Stream.accept_punct p.st "," do
         vs := parse_literal p :: !vs
       done;
       Lex.Stream.eat_punct p.st "}";
       Ast.C_in (t, List.rev !vs) :: acc
     | tok ->
       Lex.Stream.error p.st
         (Fmt.str "expected '->', a comparison, or 'in' after a term, \
                   found %a" Lex.pp_token tok))

and parse_chain p src acc =
  (* src '->' hop '->' tgt ('->' hop '->' tgt)* *)
  Lex.Stream.eat_punct p.st "->";
  let hop = parse_hop p in
  Lex.Stream.eat_punct p.st "->";
  let tgt = parse_where_term p in
  let cond =
    match hop with
    | H_label l -> Ast.C_edge (src, l, tgt)
    | H_rpe r -> Ast.C_path (src, r, tgt)
  in
  let acc = cond :: acc in
  match Lex.Stream.peek p.st with
  | Lex.Punct "->" -> parse_chain p tgt acc
  | _ -> acc

(* Close a span opened at [start]: it ends just past the last consumed
   token (collapsing to the start position if nothing was consumed). *)
let finish_span p ((sl, sc) as _start) =
  match Lex.Stream.last_end p.st with
  | 0, _ -> { sl; sc; el = sl; ec = sc }
  | el, ec -> { sl; sc; el; ec }

let parse_condition_list p =
  let acc = ref [] in
  let sps = ref [] in
  let continue = ref true in
  while !continue do
    let start = Lex.Stream.pos p.st in
    let before = List.length !acc in
    acc := parse_condition p !acc;
    (* one source chain may yield several conditions; they share its span *)
    let sp = finish_span p start in
    for _ = 1 to List.length !acc - before do
      sps := sp :: !sps
    done;
    if not (accept_separator p) then continue := false
    else if at_list_end p then continue := false
  done;
  (List.rev !acc, List.rev !sps)

(* --- Construction clauses --- *)

let parse_create_item p =
  let at = Lex.Stream.pos p.st in
  match parse_cons_term p with
  | Ast.T_skolem (f, args) -> (f, args)
  | _ -> Lex.Stream.error_at at "CREATE expects Skolem terms like F(x)"

let parse_link_item p =
  let src = parse_cons_term p in
  Lex.Stream.eat_punct p.st "->";
  let label =
    match Lex.Stream.peek p.st with
    | Lex.Str s ->
      ignore (Lex.Stream.advance p.st);
      Ast.L_const s
    | Lex.Ident s when not (is_keyword s) ->
      ignore (Lex.Stream.advance p.st);
      Ast.L_var s
    | tok ->
      Lex.Stream.error p.st
        (Fmt.str "expected a label or arc variable in LINK, found %a"
           Lex.pp_token tok)
  in
  Lex.Stream.eat_punct p.st "->";
  let tgt = parse_cons_term p in
  (src, label, tgt)

let parse_collect_item p =
  match Lex.Stream.peek p.st, Lex.Stream.peek2 p.st with
  | Lex.Ident c, Lex.Punct "(" when not (is_keyword c) ->
    ignore (Lex.Stream.advance p.st);
    Lex.Stream.eat_punct p.st "(";
    let t = parse_cons_term p in
    Lex.Stream.eat_punct p.st ")";
    (c, t)
  | tok, _ ->
    Lex.Stream.error p.st
      (Fmt.str "COLLECT expects Collection(term), found %a" Lex.pp_token tok)

let parse_item_list p parse_item =
  let one () =
    let start = Lex.Stream.pos p.st in
    let it = parse_item p in
    (it, finish_span p start)
  in
  let acc = ref [ one () ] in
  let continue = ref true in
  while !continue do
    if not (accept_separator p) then continue := false
    else if at_list_end p then continue := false
    else acc := one () :: !acc
  done;
  List.split (List.rev !acc)

(* --- Blocks --- *)

let rec parse_block_items p (blk, sb) =
  match Lex.Stream.peek p.st with
  | Lex.Ident s when String.lowercase_ascii s = "where" ->
    ignore (Lex.Stream.advance p.st);
    let conds, sps = parse_condition_list p in
    parse_block_items p
      ( { blk with Ast.where = blk.Ast.where @ conds },
        { sb with s_where = sb.s_where @ sps } )
  | Lex.Ident s when String.lowercase_ascii s = "create" ->
    ignore (Lex.Stream.advance p.st);
    let items, sps = parse_item_list p parse_create_item in
    parse_block_items p
      ( { blk with Ast.create = blk.Ast.create @ items },
        { sb with s_create = sb.s_create @ sps } )
  | Lex.Ident s when String.lowercase_ascii s = "link" ->
    ignore (Lex.Stream.advance p.st);
    let items, sps = parse_item_list p parse_link_item in
    parse_block_items p
      ( { blk with Ast.link = blk.Ast.link @ items },
        { sb with s_link = sb.s_link @ sps } )
  | Lex.Ident s when String.lowercase_ascii s = "collect" ->
    ignore (Lex.Stream.advance p.st);
    let items, sps = parse_item_list p parse_collect_item in
    parse_block_items p
      ( { blk with Ast.collect = blk.Ast.collect @ items },
        { sb with s_collect = sb.s_collect @ sps } )
  | Lex.Punct "{" ->
    ignore (Lex.Stream.advance p.st);
    let nested, snested = parse_block_items p (Ast.empty_block, empty_block_spans) in
    Lex.Stream.eat_punct p.st "}";
    parse_block_items p
      ( { blk with Ast.nested = blk.Ast.nested @ [ nested ] },
        { sb with s_nested = sb.s_nested @ [ snested ] } )
  | _ -> (blk, sb)

let block_is_empty (b : Ast.block) =
  b.where = [] && b.create = [] && b.link = [] && b.collect = []
  && b.nested = []

let parse_query p =
  let input =
    if Lex.Stream.accept_ident p.st "input" then begin
      let acc = ref [ Lex.Stream.expect_ident p.st ] in
      while Lex.Stream.accept_punct p.st "," do
        acc := Lex.Stream.expect_ident p.st :: !acc
      done;
      List.rev !acc
    end
    else [ "input" ]
  in
  (* top level: braced blocks are siblings; unbraced clauses form one
     implicit block *)
  let blocks = ref [] in
  let implicit = ref (Ast.empty_block, empty_block_spans) in
  let continue = ref true in
  while !continue do
    match Lex.Stream.peek p.st with
    | Lex.Punct "{" ->
      ignore (Lex.Stream.advance p.st);
      let b = parse_block_items p (Ast.empty_block, empty_block_spans) in
      Lex.Stream.eat_punct p.st "}";
      blocks := b :: !blocks
    | Lex.Ident s
      when List.mem (String.lowercase_ascii s)
             [ "where"; "create"; "link"; "collect" ] ->
      implicit := parse_block_items p !implicit
    | _ -> continue := false
  done;
  if not (block_is_empty (fst !implicit)) then blocks := !implicit :: !blocks;
  let output =
    if Lex.Stream.accept_ident p.st "output" then Lex.Stream.expect_ident p.st
    else "output"
  in
  if not (Lex.Stream.at_eof p.st) then
    Lex.Stream.error p.st
      (Fmt.str "unexpected %a after end of query" Lex.pp_token
         (Lex.Stream.peek p.st));
  let bs, sps = List.split (List.rev !blocks) in
  ({ Ast.input; blocks = bs; output }, sps)

let parse_located ?(registry = Builtins.default) src =
  let toks =
    try Lex.tokenize ~puncts src
    with Lex.Lex_error (msg, line) -> raise (Parse_error (msg, line, 0))
  in
  let p = { st = Lex.Stream.of_tokens toks; reg = registry } in
  try parse_query p
  with Lex.Stream.Parse_error (msg, line, col) ->
    raise (Parse_error (msg, line, col))

let parse ?registry src = fst (parse_located ?registry src)

let parse_conditions ?(registry = Builtins.default) src =
  let toks =
    try Lex.tokenize ~puncts src
    with Lex.Lex_error (msg, line) -> raise (Parse_error (msg, line, 0))
  in
  let p = { st = Lex.Stream.of_tokens toks; reg = registry } in
  try
    let conds, _sps = parse_condition_list p in
    if not (Lex.Stream.at_eof p.st) then
      Lex.Stream.error p.st "trailing input after conditions";
    conds
  with Lex.Stream.Parse_error (msg, line, col) ->
    raise (Parse_error (msg, line, col))
