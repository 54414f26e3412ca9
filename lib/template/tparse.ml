(** Parser for the HTML-template language.

    Plain HTML passes through verbatim; the parser recognizes the
    [<SFMT ...>], [<SFMTLIST ...>], [<SIF ...> ... <SELSE> ... </SIF>]
    and [<SFOR v IN ...> ... </SFOR>] forms (tag names are
    case-insensitive).  Quoted strings inside a tag may contain [>]. *)

open Sgraph

exception Template_error of string

(* --- Raw tag scanning --- *)

(* A tag's body is the text after its keyword, with the body's byte
   offset in the template for error positions. *)
type raw =
  | R_text of string
  | R_fmt of int * string
  | R_fmtlist of int * string
  | R_if of int * string
  | R_else
  | R_endif
  | R_for of int * string
  | R_endfor

let keyword_at src i kw =
  (* matches "<KW" at position i, case-insensitive, followed by a
     delimiter *)
  let n = String.length src and k = String.length kw in
  i + 1 + k <= n
  && src.[i] = '<'
  && String.lowercase_ascii (String.sub src (i + 1) k)
     = String.lowercase_ascii kw
  && (i + 1 + k = n
      ||
      let c = src.[i + 1 + k] in
      c = ' ' || c = '\t' || c = '\n' || c = '>' || c = '\r')

(* Find the '>' closing a tag starting at [i] ('<'), skipping quoted
   strings.  A '>' that begins '>=' or is surrounded by spaces is the
   greater-than operator of an SIF condition, not the tag close (write
   comparisons as [a > b], with spaces).  Returns the index of '>'. *)
let find_tag_end src i =
  let n = String.length src in
  let rec go j in_quote =
    if j >= n then raise (Template_error "unterminated template tag")
    else
      match src.[j] with
      | '"' -> go (j + 1) (not in_quote)
      | '\\' when in_quote && j + 1 < n -> go (j + 2) in_quote
      | '>' when not in_quote ->
        let is_ge = j + 1 < n && src.[j + 1] = '=' in
        let is_spaced_gt =
          j > 0 && src.[j - 1] = ' ' && j + 1 < n && src.[j + 1] = ' '
        in
        if is_ge then go (j + 2) in_quote
        else if is_spaced_gt then go (j + 1) in_quote
        else j
      | _ -> go (j + 1) in_quote
  in
  go i false

let scan src =
  let n = String.length src in
  let raws = ref [] in
  let text_start = ref 0 in
  let flush_text upto =
    if upto > !text_start then
      raws := R_text (String.sub src !text_start (upto - !text_start)) :: !raws
  in
  let i = ref 0 in
  while !i < n do
    if src.[!i] = '<' then begin
      let tag kw mk =
        let e = find_tag_end src !i in
        let body_start = !i + 1 + String.length kw in
        let body = String.sub src body_start (e - body_start) in
        flush_text !i;
        raws := mk body_start body :: !raws;
        i := e + 1;
        text_start := !i;
        true
      in
      let matched =
        if keyword_at src !i "SFMTLIST" then
          tag "SFMTLIST" (fun at b -> R_fmtlist (at, b))
        else if keyword_at src !i "SFMT" then
          tag "SFMT" (fun at b -> R_fmt (at, b))
        else if keyword_at src !i "SIF" then
          tag "SIF" (fun at b -> R_if (at, b))
        else if keyword_at src !i "SELSE" then tag "SELSE" (fun _ _ -> R_else)
        else if keyword_at src !i "/SIF" then tag "/SIF" (fun _ _ -> R_endif)
        else if keyword_at src !i "SFOR" then
          tag "SFOR" (fun at b -> R_for (at, b))
        else if keyword_at src !i "/SFOR" then tag "/SFOR" (fun _ _ -> R_endfor)
        else false
      in
      if not matched then incr i
    end
    else incr i
  done;
  flush_text n;
  List.rev !raws

(* --- Tag-body parsing (uses the shared tokenizer) --- *)

let puncts = [ "@"; "."; "("; ")"; "="; "!="; "<="; ">="; "<"; ">"; "," ]

let tokens_of body =
  Lex.Stream.of_tokens (Lex.tokenize ~ident_dash:true ~puncts body)

(* Parse the tag body at byte [at] of [src], raising the tokenizer's
   and the token stream's errors as [Template_error]s that give their
   line and column in [src] (the body's start for an error the parser
   raises itself). *)
let in_tag src at parse body =
  let fail l c msg =
    let line = ref l and bol = ref 0 in
    for i = 0 to at - 1 do
      if src.[i] = '\n' then begin
        incr line;
        bol := i + 1
      end
    done;
    let where =
      match c with
      | None -> Printf.sprintf "line %d" !line
      | Some c ->
        Printf.sprintf "line %d, column %d" !line
          (if l <= 1 then at - !bol + c else c)
    in
    raise (Template_error (where ^ ": " ^ msg))
  in
  try parse body with
  | Lex.Lex_error (msg, l) -> fail l None msg
  | Lex.Stream.Parse_error (msg, l, c) -> fail l (Some c) msg
  | Template_error msg -> fail 1 (Some 1) msg

let parse_attr_expr st =
  Lex.Stream.eat_punct st "@";
  let acc = ref [ Lex.Stream.expect_ident st ] in
  while Lex.Stream.accept_punct st "." do
    acc := Lex.Stream.expect_ident st :: !acc
  done;
  List.rev !acc

let parse_bare_attr_expr st =
  (* KEY=Year admits the '@' to be omitted *)
  if Lex.Stream.accept_punct st "@" then begin
    let acc = ref [ Lex.Stream.expect_ident st ] in
    while Lex.Stream.accept_punct st "." do
      acc := Lex.Stream.expect_ident st :: !acc
    done;
    List.rev !acc
  end
  else begin
    let acc = ref [ Lex.Stream.expect_ident st ] in
    while Lex.Stream.accept_punct st "." do
      acc := Lex.Stream.expect_ident st :: !acc
    done;
    List.rev !acc
  end

let parse_directives st =
  let d = ref Tast.default_directives in
  let fin = ref false in
  while not !fin do
    match Lex.Stream.peek st with
    | Lex.Ident s -> begin
      ignore (Lex.Stream.advance st);
      match String.uppercase_ascii s with
      | "EMBED" -> d := { !d with Tast.format = Tast.F_embed }
      | "FORMAT" ->
        (match Lex.Stream.advance st with
         | Lex.Punct "=" -> ()
         | _ -> raise (Template_error "expected '=' after FORMAT"));
        let v = Lex.Stream.expect_ident st in
        (match String.uppercase_ascii v with
         | "EMBED" -> d := { !d with Tast.format = Tast.F_embed }
         | "LINK" -> d := { !d with Tast.format = Tast.F_link None }
         | _ -> raise (Template_error ("unknown FORMAT " ^ v)))
      | "LINK" ->
        if Lex.Stream.accept_punct st "=" then begin
          match Lex.Stream.peek st with
          | Lex.Str s ->
            ignore (Lex.Stream.advance st);
            d :=
              { !d with Tast.format = Tast.F_link (Some (Tast.Tag_string s)) }
          | _ ->
            let ae = parse_bare_attr_expr st in
            d :=
              { !d with Tast.format = Tast.F_link (Some (Tast.Tag_attr ae)) }
        end
        else d := { !d with Tast.format = Tast.F_link None }
      | "ORDER" ->
        (match Lex.Stream.advance st with
         | Lex.Punct "=" -> ()
         | _ -> raise (Template_error "expected '=' after ORDER"));
        let v = Lex.Stream.expect_ident st in
        (match String.lowercase_ascii v with
         | "ascend" | "asc" | "ascending" ->
           d := { !d with Tast.order = Some Tast.Ascend }
         | "descend" | "desc" | "descending" ->
           d := { !d with Tast.order = Some Tast.Descend }
         | _ -> raise (Template_error ("unknown ORDER " ^ v)))
      | "KEY" ->
        (match Lex.Stream.advance st with
         | Lex.Punct "=" -> ()
         | _ -> raise (Template_error "expected '=' after KEY"));
        d := { !d with Tast.key = Some (parse_bare_attr_expr st) }
      | "DELIM" ->
        (match Lex.Stream.advance st with
         | Lex.Punct "=" -> ()
         | _ -> raise (Template_error "expected '=' after DELIM"));
        (match Lex.Stream.advance st with
         | Lex.Str s -> d := { !d with Tast.delim = Some s }
         | _ -> raise (Template_error "DELIM expects a string"))
      | other -> raise (Template_error ("unknown directive " ^ other))
    end
    | Lex.Eof -> fin := true
    | tok ->
      raise
        (Template_error (Fmt.str "unexpected %a in directives" Lex.pp_token tok))
  done;
  !d

let parse_fmt_body body =
  let st = tokens_of body in
  let ae = parse_attr_expr st in
  let d = parse_directives st in
  (ae, d)

(* Conditions: Expr Op Expr | @attr | combinations with AND OR NOT. *)
let parse_operand st =
  match Lex.Stream.peek st with
  | Lex.Punct "@" -> Tast.A_attr (parse_attr_expr st)
  | Lex.Str s ->
    ignore (Lex.Stream.advance st);
    Tast.A_const (Value.String s)
  | Lex.Int_lit i ->
    ignore (Lex.Stream.advance st);
    Tast.A_const (Value.Int i)
  | Lex.Float_lit f ->
    ignore (Lex.Stream.advance st);
    Tast.A_const (Value.Float f)
  | Lex.Ident s -> begin
    ignore (Lex.Stream.advance st);
    match String.uppercase_ascii s with
    | "NULL" -> Tast.A_const Value.Null
    | "TRUE" -> Tast.A_const (Value.Bool true)
    | "FALSE" -> Tast.A_const (Value.Bool false)
    | _ ->
      (* a bare identifier is an attribute expression without @ *)
      Tast.A_attr [ s ]
  end
  | tok ->
    raise (Template_error (Fmt.str "expected an operand, found %a"
                             Lex.pp_token tok))

let parse_cmp_op st =
  match Lex.Stream.advance st with
  | Lex.Punct "=" -> Some Tast.Eq
  | Lex.Punct "!=" -> Some Tast.Ne
  | Lex.Punct "<" -> Some Tast.Lt
  | Lex.Punct "<=" -> Some Tast.Le
  | Lex.Punct ">" -> Some Tast.Gt
  | Lex.Punct ">=" -> Some Tast.Ge
  | _ -> None

let rec parse_cond st =
  let left = parse_cond_and st in
  if Lex.Stream.accept_ident st "or" then Tast.C_or (left, parse_cond st)
  else left

and parse_cond_and st =
  let left = parse_cond_atom st in
  if Lex.Stream.accept_ident st "and" then
    Tast.C_and (left, parse_cond_and st)
  else left

and parse_cond_atom st =
  if Lex.Stream.accept_ident st "not" then Tast.C_not (parse_cond_atom st)
  else if Lex.Stream.accept_punct st "(" then begin
    let c = parse_cond st in
    Lex.Stream.eat_punct st ")";
    c
  end
  else begin
    let a = parse_operand st in
    match Lex.Stream.peek st with
    | Lex.Punct ("=" | "!=" | "<" | "<=" | ">" | ">=") ->
      let op =
        match parse_cmp_op st with
        | Some op -> op
        | None -> assert false
      in
      let b = parse_operand st in
      Tast.C_cmp (op, a, b)
    | _ ->
      (match a with
       | Tast.A_attr ae -> Tast.C_nonnull ae
       | Tast.A_const _ ->
         raise (Template_error "constant condition without comparison"))
  end

let parse_if_body body =
  let st = tokens_of body in
  let c = parse_cond st in
  if not (Lex.Stream.at_eof st) then
    raise (Template_error "trailing tokens in SIF condition");
  c

let parse_for_body body =
  let st = tokens_of body in
  let v = Lex.Stream.expect_ident st in
  (match Lex.Stream.advance st with
   | Lex.Ident s when String.lowercase_ascii s = "in" -> ()
   | _ -> raise (Template_error "expected IN in SFOR"));
  let ae = parse_attr_expr st in
  let d = parse_directives st in
  (v, ae, d)

(* --- Structure building --- *)

let parse (src : string) : Tast.t =
  let raws = scan src in
  (* recursive descent over the raw tag list *)
  let rec nodes acc raws =
    match raws with
    | [] -> (List.rev acc, [])
    | R_text s :: rest -> nodes (Tast.Text s :: acc) rest
    | R_fmt (at, body) :: rest ->
      let ae, d = in_tag src at parse_fmt_body body in
      nodes (Tast.Fmt (ae, d) :: acc) rest
    | R_fmtlist (at, body) :: rest ->
      let ae, d = in_tag src at parse_fmt_body body in
      nodes (Tast.Fmt_list (ae, d) :: acc) rest
    | R_if (at, body) :: rest ->
      let c = in_tag src at parse_if_body body in
      let then_, rest = nodes [] rest in
      (match rest with
       | R_else :: rest ->
         let else_, rest = nodes [] rest in
         (match rest with
          | R_endif :: rest ->
            nodes (Tast.If (c, then_, else_) :: acc) rest
          | _ -> raise (Template_error "missing </SIF>"))
       | R_endif :: rest -> nodes (Tast.If (c, then_, []) :: acc) rest
       | _ -> raise (Template_error "missing </SIF>"))
    | R_for (at, body) :: rest ->
      let v, ae, d = in_tag src at parse_for_body body in
      let inner, rest = nodes [] rest in
      (match rest with
       | R_endfor :: rest -> nodes (Tast.For (v, ae, d, inner) :: acc) rest
       | _ -> raise (Template_error "missing </SFOR>"))
    | (R_else | R_endif | R_endfor) :: _ -> (List.rev acc, raws)
  in
  let t, rest = nodes [] raws in
  (match rest with
   | [] -> ()
   | _ -> raise (Template_error "unbalanced SELSE/</SIF>/</SFOR>"));
  t
