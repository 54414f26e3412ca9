type token =
  | Ident of string
  | Str of string
  | Int_lit of int
  | Float_lit of float
  | Punct of string
  | Eof

type spanned = { tok : token; line : int; col : int; ecol : int }

exception Lex_error of string * int

let pp_token ppf = function
  | Ident s -> Fmt.pf ppf "identifier %s" s
  | Str s -> Fmt.pf ppf "string %S" s
  | Int_lit i -> Fmt.pf ppf "integer %d" i
  | Float_lit f -> Fmt.pf ppf "float %g" f
  | Punct s -> Fmt.pf ppf "'%s'" s
  | Eof -> Fmt.string ppf "end of input"

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char ~dash c =
  is_ident_start c || (c >= '0' && c <= '9') || (dash && c = '-')

let is_digit c = c >= '0' && c <= '9'

let tokenize ?(ident_dash = false) ~puncts src =
  let puncts =
    List.sort (fun a b -> Int.compare (String.length b) (String.length a))
      puncts
  in
  let n = String.length src in
  let line = ref 1 in
  let bol = ref 0 in
  (* start position of the token being scanned, refreshed each loop *)
  let start_line = ref 1 in
  let start_col = ref 1 in
  let toks = ref [] in
  let i = ref 0 in
  let emit tok =
    let ecol =
      (* tokens that span lines get a 1-wide span at their start *)
      if !line = !start_line then !i - !bol + 1 else !start_col + 1
    in
    toks := { tok; line = !start_line; col = !start_col; ecol } :: !toks
  in
  let starts_with p pos =
    let lp = String.length p in
    pos + lp <= n && String.sub src pos lp = p
  in
  while !i < n do
    start_line := !line;
    start_col := !i - !bol + 1;
    let c = src.[!i] in
    if c = '\n' then begin
      incr line;
      incr i;
      bol := !i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if starts_with "//" !i || c = '#' then begin
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    end
    else if starts_with "/*" !i then begin
      i := !i + 2;
      let fin = ref false in
      while not !fin do
        if !i >= n then raise (Lex_error ("unterminated comment", !line))
        else if starts_with "*/" !i then begin
          i := !i + 2;
          fin := true
        end
        else begin
          if src.[!i] = '\n' then begin
            incr line;
            bol := !i + 1
          end;
          incr i
        end
      done
    end
    else if c = '"' then begin
      incr i;
      let buf = Buffer.create 16 in
      let fin = ref false in
      while not !fin do
        if !i >= n then raise (Lex_error ("unterminated string", !line))
        else
          match src.[!i] with
          | '"' ->
            incr i;
            fin := true
          | '\\' ->
            if !i + 1 >= n then
              raise (Lex_error ("unterminated escape", !line));
            (match src.[!i + 1] with
             | 'n' -> Buffer.add_char buf '\n'
             | 't' -> Buffer.add_char buf '\t'
             | '"' -> Buffer.add_char buf '"'
             | '\\' -> Buffer.add_char buf '\\'
             | c -> Buffer.add_char buf c);
            i := !i + 2
          | '\n' ->
            incr line;
            Buffer.add_char buf '\n';
            incr i;
            bol := !i
          | c ->
            Buffer.add_char buf c;
            incr i
      done;
      emit (Str (Buffer.contents buf))
    end
    else if is_digit c || (c = '-' && !i + 1 < n && is_digit src.[!i + 1])
    then begin
      let start = !i in
      if c = '-' then incr i;
      while !i < n && is_digit src.[!i] do
        incr i
      done;
      let is_float =
        !i < n && src.[!i] = '.' && !i + 1 < n && is_digit src.[!i + 1]
      in
      if is_float then begin
        incr i;
        while !i < n && is_digit src.[!i] do
          incr i
        done;
        if !i < n && (src.[!i] = 'e' || src.[!i] = 'E') then begin
          incr i;
          if !i < n && (src.[!i] = '+' || src.[!i] = '-') then incr i;
          while !i < n && is_digit src.[!i] do
            incr i
          done
        end;
        emit (Float_lit (float_of_string (String.sub src start (!i - start))))
      end
      else
        emit (Int_lit (int_of_string (String.sub src start (!i - start))))
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char ~dash:ident_dash src.[!i] do
        incr i
      done;
      emit (Ident (String.sub src start (!i - start)))
    end
    else begin
      match List.find_opt (fun p -> starts_with p !i) puncts with
      | Some p ->
        i := !i + String.length p;
        emit (Punct p)
      | None ->
        raise (Lex_error (Printf.sprintf "unexpected character %C" c, !line))
    end
  done;
  start_line := !line;
  start_col := n - !bol + 1;
  emit Eof;
  List.rev !toks

module Stream = struct
  type t = { mutable rest : spanned list; mutable last : spanned option }

  exception Parse_error of string * int * int

  let of_tokens toks = { rest = toks; last = None }

  let peek t =
    match t.rest with { tok; _ } :: _ -> tok | [] -> Eof

  let peek2 t =
    match t.rest with _ :: { tok; _ } :: _ -> tok | _ -> Eof

  let line t = match t.rest with { line; _ } :: _ -> line | [] -> 0
  let col t = match t.rest with { col; _ } :: _ -> col | [] -> 0
  let pos t = (line t, col t)

  let last_end t =
    match t.last with Some { line; ecol; _ } -> (line, ecol) | None -> (0, 0)

  let advance t =
    match t.rest with
    | { tok = Eof; _ } :: _ | [] -> Eof
    | ({ tok; _ } as sp) :: rest ->
      t.rest <- rest;
      t.last <- Some sp;
      tok

  let error_at (line, col) msg = raise (Parse_error (msg, line, col))
  let error t msg = error_at (pos t) msg

  (* Each [eat_]/[expect_] reports a wrong token where that token
     starts, taken before [advance] moves past it. *)
  let eat_punct t p =
    let at = pos t in
    match advance t with
    | Punct p' when p' = p -> ()
    | tok -> error_at at (Fmt.str "expected '%s' but found %a" p pp_token tok)

  let accept_punct t p =
    match peek t with
    | Punct p' when p' = p ->
      ignore (advance t);
      true
    | _ -> false

  let accept_ident t name =
    match peek t with
    | Ident s when String.lowercase_ascii s = String.lowercase_ascii name ->
      ignore (advance t);
      true
    | _ -> false

  let expect_ident t =
    let at = pos t in
    match advance t with
    | Ident s -> s
    | tok ->
      error_at at (Fmt.str "expected an identifier but found %a" pp_token tok)

  let expect_string t =
    let at = pos t in
    match advance t with
    | Str s -> s
    | tok -> error_at at (Fmt.str "expected a string but found %a" pp_token tok)

  let at_eof t = peek t = Eof
end
