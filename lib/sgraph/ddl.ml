exception Ddl_error of string * int

type directives = (string * (string * Value.file_kind) list) list

let puncts = [ "{"; "}"; ","; "&" ]

(* Parsed attribute values before reference resolution. *)
type pvalue =
  | P_val of Value.t
  | P_ref of string          (* &name *)
  | P_nested of pobj

and pobj = { attrs : (string * pvalue) list }

type pdecl =
  | D_collection of string * (string * Value.file_kind) list
  | D_object of string * string list * pobj  (* name, collections, body *)

let rec parse_body st =
  (* parses { attr value ... } *)
  Lex.Stream.eat_punct st "{";
  let attrs = ref [] in
  let fin = ref false in
  while not !fin do
    match Lex.Stream.peek st with
    | Lex.Punct "}" ->
      ignore (Lex.Stream.advance st);
      fin := true
    | Lex.Ident name ->
      ignore (Lex.Stream.advance st);
      let v = parse_pvalue st name in
      attrs := (name, v) :: !attrs
    | Lex.Str name ->
      (* labels of generated site graphs may not be identifiers *)
      ignore (Lex.Stream.advance st);
      let v = parse_pvalue st name in
      attrs := (name, v) :: !attrs
    | tok ->
      Lex.Stream.error st
        (Fmt.str "expected an attribute name or '}' but found %a"
           Lex.pp_token tok)
  done;
  { attrs = List.rev !attrs }

and parse_pvalue st attr_name =
  match Lex.Stream.peek st with
  | Lex.Str s -> ignore (Lex.Stream.advance st); P_val (Value.String s)
  | Lex.Int_lit i -> ignore (Lex.Stream.advance st); P_val (Value.Int i)
  | Lex.Float_lit f -> ignore (Lex.Stream.advance st); P_val (Value.Float f)
  | Lex.Punct "&" ->
    ignore (Lex.Stream.advance st);
    P_ref (Lex.Stream.expect_ident st)
  | Lex.Punct "{" -> P_nested (parse_body st)
  | Lex.Ident kw -> begin
    let at = Lex.Stream.pos st in
    ignore (Lex.Stream.advance st);
    match kw with
    | "true" -> P_val (Value.Bool true)
    | "false" -> P_val (Value.Bool false)
    | "null" -> P_val Value.Null
    | "url" -> P_val (Value.Url (Lex.Stream.expect_string st))
    | "string" -> P_val (Value.String (Lex.Stream.expect_string st))
    | "int" ->
      let at = Lex.Stream.pos st in
      (match Lex.Stream.advance st with
       | Lex.Int_lit i -> P_val (Value.Int i)
       | tok ->
         Lex.Stream.error_at at
           (Fmt.str "expected an integer but found %a" Lex.pp_token tok))
    | kw ->
      (match Value.file_kind_of_name kw with
       | Some k -> P_val (Value.File (k, Lex.Stream.expect_string st))
       | None ->
         (* an unknown kind followed by a string is an "other" file type;
            atomic types are handled uniformly *)
         (match Lex.Stream.peek st with
          | Lex.Str s ->
            ignore (Lex.Stream.advance st);
            P_val (Value.File (Value.Other_file kw, s))
          | _ ->
            Lex.Stream.error_at at
              (Fmt.str "unknown value kind '%s' for attribute %s" kw
                 attr_name)))
  end
  | tok ->
    Lex.Stream.error st
      (Fmt.str "expected a value for attribute %s but found %a" attr_name
         Lex.pp_token tok)

let parse_collection_decl st =
  let name = Lex.Stream.expect_ident st in
  Lex.Stream.eat_punct st "{";
  let dirs = ref [] in
  let fin = ref false in
  while not !fin do
    match Lex.Stream.peek st with
    | Lex.Punct "}" ->
      ignore (Lex.Stream.advance st);
      fin := true
    | Lex.Ident attr ->
      ignore (Lex.Stream.advance st);
      let at = Lex.Stream.pos st in
      let kind_name = Lex.Stream.expect_ident st in
      (match Value.file_kind_of_name kind_name with
       | Some k -> dirs := (attr, k) :: !dirs
       | None ->
         if kind_name <> "string" && kind_name <> "int" then
           Lex.Stream.error_at at
             (Fmt.str "unknown type directive '%s' in collection %s"
                kind_name name))
    | tok ->
      Lex.Stream.error st
        (Fmt.str "expected a directive or '}' but found %a" Lex.pp_token tok)
  done;
  D_collection (name, List.rev !dirs)

let parse_object_decl st =
  let name = Lex.Stream.expect_ident st in
  let colls = ref [] in
  if Lex.Stream.accept_ident st "in" then begin
    colls := [ Lex.Stream.expect_ident st ];
    while Lex.Stream.accept_punct st "," do
      colls := Lex.Stream.expect_ident st :: !colls
    done
  end;
  let body = parse_body st in
  D_object (name, List.rev !colls, body)

let parse_decls src =
  let toks =
    try Lex.tokenize ~ident_dash:true ~puncts src
    with Lex.Lex_error (msg, line) -> raise (Ddl_error (msg, line))
  in
  let st = Lex.Stream.of_tokens toks in
  let decls = ref [] in
  (try
     while not (Lex.Stream.at_eof st) do
       let at = Lex.Stream.pos st in
       match Lex.Stream.advance st with
       | Lex.Ident "collection" -> decls := parse_collection_decl st :: !decls
       | Lex.Ident "object" -> decls := parse_object_decl st :: !decls
       | tok ->
         Lex.Stream.error_at at
           (Fmt.str "expected 'collection' or 'object' but found %a"
              Lex.pp_token tok)
     done
   with Lex.Stream.Parse_error (msg, line, _col) -> raise (Ddl_error (msg, line)));
  List.rev !decls

(* Apply collection file-kind defaults to a string value. *)
let coerce_with_directives dirs colls attr v =
  match v with
  | Value.String s ->
    let kind =
      List.find_map
        (fun c ->
          match List.assoc_opt c dirs with
          | Some d -> List.assoc_opt attr d
          | None -> None)
        colls
    in
    (match kind with Some k -> Value.File (k, s) | None -> v)
  | v -> v

let parse_into g src =
  let decls = parse_decls src in
  let dirs =
    List.filter_map
      (function D_collection (c, d) -> Some (c, d) | D_object _ -> None)
      decls
  in
  (* first pass: create oids for named objects (forward references) *)
  let objs = Hashtbl.create 64 in
  List.iter
    (function
      | D_object (name, _, _) when not (Hashtbl.mem objs name) ->
        let o =
          match Graph.find_node g name with
          | Some o -> o  (* extending an existing graph *)
          | None -> Oid.fresh name
        in
        Hashtbl.add objs name o
      | D_object _ | D_collection _ -> ())
    decls;
  let resolve_ref line name =
    match Hashtbl.find_opt objs name with
    | Some o -> o
    | None ->
      (match Graph.find_node g name with
       | Some o -> o
       | None -> raise (Ddl_error ("unknown object reference &" ^ name, line)))
  in
  let rec add_attrs o colls body nested_prefix =
    List.iteri
      (fun i (attr, pv) ->
        match pv with
        | P_val v ->
          Graph.add_edge g o attr
            (Graph.V (coerce_with_directives dirs colls attr v))
        | P_ref name -> Graph.add_edge g o attr (Graph.N (resolve_ref 0 name))
        | P_nested body' ->
          let o' =
            Graph.new_node g (Printf.sprintf "%s.%s%d" nested_prefix attr i)
          in
          Graph.add_edge g o attr (Graph.N o');
          add_attrs o' [] body' (Oid.name o'))
      body.attrs
  in
  List.iter
    (function
      | D_collection _ -> ()
      | D_object (name, colls, body) ->
        let o = Hashtbl.find objs name in
        Graph.add_node g o;
        List.iter (fun c -> Graph.add_to_collection g c o) colls;
        add_attrs o colls body name)
    decls;
  dirs

let parse ?(graph_name = "g") src =
  let g = Graph.create ~name:graph_name () in
  let dirs = parse_into g src in
  (g, dirs)

let valid_ident s =
  String.length s > 0
  && (let c = s.[0] in
      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_')
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = '-')
       s

(* Unique printable names: prefer the oid's own name; disambiguate with
   a numeric suffix when several nodes share one. *)
let printable_names g =
  let used = Hashtbl.create 64 in
  let names = Oid.Tbl.create 64 in
  List.iter
    (fun o ->
      let base =
        let n = Oid.name o in
        if valid_ident n then n else Printf.sprintf "obj_%d" (Oid.id o)
      in
      let name =
        if Hashtbl.mem used base then
          Printf.sprintf "%s_%d" base (Oid.id o)
        else base
      in
      Hashtbl.replace used name ();
      Oid.Tbl.replace names o name)
    (Graph.nodes g);
  names

let print ?(directives = []) g =
  let buf = Buffer.create 4096 in
  let names = printable_names g in
  List.iter
    (fun (c, dirs) ->
      Buffer.add_string buf (Printf.sprintf "collection %s {" c);
      List.iter
        (fun (a, k) ->
          Buffer.add_string buf
            (Printf.sprintf " %s %s" a (Value.file_kind_name k)))
        dirs;
      Buffer.add_string buf " }\n")
    directives;
  List.iter
    (fun o ->
      let name = Oid.Tbl.find names o in
      Buffer.add_string buf "object ";
      Buffer.add_string buf name;
      (match Graph.collections_of g o with
       | [] -> ()
       | colls ->
         Buffer.add_string buf " in ";
         Buffer.add_string buf (String.concat ", " colls));
      let edges = Graph.out_edges g o in
      if edges = [] then Buffer.add_string buf " {}\n"
      else begin
        Buffer.add_string buf " {\n";
        List.iter
          (fun (l, tgt) ->
            Buffer.add_string buf "  ";
            (if valid_ident l then Buffer.add_string buf l
             else
               Buffer.add_string buf
                 (Value.to_string (Value.String l)));
            Buffer.add_char buf ' ';
            (match tgt with
             | Graph.V v -> Buffer.add_string buf (Value.to_string v)
             | Graph.N o' ->
               Buffer.add_char buf '&';
               Buffer.add_string buf (Oid.Tbl.find names o'));
            Buffer.add_char buf '\n')
          edges;
        Buffer.add_string buf "}\n"
      end)
    (Graph.nodes g);
  Buffer.contents buf

let pp ppf g = Fmt.string ppf (print g)
