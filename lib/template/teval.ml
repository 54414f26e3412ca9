(** Evaluation of template expressions over a site graph.

    The HTML generator interprets an object's template, replacing
    template expressions by the HTML values of the object's attributes.
    Type-specific rules map atomic values to HTML (strings and numbers
    are embedded, PostScript files become links, images become [<img>],
    text/HTML files are inlined when a file loader is available).
    References to internal objects are delegated to the caller through
    [render_object]: by default they become links to the object's page;
    [EMBED] embeds the object's HTML value instead. *)

open Sgraph

type obj_mode =
  | Embed
  | Link_to of string option  (** anchor text override *)

type ctx = {
  graph : Graph.t;
  vars : (string * Graph.target) list;  (** SFOR bindings, innermost first *)
  render_object : ctx -> obj_mode -> Oid.t -> string;
  file_loader : string -> string option;
  on_read : (Oid.t -> string -> Graph.target list -> unit) option;
      (** read-set tracing hook: called on every attribute read the
          template evaluation performs, with the object, the attribute
          name and the full target list the read returned.  [None] (the
          common case) keeps the hot path free of tracing. *)
}

(* Every graph read of the evaluator funnels through here so a render
   cache can record the page's exact read set. *)
let read_attr ctx o seg =
  let targets = Graph.attr ctx.graph o seg in
  (match ctx.on_read with Some f -> f o seg targets | None -> ());
  targets

let escape_html s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* --- Attribute expressions --- *)

let eval_attr_expr ctx obj (ae : Tast.attr_expr) : Graph.target list =
  let start, segs =
    match ae with
    | seg :: rest when List.mem_assoc seg ctx.vars ->
      ([ List.assoc seg ctx.vars ], rest)
    | _ -> ([ Graph.N obj ], ae)
  in
  List.fold_left
    (fun targets seg ->
      List.concat_map
        (fun t ->
          match t with
          | Graph.N o -> read_attr ctx o seg
          | Graph.V _ -> [])
        targets)
    start segs

(* --- Ordering --- *)

let sort_key ctx (d : Tast.directives) t =
  match d.key with
  | Some ae -> (
      match t with
      | Graph.N o -> (
          match eval_attr_expr ctx o ae with
          | Graph.V v :: _ -> Some v
          | Graph.N o' :: _ -> Some (Value.String (Oid.name o'))
          | [] -> None)
      | Graph.V v -> Some v)
  | None -> (
      match t with
      | Graph.V v -> Some v
      | Graph.N o -> Some (Value.String (Oid.name o)))

let apply_order ctx (d : Tast.directives) targets =
  match d.order with
  | None -> targets
  | Some ord ->
    (* each element's key is read once, in list order, not once per
       comparison: a traced render then records each key read once *)
    let cmp (ka, _) (kb, _) =
      let c =
        match ka, kb with
        | Some va, Some vb -> (
            match Value.coerce_compare va vb with
            | Some c -> c
            | None ->
              String.compare
                (Value.to_display_string va)
                (Value.to_display_string vb))
        | Some _, None -> -1
        | None, Some _ -> 1
        | None, None -> 0
      in
      match ord with Tast.Ascend -> c | Tast.Descend -> -c
    in
    List.map (fun t -> (sort_key ctx d t, t)) targets
    |> List.stable_sort cmp |> List.map snd

(* --- Value rendering --- *)

let render_link ~href ~anchor = Printf.sprintf "<a href=\"%s\">%s</a>" href anchor

let anchor_of_value v = escape_html (Value.to_display_string v)

let render_value ctx ?(anchor : string option) (v : Value.t) =
  match v with
  | Value.Null -> ""
  | Value.Bool _ | Value.Int _ | Value.Float _ | Value.String _ ->
    escape_html (Value.to_display_string v)
  | Value.Url u ->
    render_link ~href:(escape_html u)
      ~anchor:(match anchor with Some a -> a | None -> escape_html u)
  | Value.File (Value.Image, p) ->
    Printf.sprintf "<img src=\"%s\" alt=\"%s\">" (escape_html p)
      (match anchor with Some a -> a | None -> "")
  | Value.File (Value.Text, p) -> (
      match ctx.file_loader p with
      | Some content -> "<pre>" ^ escape_html content ^ "</pre>"
      | None ->
        render_link ~href:(escape_html p)
          ~anchor:(match anchor with Some a -> a | None -> escape_html p))
  | Value.File (Value.Html_file, p) -> (
      match ctx.file_loader p with
      | Some content -> content  (* trusted HTML fragment *)
      | None ->
        render_link ~href:(escape_html p)
          ~anchor:(match anchor with Some a -> a | None -> escape_html p))
  | Value.File (_, p) ->
    (* PostScript and other binary files are never inlined *)
    render_link ~href:(escape_html p)
      ~anchor:(match anchor with Some a -> a | None -> escape_html p)

(* The anchor text requested by a LINK=tag directive, evaluated against
   the current object. *)
let eval_link_tag ctx obj = function
  | None -> None
  | Some (Tast.Tag_string s) -> Some (escape_html s)
  | Some (Tast.Tag_attr ae) -> (
      match eval_attr_expr ctx obj ae with
      | Graph.V v :: _ -> Some (anchor_of_value v)
      | Graph.N o :: _ -> Some (escape_html (Oid.name o))
      | [] -> None)

let render_target ctx obj (d : Tast.directives) (t : Graph.target) =
  match t with
  | Graph.V v -> (
      match d.format with
      | Tast.F_default | Tast.F_embed -> render_value ctx v
      | Tast.F_link tag ->
        let anchor = eval_link_tag ctx obj tag in
        (match v with
         | Value.Url _ | Value.File _ -> render_value ctx ?anchor v
         | v ->
           (* a LINK over a plain value renders the value itself *)
           (match anchor with
            | Some a -> a
            | None -> escape_html (Value.to_display_string v))))
  | Graph.N o -> (
      match d.format with
      | Tast.F_embed -> ctx.render_object ctx Embed o
      | Tast.F_default -> ctx.render_object ctx (Link_to None) o
      | Tast.F_link tag ->
        ctx.render_object ctx (Link_to (eval_link_tag ctx obj tag)) o)

(* --- Conditions --- *)

let operand_value ctx obj = function
  | Tast.A_const v -> `Val v
  | Tast.A_attr ae -> (
      match eval_attr_expr ctx obj ae with
      | [] -> `Val Value.Null
      | Graph.V v :: _ -> `Val v
      | Graph.N o :: _ -> `Node o)

let rec eval_cond ctx obj = function
  | Tast.C_nonnull ae -> (
      match eval_attr_expr ctx obj ae with
      | [] -> false
      | Graph.V Value.Null :: _ -> false
      | _ -> true)
  | Tast.C_and (a, b) -> eval_cond ctx obj a && eval_cond ctx obj b
  | Tast.C_or (a, b) -> eval_cond ctx obj a || eval_cond ctx obj b
  | Tast.C_not c -> not (eval_cond ctx obj c)
  | Tast.C_cmp (op, a, b) -> (
      let va = operand_value ctx obj a and vb = operand_value ctx obj b in
      match va, vb with
      | `Node o1, `Node o2 -> (
          match op with
          | Tast.Eq -> Oid.equal o1 o2
          | Tast.Ne -> not (Oid.equal o1 o2)
          | _ -> false)
      | `Node _, `Val _ | `Val _, `Node _ -> op = Tast.Ne
      | `Val v1, `Val v2 -> (
          match op, Value.coerce_compare v1 v2 with
          | Tast.Eq, Some 0 -> true
          | Tast.Eq, _ -> false
          | Tast.Ne, Some 0 -> false
          | Tast.Ne, _ -> true
          | Tast.Lt, Some c -> c < 0
          | Tast.Le, Some c -> c <= 0
          | Tast.Gt, Some c -> c > 0
          | Tast.Ge, Some c -> c >= 0
          | _, None -> false))

(* --- Template rendering --- *)

let rec render_nodes ctx obj (t : Tast.t) =
  String.concat "" (List.map (render_node ctx obj) t)

and render_node ctx obj = function
  | Tast.Text s -> s
  | Tast.Fmt (ae, d) ->
    let targets = apply_order ctx d (eval_attr_expr ctx obj ae) in
    let delim = match d.delim with Some s -> s | None -> " " in
    String.concat delim (List.map (render_target ctx obj d) targets)
  | Tast.Fmt_list (ae, d) ->
    let targets = apply_order ctx d (eval_attr_expr ctx obj ae) in
    if targets = [] then ""
    else
      "<ul>\n"
      ^ String.concat ""
          (List.map
             (fun t -> "<li>" ^ render_target ctx obj d t ^ "</li>\n")
             targets)
      ^ "</ul>"
  | Tast.If (c, then_, else_) ->
    if eval_cond ctx obj c then render_nodes ctx obj then_
    else render_nodes ctx obj else_
  | Tast.For (v, ae, d, body) ->
    let targets = apply_order ctx d (eval_attr_expr ctx obj ae) in
    let delim = match d.delim with Some s -> s | None -> "" in
    String.concat delim
      (List.map
         (fun t ->
           let ctx' = { ctx with vars = (v, t) :: ctx.vars } in
           render_nodes ctx' obj body)
         targets)

let render ctx (t : Tast.t) obj = render_nodes ctx obj t
