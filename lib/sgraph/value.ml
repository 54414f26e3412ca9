type file_kind =
  | Text
  | Postscript
  | Image
  | Html_file
  | Other_file of string

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Url of string
  | File of file_kind * string

let file_kind_equal a b =
  match (a, b) with
  | Text, Text | Postscript, Postscript | Image, Image | Html_file, Html_file
    ->
    true
  | Other_file x, Other_file y -> String.equal x y
  | (Text | Postscript | Image | Html_file | Other_file _), _ -> false

(* A float is what a page prints: NaNs are one value, as under
   [Float.compare], but [-0] and [0] are two, [-0] first. *)
let float_compare x y =
  match Float.compare x y with
  | 0 when x = 0. -> Bool.compare (Float.sign_bit y) (Float.sign_bit x)
  | c -> c

let equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y -> Int.equal x y
  | Float x, Float y -> float_compare x y = 0
  | String x, String y | Url x, Url y -> String.equal x y
  | File (k, p), File (k', p') -> file_kind_equal k k' && String.equal p p'
  | (Null | Bool _ | Int _ | Float _ | String _ | Url _ | File _), _ -> false

let hash = function
  | Null -> 0
  | Bool b -> if b then 1 else 2
  | Int i -> i
  | Float f -> if f = 0. && Float.sign_bit f then 3 else Float.hash f
  | String s -> String.hash s
  | Url s -> String.hash s + 3
  | File (_, p) -> String.hash p + 5

let compare a b =
  match (a, b) with
  | Float x, Float y -> float_compare x y
  | _ -> Stdlib.compare a b

let float_of_value = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | String s | Url s -> float_of_string_opt (String.trim s)
  | Bool _ | Null | File _ -> None

let string_of_simple = function
  | Int i -> Some (string_of_int i)
  | Float f -> Some (string_of_float f)
  | String s | Url s -> Some s
  | Bool b -> Some (string_of_bool b)
  | Null | File _ -> None

(* Coercion policy: identical constructors compare structurally; a
   numeric and a string compare numerically when the string parses as a
   number, otherwise the number is rendered as a string.  Files compare
   by path only against files. *)
let rec coerce_compare a b =
  match a, b with
  | Null, Null -> Some 0
  | Null, _ | _, Null -> None
  | Bool x, Bool y -> Some (Stdlib.compare x y)
  | Int x, Int y -> Some (Stdlib.compare x y)
  | Float x, Float y -> Some (Stdlib.compare x y)
  | Int x, Float y | Float y, Int x ->
    Some (Stdlib.compare (float_of_int x) y * (match a with Int _ -> 1 | _ -> -1))
  | (String _ | Url _), (String _ | Url _) ->
    (match string_of_simple a, string_of_simple b with
     | Some x, Some y -> Some (Stdlib.compare x y)
     | _ -> None)
  | (Int _ | Float _), (String _ | Url _) ->
    (match float_of_value b with
     | Some fb ->
       (match float_of_value a with
        | Some fa -> Some (Stdlib.compare fa fb)
        | None -> None)
     | None ->
       (match string_of_simple a, string_of_simple b with
        | Some x, Some y -> Some (Stdlib.compare x y)
        | _ -> None))
  | (String _ | Url _), (Int _ | Float _) ->
    (match coerce_compare b a with Some c -> Some (-c) | None -> None)
  | File (_, p), File (_, q) -> Some (Stdlib.compare p q)
  | Bool x, String s | String s, Bool x ->
    (match bool_of_string_opt (String.trim s) with
     | Some y ->
       let c = Stdlib.compare x y in
       Some (match a with Bool _ -> c | _ -> -c)
     | None -> None)
  | _ -> None

let coerce_equal a b = match coerce_compare a b with Some 0 -> true | _ -> false

type coerce_key =
  | K_null
  | K_bool of bool
  | K_num of float
  | K_str of string
  | K_file of string

(* One key per way [coerce_compare] can reach [Some 0]: same-kind
   payloads, a number against a string's numeric reading, a bool
   against a string's bool reading, strings and URLs by text.  A
   number's printed form always parses back as a number, so numbers
   need no string key.  [Hashtbl.hash] agrees with [compare] on
   [-0.]/[0.] and on NaNs, which [coerce_compare] also equates. *)
let coerce_keys = function
  | Null -> [ K_null ]
  | Bool b -> [ K_bool b ]
  | Int i -> [ K_num (float_of_int i) ]
  | Float f -> [ K_num f ]
  | String s ->
    let t = String.trim s in
    let num =
      match float_of_string_opt t with Some f -> [ K_num f ] | None -> []
    in
    let bool =
      match bool_of_string_opt t with Some b -> [ K_bool b ] | None -> []
    in
    K_str s :: (num @ bool)
  | Url s -> (
    match float_of_string_opt (String.trim s) with
    | Some f -> [ K_str s; K_num f ]
    | None -> [ K_str s ])
  | File (_, p) -> [ K_file p ]

let is_null = function Null -> true | _ -> false
let is_file = function File _ -> true | _ -> false
let is_postscript = function File (Postscript, _) -> true | _ -> false
let is_image = function File (Image, _) -> true | _ -> false
let is_text = function File (Text, _) -> true | _ -> false
let is_html_file = function File (Html_file, _) -> true | _ -> false
let is_url = function Url _ -> true | _ -> false

let to_display_string = function
  | Null -> ""
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | String s -> s
  | Url u -> u
  | File (_, path) -> path

let file_kind_name = function
  | Text -> "text"
  | Postscript -> "ps"
  | Image -> "image"
  | Html_file -> "html"
  | Other_file s -> s

let file_kind_of_name = function
  | "text" -> Some Text
  | "ps" | "postscript" -> Some Postscript
  | "image" | "img" -> Some Image
  | "html" -> Some Html_file
  | _ -> None

let kind_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | String _ -> "string"
  | Url _ -> "url"
  | File (k, _) -> file_kind_name k

let has_url_scheme s =
  let schemes = [ "http://"; "https://"; "ftp://"; "mailto:"; "file://" ] in
  List.exists
    (fun p ->
      String.length s >= String.length p
      && String.sub s 0 (String.length p) = p)
    schemes

let of_literal s =
  match int_of_string_opt s with
  | Some i -> Int i
  | None ->
    (match float_of_string_opt s with
     | Some f -> Float f
     | None ->
       (match s with
        | "true" -> Bool true
        | "false" -> Bool false
        | "null" -> Null
        | _ -> if has_url_scheme s then Url s else String s))

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Floats print with an explicit decimal point (or exponent) so that the
   DDL reader does not reread an integral float as an [Int]. *)
let float_literal f =
  if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let pp ppf = function
  | Null -> Fmt.string ppf "null"
  | Bool b -> Fmt.bool ppf b
  | Int i -> Fmt.int ppf i
  | Float f -> Fmt.string ppf (float_literal f)
  | String s -> Fmt.pf ppf "\"%s\"" (escape_string s)
  | Url u -> Fmt.pf ppf "url \"%s\"" (escape_string u)
  | File (k, p) -> Fmt.pf ppf "%s \"%s\"" (file_kind_name k) (escape_string p)

let to_string v = Fmt.str "%a" pp v
