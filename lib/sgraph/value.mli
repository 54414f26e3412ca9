(** Atomic values of the semistructured data model.

    STRUDEL supports several atomic types that commonly appear in Web
    pages (integers, strings, URLs, and PostScript, text, image and HTML
    files).  Values are compared with dynamic coercion: an [Int 1997]
    compares equal to a [String "1997"], mirroring the paper's "values
    are coerced dynamically when they are compared at run time". *)

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
  | File of file_kind * string  (** kind and path of the file *)

val equal : t -> t -> bool
(** Structural equality, no coercion: [compare a b = 0].  A value is
    what a page prints, so NaN equals NaN, while [0.0] and [-0.0]
    (printed [0] and [-0]) are distinct, as are [Int 1], [Float 1.0]
    and [String "1"]. *)

val hash : t -> int
(** A hash consistent with {!equal}. *)

val compare : t -> t -> int
(** Total structural order (used for indexing): [Stdlib.compare],
    except that [-0.0] sorts just before [0.0]. *)

val coerce_equal : t -> t -> bool
(** Equality with dynamic coercion between numeric and string
    representations, e.g. [Int 3 = String "3"] and
    [Float 2. = Int 2]. *)

(** A hashable key a value can be equal under: see {!coerce_keys}. *)
type coerce_key =
  | K_null
  | K_bool of bool
  | K_num of float
  | K_str of string
  | K_file of string

val coerce_keys : t -> coerce_key list
(** Hash keys for {!coerce_equal}: whenever [coerce_equal a b], the key
    lists of [a] and [b] share a key.  A table indexing values under
    all their keys therefore finds every value a probe can equal, plus
    some it does not (["1997"] and [" 1997"] share [K_num 1997.]), so a
    hit is re-checked with {!coerce_equal}.  Keys are for hash tables,
    which compare with [compare]: [K_num nan] meets itself there, as
    NaNs are coerce-equal, though not under [(=)]. *)

val coerce_compare : t -> t -> int option
(** Ordering with dynamic coercion; [None] when the two values are not
    comparable even after coercion (e.g. a file and a bool). *)

val is_null : t -> bool
val is_file : t -> bool
val is_postscript : t -> bool
val is_image : t -> bool
val is_text : t -> bool
val is_html_file : t -> bool
val is_url : t -> bool

val to_display_string : t -> string
(** The string used when the value is embedded in an HTML page. *)

val file_kind_name : file_kind -> string
val file_kind_of_name : string -> file_kind option

val kind_name : t -> string
(** A short tag naming the constructor ("int", "string", "ps", ...). *)

val of_literal : string -> t
(** Parse a bare literal as it appears in data files: integers, floats,
    [true]/[false]/[null], URLs (strings starting with a scheme), and
    otherwise a string.  File coercion is applied separately by the DDL
    loader using collection directives. *)

val pp : Format.formatter -> t -> unit
(** Print in the data-definition-language syntax (strings quoted). *)

val to_string : t -> string
