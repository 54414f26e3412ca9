(** A small shared tokenizer used by the DDL, StruQL and template
    parsers.

    Handles identifiers, quoted strings with escapes, integer and float
    literals, configurable punctuation (longest match first), and
    [//]-, [/* */]- and [#]-style comments. *)

type token =
  | Ident of string
  | Str of string
  | Int_lit of int
  | Float_lit of float
  | Punct of string
  | Eof

type spanned = { tok : token; line : int; col : int; ecol : int }
(** [line]/[col] are the 1-based start of the token; [ecol] is the
    column one past its final character (on the start line — tokens
    that span lines get a 1-wide span). *)

exception Lex_error of string * int  (** message, line *)

val tokenize :
  ?ident_dash:bool ->
  (* allow '-' inside identifiers (DDL attribute names like pub-type) *)
  puncts:string list ->
  string ->
  spanned list
(** Tokenize a whole input string.  [puncts] lists the punctuation
    tokens; longer ones are matched first.  Always ends with [Eof]. *)

val pp_token : Format.formatter -> token -> unit

(** A simple stream over the token list, for recursive-descent
    parsers. *)
module Stream : sig
  type t

  exception Parse_error of string * int * int  (** message, line, column *)

  val of_tokens : spanned list -> t
  val peek : t -> token
  val peek2 : t -> token
  val line : t -> int

  val col : t -> int
  (** 1-based start column of the next token (0 at end of stream). *)

  val pos : t -> int * int
  (** [(line, col)] of the next token. *)

  val last_end : t -> int * int
  (** [(line, ecol)] just past the most recently consumed token;
      [(0, 0)] before the first [advance]. *)

  val advance : t -> token
  val eat_punct : t -> string -> unit
  val accept_punct : t -> string -> bool
  (** Consume the punct if it is next; report whether it was. *)

  val accept_ident : t -> string -> bool
  val expect_ident : t -> string
  val expect_string : t -> string
  (** The [eat_]/[expect_] functions raise {!Parse_error} at the start
      of the token they rejected. *)

  val error : t -> string -> 'a
  (** Raise {!Parse_error} at the next token's position. *)

  val error_at : int * int -> string -> 'a
  (** Raise {!Parse_error} at a [(line, col)] taken with {!pos} before
      the offending token or construct was consumed. *)

  val at_eof : t -> bool
end
