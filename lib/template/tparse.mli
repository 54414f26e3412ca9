(** Parser for the HTML-template language (Fig. 6).

    Plain HTML passes through verbatim; the parser recognizes
    [<SFMT ...>], [<SFMTLIST ...>], [<SIF ...> ... <SELSE> ... </SIF>]
    and [<SFOR v IN ...> ... </SFOR>] (tag names case-insensitive).
    Quoted strings inside a tag may contain [>]; write [>]/[>=]
    comparisons with surrounding spaces so they are not read as the tag
    close. *)

exception Template_error of string
(** The one error {!parse} raises.  An error inside a tag's body gives
    its line and column in the template first (["line 2, column 7:
    ..."]; a tokenizer error gives its line). *)

val parse : string -> Tast.t
