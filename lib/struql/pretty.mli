(** Pretty-printer and structural equality for StruQL.

    The printed form re-parses to a structurally equal query
    ([Parser.parse (to_string q)] satisfies [query_equal q]); label
    predicates inside path expressions compare by name. *)

val pp_term : Format.formatter -> Ast.term -> unit
val pp_label_term : Format.formatter -> Ast.label_term -> unit
val pp_cmp_op : Format.formatter -> Ast.cmp_op -> unit
val pp_condition : Format.formatter -> Ast.condition -> unit
val pp_link : Format.formatter -> Ast.link_clause -> unit
val pp_create : Format.formatter -> Ast.create_clause -> unit
val pp_collect : Format.formatter -> Ast.collect_clause -> unit
val pp_block : ?indent:int -> Format.formatter -> Ast.block -> unit
val pp_query : Format.formatter -> Ast.query -> unit
val to_string : Ast.query -> string

(** {1 Structural equality} *)

val rpe_equal : Sgraph.Path.t -> Sgraph.Path.t -> bool
val term_equal : Ast.term -> Ast.term -> bool
val condition_equal : Ast.condition -> Ast.condition -> bool
val link_equal : Ast.link_clause -> Ast.link_clause -> bool
val block_equal : Ast.block -> Ast.block -> bool
val query_equal : Ast.query -> Ast.query -> bool
