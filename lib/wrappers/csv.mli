(** Relational wrapper: loads CSV exports of relational tables into the
    graph model (the paper's "small relational databases that contain
    personnel and organizational data").

    Each row becomes an object in a collection named after the table;
    non-empty cells become attribute edges (values read with
    {!Sgraph.Value.of_literal}); empty cells produce {e no} edge — the
    natural encoding of missing attributes.  [&key] cells become object
    references; [;]-separated cells are multi-valued.

    Strict mode (no [fault]) aborts on the first malformed record with
    line and column; with a {!Fault.ctx} the wrapper recovers — bad
    records (including ragged rows and injected parse faults) are
    quarantined as structured reports and the rest of the file loads. *)

open Sgraph

exception Csv_error of string * int * int  (** message, line, column *)

type table = {
  name : string;
  headers : string list;
  rows : string list list;
}

val table_of_string : ?fault:Fault.ctx -> name:string -> string -> table
(** The first row is the header.  Rows are RFC-4180-ish: quoted fields
    may contain commas, newlines and doubled quotes.  With [fault], a
    malformed row is quarantined and the scanner resynchronizes at the
    next row boundary; ragged rows (field count ≠ header count) and
    injected per-record parse faults are quarantined too.  Strict mode
    keeps the legacy tolerance for ragged rows. *)

val load_tables : ?key:string -> Graph.t -> table list -> Oid.t list list
(** Load several tables at once: all rows are created before any cell
    loads, so [&name] references may point forwards and across tables.
    [key] names the column giving object names (default: first).
    Returns created oids per table, in row order. *)

val load_table : ?key:string -> Graph.t -> table -> Oid.t list

val load :
  ?fault:Fault.ctx -> ?graph_name:string -> ?key:string -> name:string ->
  string -> Graph.t * Oid.t list
