(** Relational wrapper: loads CSV exports of relational tables into the
    graph model (the paper's "small relational databases that contain
    personnel and organizational data").

    Each row becomes an object in a collection named after the table;
    each non-empty cell becomes an attribute edge whose value is read
    with {!Sgraph.Value.of_literal}.  Empty cells produce {e no} edge —
    the natural encoding of missing attributes in the semistructured
    model.  Cells referencing other rows ([&key]) become object
    references (foreign keys).

    Errors carry line {e and column}.  In the default (strict) mode a
    malformed record aborts the load, as a database loader would; with
    a {!Fault.ctx} the wrapper {e recovers}: the bad record is
    quarantined as a structured report (source, location, cause, raw
    excerpt), the scanner resynchronizes at the next row boundary, and
    the remaining records load normally.  Recovering mode additionally
    rejects ragged rows (field count ≠ header count), which strict mode
    tolerates for compatibility with legacy exports. *)

open Sgraph

exception Csv_error of string * int * int  (** message, line, column *)

(* RFC-4180-ish parsing: quoted fields may contain commas, newlines and
   doubled quotes.  Returns each row with the line it starts on. *)
let parse_rows_loc ?fault ~source (src : string) : (string list * int) list =
  let n = String.length src in
  let rows = ref [] in
  let fields = ref [] in
  let buf = Buffer.create 32 in
  let line = ref 1 in
  let col = ref 1 in
  let row_line = ref 1 in
  let row_start = ref 0 in
  let i = ref 0 in
  let in_quotes = ref false in
  let push_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  let start_row () =
    row_line := !line;
    row_start := !i
  in
  let push_row () =
    push_field ();
    rows := (List.rev !fields, !row_line) :: !rows;
    fields := [];
    start_row ()
  in
  (* advance consuming one char's worth of position bookkeeping *)
  let step ?(chars = 1) () =
    i := !i + chars;
    col := !col + chars
  in
  let newline () =
    incr line;
    col := 1
  in
  (* Recovery: drop the current (broken) row, resynchronize after the
     next raw newline.  If the error happened inside a quoted field
     that legitimately contains newlines the resync may split it — an
     accepted heuristic, since the quoting state is exactly what broke. *)
  let resync () =
    Buffer.clear buf;
    fields := [];
    in_quotes := false;
    let continue = ref true in
    while !continue && !i < n do
      (match src.[!i] with
       | '\n' ->
         newline ();
         continue := false
       | _ -> incr col);
      incr i
    done;
    start_row ()
  in
  let error msg =
    match fault with
    | None -> raise (Csv_error (msg, !line, !col))
    | Some c ->
      let excerpt_end = min n (!row_start + 120) in
      Fault.record c
        (Fault.report ~stage:Fault.Ingest ~source
           ~location:(Printf.sprintf "line %d, column %d" !line !col)
           ~cause:msg
           ~excerpt:(String.sub src !row_start (excerpt_end - !row_start))
           ());
      resync ()
  in
  start_row ();
  while !i < n do
    let c = src.[!i] in
    if !in_quotes then begin
      if c = '"' then
        if !i + 1 < n && src.[!i + 1] = '"' then begin
          Buffer.add_char buf '"';
          step ~chars:2 ()
        end
        else begin
          in_quotes := false;
          step ()
        end
      else begin
        Buffer.add_char buf c;
        step ();
        if c = '\n' then newline ()
      end
    end
    else
      match c with
      | '"' ->
        if Buffer.length buf = 0 then begin
          in_quotes := true;
          step ()
        end
        else error "quote inside unquoted field"
      | ',' ->
        push_field ();
        step ()
      | '\r' -> step ()
      | '\n' ->
        (* consume and account the newline first, so the row we push
           keeps its recorded start line while the next row's origin
           (set by [push_row]'s [start_row]) is the new line *)
        incr i;
        newline ();
        push_row ()
      | c ->
        Buffer.add_char buf c;
        step ()
  done;
  if !in_quotes then error "unterminated quoted field";
  if not !in_quotes && (Buffer.length buf > 0 || !fields <> []) then
    push_row ();
  (* drop fully empty trailing rows *)
  List.rev !rows |> List.filter (fun (r, _) -> r <> [ "" ] && r <> [])

type table = {
  name : string;
  headers : string list;
  rows : string list list;
}

let table_of_string ?fault ~name src =
  match parse_rows_loc ?fault ~source:name src with
  | [] -> { name; headers = []; rows = [] }
  | (headers, _) :: rows ->
    let rows =
      match fault with
      | None -> List.map fst rows
      | Some c ->
        (* recovering mode: quarantine ragged rows (strict mode keeps
           the legacy tolerance) and honour injected parse faults *)
        let inject = Fault.inject fault in
        let width = List.length headers in
        List.filteri
          (fun idx (row, row_line) ->
            let ok =
              match Fault.Inject.fire inject (Fault.Inject.Parse (name, idx)) with
              | () ->
                if List.length row = width then true
                else begin
                  Fault.record c
                    (Fault.report ~stage:Fault.Ingest ~source:name
                       ~location:(Printf.sprintf "line %d" row_line)
                       ~cause:
                         (Printf.sprintf "ragged row: %d field(s), expected %d"
                            (List.length row) width)
                       ~excerpt:(String.concat "," row) ());
                  false
                end
              | exception Fault.Inject.Injected msg ->
                Fault.record c
                  (Fault.report ~stage:Fault.Ingest ~source:name
                     ~location:(Printf.sprintf "line %d" row_line) ~cause:msg
                     ~excerpt:(String.concat "," row) ());
                false
            in
            ok)
          rows
        |> List.map fst
    in
    { name; headers; rows }

(** Load several tables into [g] at once: all rows of all tables are
    created first, then cells are added, so [&name] references may
    point forwards and across tables (a people table referencing an
    orgs table that references the people back).  Returns the created
    oids per table, in row order. *)
let rec load_tables ?key g (tables : table list) : Oid.t list list =
  (* first pass: create every object of every table *)
  let created =
    List.map
      (fun t ->
        let key_idx =
          match key with
          | None -> 0
          | Some k -> (
              match List.find_index (fun h -> h = k) t.headers with
              | Some i -> i
              | None -> 0)
        in
        List.map
          (fun row ->
            let name =
              match List.nth_opt row key_idx with
              | Some v when v <> "" -> v
              | _ -> t.name ^ "_row"
            in
            let o = Graph.new_node g name in
            Graph.add_to_collection g t.name o;
            (o, row))
          t.rows)
      tables
  in
  let deferred = ref [] in
  List.iter2
    (fun t objs ->
      List.iter
        (fun (o, row) ->
          List.iteri
            (fun i cell ->
              if cell <> "" then
                match List.nth_opt t.headers i with
                | None | Some "" -> ()
                | Some h ->
                  if String.length cell > 1 && cell.[0] = '&' then
                    deferred :=
                      (o, h, String.sub cell 1 (String.length cell - 1))
                      :: !deferred
                  else
                    List.iter
                      (fun part ->
                        let part = String.trim part in
                        if part <> "" then
                          Graph.add_edge g o h
                            (Graph.V (Value.of_literal part)))
                      (String.split_on_char ';' cell))
            row)
        objs)
    tables created;
  List.iter
    (fun (o, h, refname) ->
      match Graph.find_node g refname with
      | Some o' -> Graph.add_edge g o h (Graph.N o')
      | None ->
        (* dangling foreign key: keep it as a string, as a real
           integration would surface it for cleaning *)
        Graph.add_edge g o h (Graph.V (Value.String ("&" ^ refname))))
    (List.rev !deferred);
  List.map (fun objs -> List.map fst objs) created

(** Load a single table; see {!load_tables}.  [key] names the column
    whose value becomes the object's name (default: first column). *)
and load_table ?key g (t : table) : Oid.t list =
  (match key with
   | Some k when not (List.mem k t.headers) ->
     raise (Csv_error ("no column named " ^ k, 1, 1))
   | _ -> ());
  match load_tables ?key g [ t ] with
  | [ os ] -> os
  | _ -> assert false

let load ?fault ?(graph_name = "RDB") ?key ~name src =
  let g = Graph.create ~name:graph_name () in
  let os = load_table ?key g (table_of_string ?fault ~name src) in
  (g, os)
