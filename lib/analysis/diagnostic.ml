(** Structured diagnostics for [strudel lint]: stable codes, severities,
    spans, and the text / JSON / SARIF 2.1.0 renderers. *)

type severity = Error | Warning | Info

let severity_name (s : severity) =
  match s with Error -> "error" | Warning -> "warning" | Info -> "info"

let severity_rank (s : severity) =
  match s with Error -> 2 | Warning -> 1 | Info -> 0

type span = { file : string; l1 : int; c1 : int; l2 : int; c2 : int }

type t = {
  code : string;
  severity : severity;
  message : string;
  span : span option;
  related : string list;
}

let make ?span ?(related = []) ~code severity message =
  { code; severity; message; span; related }

(* The complete diagnostic catalog.  Codes are stable: never renumber,
   only append.  A retired code leaves the list and is never reused:
   SA050 (query collections no shard of a repository manifest is home
   to) went with the shard-aware evaluator it served.  The DESIGN.md
   table mirrors this list and marks the retired rows. *)
let catalog : (string * severity * string) list =
  [
    ("SA001", Error, "StruQL query does not parse");
    ("SA002", Error, "StruQL query fails static checking");
    ("SA003", Warning, "variable is not range-restricted (active-domain)");
    ("SA004", Error, "template does not parse");
    ("SA005", Error, "mediator mapping names an undeclared source");
    ("SA010", Error, "path expression can never match the data");
    ("SA011", Warning, "edge label never occurs in the data");
    ("SA012", Warning, "WHERE atom names an absent or empty collection");
    ("SA013", Info, "path analyses skipped (DataGuide too large)");
    ("SA020", Warning, "variable is bound but never used");
    ("SA021", Warning, "collection is collected but never used");
    ("SA022", Warning, "page family is unreachable from the root family");
    ("SA023", Warning, "duplicate link clause");
    ("SA024", Error, "root family is never created");
    ("SA030", Error, "integrity constraint violated on the site schema");
    ("SA031", Info, "integrity constraint undecidable statically");
    ("SA040", Error, "template bound to a collection the queries never collect");
    ("SA041", Warning, "attribute no page of the template's family can carry");
    ("SA042", Error, "broken template reference");
    ("SA043", Info, "named template never selected by a constant link");
    ("SA060", Error,
     "data race: two unordered writes to the same shared location");
    ("SA061", Error,
     "data race: unordered read and write of the same shared location");
    ("SA062", Info, "race sanitizer run summary");
    ("SA070", Info,
     "site query block cannot be delta-evaluated; [strudel watch] \
      re-evaluates it in full each cycle");
  ]

let compare a b =
  let span_key = function
    | None -> ("", 0, 0)
    | Some s -> (s.file, s.l1, s.c1)
  in
  let c = Stdlib.compare (span_key a.span) (span_key b.span) in
  if c <> 0 then c
  else
    let c = String.compare a.code b.code in
    if c <> 0 then c else String.compare a.message b.message

let max_severity diags =
  List.fold_left
    (fun acc d ->
      match acc with
      | None -> Some d.severity
      | Some s ->
        if severity_rank d.severity > severity_rank s then Some d.severity
        else acc)
    None diags

(* --- text --- *)

let pp_span ppf s =
  if s.c1 > 0 then Fmt.pf ppf "%s:%d:%d" s.file s.l1 s.c1
  else if s.l1 > 0 then Fmt.pf ppf "%s:%d" s.file s.l1
  else Fmt.pf ppf "%s" s.file

let to_text diags =
  let buf = Buffer.create 1024 in
  List.iter
    (fun d ->
      (match d.span with
       | Some s -> Buffer.add_string buf (Fmt.str "%a: " pp_span s)
       | None -> ());
      Buffer.add_string buf
        (Printf.sprintf "%s %s: %s\n" (severity_name d.severity) d.code
           d.message);
      List.iter
        (fun r -> Buffer.add_string buf (Printf.sprintf "  note: %s\n" r))
        d.related)
    diags;
  let count sev =
    List.length (List.filter (fun d -> d.severity = sev) diags)
  in
  Buffer.add_string buf
    (Printf.sprintf "%d error(s), %d warning(s), %d info\n" (count Error)
       (count Warning) (count Info));
  Buffer.contents buf

(* --- JSON --- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_of_span s =
  Printf.sprintf
    "{\"file\":\"%s\",\"startLine\":%d,\"startColumn\":%d,\"endLine\":%d,\"endColumn\":%d}"
    (json_escape s.file) s.l1 s.c1 s.l2 s.c2

let to_json diags =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n  \"diagnostics\": [";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n    {";
      Buffer.add_string buf
        (Printf.sprintf "\"code\":\"%s\",\"severity\":\"%s\",\"message\":\"%s\""
           (json_escape d.code)
           (severity_name d.severity)
           (json_escape d.message));
      (match d.span with
       | Some s -> Buffer.add_string buf (",\"span\":" ^ json_of_span s)
       | None -> ());
      if d.related <> [] then begin
        Buffer.add_string buf ",\"related\":[";
        List.iteri
          (fun j r ->
            if j > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf (Printf.sprintf "\"%s\"" (json_escape r)))
          d.related;
        Buffer.add_char buf ']'
      end;
      Buffer.add_char buf '}')
    diags;
  let count sev =
    List.length (List.filter (fun d -> d.severity = sev) diags)
  in
  Buffer.add_string buf
    (Printf.sprintf
       "\n  ],\n  \"summary\": {\"errors\": %d, \"warnings\": %d, \"infos\": %d}\n}\n"
       (count Error) (count Warning) (count Info));
  Buffer.contents buf

(* --- SARIF 2.1.0 --- *)

let sarif_level (s : severity) =
  match s with Error -> "error" | Warning -> "warning" | Info -> "note"

let to_sarif ?(tool_version = "0.1") diags =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  Buffer.add_string buf "  \"version\": \"2.1.0\",\n";
  Buffer.add_string buf "  \"runs\": [\n    {\n";
  Buffer.add_string buf "      \"tool\": {\n        \"driver\": {\n";
  Buffer.add_string buf "          \"name\": \"strudel-lint\",\n";
  Buffer.add_string buf
    (Printf.sprintf "          \"version\": \"%s\",\n"
       (json_escape tool_version));
  Buffer.add_string buf "          \"rules\": [";
  List.iteri
    (fun i (code, sev, desc) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n            {\"id\":\"%s\",\"shortDescription\":{\"text\":\"%s\"},\"defaultConfiguration\":{\"level\":\"%s\"}}"
           code (json_escape desc) (sarif_level sev)))
    catalog;
  Buffer.add_string buf "\n          ]\n        }\n      },\n";
  Buffer.add_string buf "      \"results\": [";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n        {";
      Buffer.add_string buf
        (Printf.sprintf
           "\"ruleId\":\"%s\",\"level\":\"%s\",\"message\":{\"text\":\"%s\"}"
           (json_escape d.code) (sarif_level d.severity)
           (json_escape
              (if d.related = [] then d.message
               else d.message ^ " (" ^ String.concat "; " d.related ^ ")")));
      (match d.span with
       | Some s ->
         Buffer.add_string buf
           (Printf.sprintf
              ",\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"%s\"},\"region\":{\"startLine\":%d%s,\"endLine\":%d%s}}}]"
              (json_escape s.file) (max 1 s.l1)
              (if s.c1 > 0 then Printf.sprintf ",\"startColumn\":%d" s.c1
               else "")
              (max 1 s.l2)
              (if s.c2 > 0 then Printf.sprintf ",\"endColumn\":%d" s.c2
               else ""))
       | None -> ());
      Buffer.add_char buf '}')
    diags;
  Buffer.add_string buf "\n      ]\n    }\n  ]\n}\n";
  Buffer.contents buf
