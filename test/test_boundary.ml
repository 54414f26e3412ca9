(* Parser boundaries: every byte-facing parser, fed inputs seeded from
   the bundled sites and then byte-mutated and truncated, returns a
   result or raises its documented exception, and nothing else escapes.
   The CSV and BibTeX wrappers have fuzzers of their own (test_fault). *)

open Sgraph

(* Each edit overwrites a byte with a random one or with a byte of the
   input itself (so syntax characters move around), or deletes a byte;
   the result may then be truncated. *)
let mutated seeds =
  let open QCheck.Gen in
  let* s = oneofl (Lazy.force seeds) in
  let* edits =
    list_size (int_range 1 4) (triple (int_bound 2) nat (int_bound 255))
  in
  let* cut = oneof [ return max_int; nat ] in
  let apply s (kind, i, c) =
    let n = String.length s in
    if n = 0 then s
    else
      let i = i mod n in
      match kind with
      | 0 -> String.mapi (fun j x -> if j = i then Char.chr c else x) s
      | 1 -> String.mapi (fun j x -> if j = i then s.[c mod n] else x) s
      | _ -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
  in
  let s = List.fold_left apply s edits in
  return (String.sub s 0 (min cut (String.length s)))

let boundary name ?(count = 400) seeds ~documented parse =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name
       (QCheck.make ~print:(Printf.sprintf "%S") (mutated seeds))
       (fun input ->
         match parse input with
         | () -> true
         | exception e when documented e -> true
         | exception e ->
           QCheck.Test.fail_reportf "%s escaped" (Printexc.to_string e)))

(* --- seeds --- *)

let paper = lazy (Sites.Paper_example.build ())

let ddl_seeds =
  lazy
    [ Sites.Paper_example.data_ddl;
      Ddl.print (Sites.Homepage.data ~entries:3 ());
      Ddl.print (Sites.Rodin.data ()) ]

let struql_seeds =
  lazy
    [ Sites.Paper_example.site_query; Sites.Homepage.site_query;
      Sites.Org.site_query; Sites.Rodin.site_query; Sites.Scale.site_query ]

let template_seeds =
  lazy
    (List.concat_map
       (fun (ts : Template.Generator.template_set) ->
         List.map snd (ts.by_collection @ ts.by_object @ ts.named))
       [ Sites.Paper_example.templates; Sites.Cnn.templates;
         Sites.Rodin.templates; Sites.Scale.templates ])

let xml_seeds =
  lazy
    [ Xml.export (Sites.Paper_example.data ());
      Xml.export (Sites.Homepage.data ~entries:2 ()) ]

let pages =
  lazy
    (List.map
       (fun (p : Template.Generator.page) -> (p.url, p.html))
       (Lazy.force paper).Strudel.Site.site.Template.Generator.pages)

let http_seeds =
  lazy
    (List.concat_map
       (fun (url, html) ->
         [ Printf.sprintf "GET /%s HTTP/1.1\r\nHost: localhost\r\n\r\n" url;
           Printf.sprintf
             "HEAD /%s?x=1 HTTP/1.0\r\nConnection: keep-alive\r\n\
              If-None-Match: \"e1\"\r\n\r\n"
             url;
           Printf.sprintf
             "POST /%s HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" url
             (String.length html) html ])
       (List.filteri (fun i _ -> i < 3) (Lazy.force pages)))

let html_seeds = lazy (List.map snd (Lazy.force pages))

let structured_seeds =
  lazy [ Wrappers.Synth.projects_file ~seed:3 ~projects:3 ~people:4 () ]

(* A segment is a header (magic, version and body length as varints, an
   FNV-1a 64 checksum) before its body.  Sealing a mutated body gives
   it a header that matches, so the mutation reaches the body decoder;
   unsealed, the checksum or length check meets it first. *)
let varint n =
  let b = Buffer.create 4 and n = ref n in
  while !n >= 0x80 do
    Buffer.add_char b (Char.chr (!n land 0x7f lor 0x80));
    n := !n lsr 7
  done;
  Buffer.add_char b (Char.chr !n);
  Buffer.contents b

let fnv s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h :=
        Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let seal body =
  let sum = Bytes.create 8 in
  Bytes.set_int64_le sum 0 (fnv body);
  String.concat ""
    [ Repository.Segment.magic; varint 2; varint (String.length body);
      Bytes.to_string sum; body ]

let body_of s =
  let rec varint_end i =
    if Char.code s.[i] land 0x80 = 0 then i + 1 else varint_end (i + 1)
  in
  let h =
    varint_end (varint_end (String.length Repository.Segment.magic)) + 8
  in
  String.sub s h (String.length s - h)

(* a standalone segment, and a shard of a repository, which carries
   global ids and sequence numbers *)
let segment_bodies =
  lazy
    (let g = Sites.Paper_example.data () in
     let whole = Repository.Segment.whole g in
     body_of (Repository.Segment.encode g)
     :: List.map
          (fun (_, sg) -> body_of (Repository.Segment.encode ~whole sg))
          (Repository.Shard.partition Repository.Shard.By_collection g))

let segment_seeds =
  lazy (List.map seal (Lazy.force segment_bodies) @ Lazy.force segment_bodies)

let decode_segment input =
  (* a seed without its header is a body to seal *)
  let s =
    if String.starts_with ~prefix:Repository.Segment.magic input then input
    else seal input
  in
  ignore (Repository.Segment.to_graph [ Repository.Segment.of_string s ])

let suite =
  [
    boundary "DDL: Ddl_error or a graph" ddl_seeds
      ~documented:(function Ddl.Ddl_error _ -> true | _ -> false)
      (fun s -> ignore (Ddl.parse s));
    boundary "StruQL: Parse_error or a query" struql_seeds
      ~documented:(function Struql.Parser.Parse_error _ -> true | _ -> false)
      (fun s -> ignore (Struql.Parser.parse s));
    boundary "templates: Template_error or a template" ~count:1000
      template_seeds
      ~documented:(function
        | Template.Tparse.Template_error _ -> true
        | _ -> false)
      (fun s -> ignore (Template.Tparse.parse s));
    boundary "XML import: Xml_error or a graph" xml_seeds
      ~documented:(function Xml.Xml_error _ -> true | _ -> false)
      (fun s -> ignore (Xml.import s));
    boundary "HTTP request reader: Bad_request or requests" http_seeds
      ~documented:(function Serve.Http.Bad_request _ -> true | _ -> false)
      (fun s ->
        let pos = ref 0 in
        let read b off len =
          let n = min len (String.length s - !pos) in
          Bytes.blit_string s !pos b off n;
          pos := !pos + n;
          n
        in
        let buf = Serve.Http.create_buf () in
        while Serve.Http.read_request ~read buf <> None do
          ()
        done);
    boundary "HTML wrapper: an object, always" html_seeds
      ~documented:(fun _ -> false)
      (fun s ->
        ignore
          (Wrappers.Html_wrapper.load_page (Graph.create ()) ~name:"p" s));
    boundary "structured files: Structured_error or objects" structured_seeds
      ~documented:(function
        | Wrappers.Structured_file.Structured_error _ -> true
        | _ -> false)
      (fun s -> ignore (Wrappers.Structured_file.load s));
    boundary "segments: Corrupt or a graph" ~count:1000 segment_seeds
      ~documented:(function Repository.Segment.Corrupt _ -> true | _ -> false)
      decode_segment;
  ]
