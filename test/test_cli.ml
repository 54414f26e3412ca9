(* Integration tests driving the actual strudel CLI binary. *)

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cli = "../bin/strudel_cli.exe"

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec find i = i + n <= h && (String.sub hay i n = needle || find (i + 1)) in
  find 0

let write_tmp suffix content =
  let path = Filename.temp_file "strudelcli" suffix in
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  path

(* run a command, capture stdout, return (exit code, output) *)
let run_cmd cmd =
  let out_file = Filename.temp_file "strudelout" ".txt" in
  let code = Sys.command (cmd ^ " > " ^ Filename.quote out_file ^ " 2>/dev/null") in
  let ic = open_in_bin out_file in
  let n = in_channel_length ic in
  let out = really_input_string ic n in
  close_in ic;
  Sys.remove out_file;
  (code, out)

let available = Sys.file_exists cli

let guard f () = if available then f () else ()

(* `build --shards DIR` (with [--shard-by SPEC] when given) publishes
   the data graph as a repository: its segments check clean, its
   manifest names the spec, and explain-analyze over it prints the data
   file's totals. *)
let repository_case shard_by =
  t
    (match shard_by with
     | None -> "build --shards: the repository checks clean and queries as the data"
     | Some spec ->
       Printf.sprintf
         "build --shards --shard-by %s: the repository checks clean and \
          queries as the data"
         spec)
    (guard (fun () ->
      let d = write_tmp ".ddl" Sites.Paper_example.data_ddl in
      let q = write_tmp ".struql" Sites.Paper_example.site_query in
      let fresh prefix =
        let dir = Filename.temp_file prefix "" in
        Sys.remove dir;
        dir
      in
      let site = fresh "strudelsite" and repo = fresh "strudelrepo" in
      let code, out =
        run_cmd
          (Filename.quote cli ^ " build -d " ^ Filename.quote d ^ " -q "
           ^ Filename.quote q ^ " --root RootPage --shards "
           ^ Filename.quote repo
           ^ (match shard_by with
              | None -> ""
              | Some spec -> " --shard-by " ^ spec)
           ^ " -o " ^ Filename.quote site)
      in
      check_int "build exit 0" 0 code;
      check_bool "pages written" true (contains out "pages written");
      let code, out =
        run_cmd
          (Filename.quote cli ^ " repo status " ^ Filename.quote repo
           ^ " --check")
      in
      check_int "repo status --check exit 0" 0 code;
      check_bool "segments verified" true (contains out ": ok");
      check_bool "manifest names the spec" true
        (contains out
           ("spec " ^ Option.value shard_by ~default:"collection"));
      (* "total: rows=R operators=O": the elapsed time that follows
         differs run to run *)
      let totals out =
        List.filter_map
          (fun l ->
            match String.split_on_char ' ' l with
            | ("total:" as a) :: r :: o :: _ -> Some (String.concat " " [ a; r; o ])
            | _ -> None)
          (String.split_on_char '\n' out)
      in
      let code_d, out_d =
        run_cmd
          (Filename.quote cli ^ " explain-analyze -d " ^ Filename.quote d
           ^ " " ^ Filename.quote q)
      in
      let code_r, out_r =
        run_cmd
          (Filename.quote cli ^ " explain-analyze --shards "
           ^ Filename.quote repo ^ " " ^ Filename.quote q)
      in
      List.iter
        (fun dir ->
          Array.iter
            (fun f -> Sys.remove (Filename.concat dir f))
            (Sys.readdir dir);
          Sys.rmdir dir)
        [ site; repo ];
      List.iter Sys.remove [ d; q ];
      check_int "explain-analyze over the data exit 0" 0 code_d;
      check_int "explain-analyze over the repository exit 0" 0 code_r;
      check_int "one total per strategy" 3 (List.length (totals out_d));
      Alcotest.(check (list string))
        "the repository's union answers as the data" (totals out_d)
        (totals out_r)))

let suite =
  [
    t "cli binary is built" (fun () -> check_bool "exists" true available);
    t "check: valid query" (guard (fun () ->
        let q = write_tmp ".struql"
            {|WHERE C(x), x -> "a" -> y CREATE F(x) LINK F(x) -> "b" -> y|}
        in
        let code, out = run_cmd (Filename.quote cli ^ " check " ^ Filename.quote q) in
        Sys.remove q;
        check_int "exit 0" 0 code;
        check_bool "range-restricted" true (contains out "range-restricted")));
    t "check: invalid query exits nonzero" (guard (fun () ->
        let q = write_tmp ".struql"
            {|WHERE C(x) CREATE F(x) LINK x -> "b" -> F(x)|}
        in
        let code, out = run_cmd (Filename.quote cli ^ " check " ^ Filename.quote q) in
        Sys.remove q;
        check_bool "nonzero" true (code <> 0);
        check_bool "immutable message" true (contains out "immutable")));
    t "query: evaluates and prints DDL" (guard (fun () ->
        let d = write_tmp ".ddl" "object a in C { k 1 }\nobject b in C { k 2 }\n" in
        let q = write_tmp ".struql"
            {|WHERE C(x), x -> "k" -> v CREATE F(x) LINK F(x) -> "key" -> v COLLECT Out(F(x)) OUTPUT R|}
        in
        let code, out =
          run_cmd
            (Filename.quote cli ^ " query -d " ^ Filename.quote d ^ " "
             ^ Filename.quote q)
        in
        Sys.remove d;
        Sys.remove q;
        check_int "exit 0" 0 code;
        check_bool "collects" true (contains out "in Out");
        check_bool "keys" true (contains out "key 1" && contains out "key 2")));
    t "schema: prints fig5-style edges" (guard (fun () ->
        let q = write_tmp ".struql" Sites.Paper_example.site_query in
        let code, out = run_cmd (Filename.quote cli ^ " schema " ^ Filename.quote q) in
        Sys.remove q;
        check_int "exit 0" 0 code;
        check_bool "conjunction label" true (contains out "Q1^Q2")));
    t "decompose: one piece per unit" (guard (fun () ->
        let q = write_tmp ".struql" Sites.Paper_example.site_query in
        let code, out =
          run_cmd (Filename.quote cli ^ " decompose " ^ Filename.quote q)
        in
        Sys.remove q;
        check_int "exit 0" 0 code;
        check_bool "create piece" true (contains out "-- create:YearPage");
        check_bool "link piece" true (contains out "-- link:")));
    t "load: bibtex to ddl and to xml" (guard (fun () ->
        let bib = write_tmp ".bib"
            "@article{k1, title = {T}, author = {A B}, year = 1997}\n"
        in
        let code, out =
          run_cmd (Filename.quote cli ^ " load -f bibtex " ^ Filename.quote bib)
        in
        check_int "exit 0" 0 code;
        check_bool "ddl object" true (contains out "object k1 in Publications");
        let code2, out2 =
          run_cmd
            (Filename.quote cli ^ " load -f bibtex --xml " ^ Filename.quote bib)
        in
        Sys.remove bib;
        check_int "exit 0" 0 code2;
        check_bool "xml graph" true (contains out2 "<graph name=")));
    t "verify: violation exits nonzero" (guard (fun () ->
        let d = write_tmp ".ddl" "object secret_page { proprietary true }\n" in
        let code, out =
          run_cmd
            (Filename.quote cli ^ " verify -d " ^ Filename.quote d
             ^ " --no-label proprietary")
        in
        Sys.remove d;
        check_bool "nonzero" true (code <> 0);
        check_bool "violated" true (contains out "VIOLATED")));
    t "build: writes pages" (guard (fun () ->
        let d = write_tmp ".ddl" Sites.Paper_example.data_ddl in
        let q = write_tmp ".struql" Sites.Paper_example.site_query in
        let tpl = write_tmp ".tpl" "<h1>Pubs</h1><SFMTLIST @YearPage KEY=Year ORDER=ascend>" in
        let dir = Filename.temp_file "strudelsite" "" in
        Sys.remove dir;
        let code, out =
          run_cmd
            (Filename.quote cli ^ " build -d " ^ Filename.quote d ^ " -q "
             ^ Filename.quote q ^ " -t RootPages=" ^ Filename.quote tpl
             ^ " --root RootPage -o " ^ Filename.quote dir)
        in
        check_int "exit 0" 0 code;
        check_bool "report" true (contains out "pages written");
        check_bool "root page file" true
          (Sys.file_exists (Filename.concat dir "RootPage.html"));
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir;
        List.iter Sys.remove [ d; q; tpl ]));
    t "build: --jobs output identical, --stats prints profile"
      (guard (fun () ->
        let d = write_tmp ".ddl" Sites.Paper_example.data_ddl in
        let q = write_tmp ".struql" Sites.Paper_example.site_query in
        let build_to jobs =
          let dir = Filename.temp_file "strudelsite" "" in
          Sys.remove dir;
          let code, out =
            run_cmd
              (Filename.quote cli ^ " build -d " ^ Filename.quote d ^ " -q "
               ^ Filename.quote q ^ " --root RootPage --jobs "
               ^ string_of_int jobs ^ " --stats -o " ^ Filename.quote dir)
          in
          let pages =
            List.sort compare
              (List.map
                 (fun f ->
                   let ic = open_in_bin (Filename.concat dir f) in
                   let n = in_channel_length ic in
                   let s = really_input_string ic n in
                   close_in ic;
                   (f, s))
                 (Array.to_list (Sys.readdir dir)))
          in
          Array.iter
            (fun f -> Sys.remove (Filename.concat dir f))
            (Sys.readdir dir);
          Sys.rmdir dir;
          (code, out, pages)
        in
        let code1, out1, pages1 = build_to 1 in
        let code4, out4, pages4 = build_to 4 in
        List.iter Sys.remove [ d; q ];
        check_int "jobs=1 exit 0" 0 code1;
        check_int "jobs=4 exit 0" 0 code4;
        check_bool "stats profile printed" true (contains out1 "jobs=1");
        check_bool "stats shows 4 domains" true (contains out4 "jobs=4");
        check_bool "written files byte-identical" true (pages1 = pages4)));
    t "build: --jobs 0 auto-detects, output byte-identical to --jobs 1"
      (guard (fun () ->
        let d = write_tmp ".ddl" Sites.Paper_example.data_ddl in
        let q = write_tmp ".struql" Sites.Paper_example.site_query in
        let build_to flags =
          let dir = Filename.temp_file "strudelsite" "" in
          Sys.remove dir;
          let code, out =
            run_cmd
              (Filename.quote cli ^ " build -d " ^ Filename.quote d ^ " -q "
               ^ Filename.quote q ^ " --root RootPage " ^ flags ^ " -o "
               ^ Filename.quote dir)
          in
          let pages =
            List.sort compare
              (List.map
                 (fun f ->
                   let ic = open_in_bin (Filename.concat dir f) in
                   let n = in_channel_length ic in
                   let s = really_input_string ic n in
                   close_in ic;
                   (f, s))
                 (Array.to_list (Sys.readdir dir)))
          in
          Array.iter
            (fun f -> Sys.remove (Filename.concat dir f))
            (Sys.readdir dir);
          Sys.rmdir dir;
          (code, out, pages)
        in
        let code1, _, pages1 = build_to "--jobs 1" in
        let code0, out0, pages0 = build_to "--jobs 0 --stats" in
        List.iter Sys.remove [ d; q ];
        check_int "jobs=1 exit 0" 0 code1;
        check_int "jobs=0 exit 0" 0 code0;
        check_bool "auto-detected profile printed" true
          (contains out0
             (Printf.sprintf "jobs=%d" (Pool.auto_jobs ())));
        check_bool "written files byte-identical" true (pages1 = pages0)));
    repository_case None;
    repository_case (Some "family");
    t "lint: bundled site in all three formats"
      (guard (fun () ->
        let code, text = run_cmd (cli ^ " lint cnn") in
        check_int "text exit 0" 0 code;
        check_bool "summary line" true (contains text "error(s)");
        check_bool "known cnn warning" true (contains text "SA020");
        let code, json = run_cmd (cli ^ " lint cnn --format json") in
        check_int "json exit 0" 0 code;
        check_bool "json summary" true (contains json "\"summary\"");
        let code, sarif = run_cmd (cli ^ " lint examples/cnn --format sarif") in
        check_int "sarif exit 0" 0 code;
        check_bool "sarif version" true (contains sarif "\"2.1.0\"");
        check_bool "sarif driver" true (contains sarif "strudel-lint")));
    t "lint: --fail-on warning gates the exit code"
      (guard (fun () ->
        let code, _ = run_cmd (cli ^ " lint cnn --fail-on warning") in
        check_int "warnings gate" 1 code;
        let code, _ = run_cmd (cli ^ " lint rodin --fail-on warning") in
        check_int "rodin is warning-free" 0 code));
    t "lint: query file with an error diagnostic"
      (guard (fun () ->
        let q = write_tmp ".struql"
            {|INPUT D
{ CREATE Root() COLLECT Roots(Root()) }
OUTPUT S|}
        in
        (* root family RootPage is never created -> SA024, exit 1 *)
        let code, out = run_cmd (cli ^ " lint " ^ Filename.quote q) in
        Sys.remove q;
        check_int "exit 1" 1 code;
        check_bool "SA024" true (contains out "SA024")));
    t "lint: unknown site exits 2"
      (guard (fun () ->
        let code, _ = run_cmd (cli ^ " lint no_such_site_anywhere") in
        check_int "exit 2" 2 code));
    t "bench: unknown experiment name exits nonzero"
      (guard (fun () ->
        let code, _ = run_cmd "../bench/main.exe E99_no_such_experiment" in
        check_bool "nonzero" true (code <> 0)));
    t "bench: named experiment selection runs"
      (guard (fun () ->
        let code, out = run_cmd "../bench/main.exe E2" in
        check_int "exit 0" 0 code;
        check_bool "ran E2" true (contains out "E2");
        check_bool "ran only E2" true (not (contains out "E1 —"))));
  ]
