open Sgraph

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let suite =
  [
    t "same inputs same oid" (fun () ->
        let s = Skolem.create () in
        let o1, fresh1 = Skolem.apply s "F" [ Skolem.A_val (Value.Int 1) ] in
        let o2, fresh2 = Skolem.apply s "F" [ Skolem.A_val (Value.Int 1) ] in
        check_bool "same" true (Oid.equal o1 o2);
        check_bool "first fresh" true fresh1;
        check_bool "second not fresh" false fresh2);
    t "different args different oid" (fun () ->
        let s = Skolem.create () in
        let o1, _ = Skolem.apply s "F" [ Skolem.A_val (Value.Int 1) ] in
        let o2, _ = Skolem.apply s "F" [ Skolem.A_val (Value.Int 2) ] in
        check_bool "diff" false (Oid.equal o1 o2));
    t "different functions different oid" (fun () ->
        let s = Skolem.create () in
        let o1, _ = Skolem.apply s "F" [] in
        let o2, _ = Skolem.apply s "G" [] in
        check_bool "diff" false (Oid.equal o1 o2));
    t "oid args keyed by identity" (fun () ->
        let s = Skolem.create () in
        let a = Oid.fresh "x" and b = Oid.fresh "x" (* same name! *) in
        let o1, _ = Skolem.apply s "F" [ Skolem.A_oid a ] in
        let o2, _ = Skolem.apply s "F" [ Skolem.A_oid b ] in
        check_bool "distinct oids distinct terms" false (Oid.equal o1 o2));
    t "term name readable" (fun () ->
        Alcotest.(check string) "name" "YearPage(1997)"
          (Skolem.term_name "YearPage" [ Skolem.A_val (Value.Int 1997) ]));
    t "find" (fun () ->
        let s = Skolem.create () in
        check_bool "absent" true (Skolem.find s "F" [] = None);
        let o, _ = Skolem.apply s "F" [] in
        check_bool "present" true
          (match Skolem.find s "F" [] with
           | Some o' -> Oid.equal o o'
           | None -> false));
    t "term_of inverse" (fun () ->
        let s = Skolem.create () in
        let args =
          [ Skolem.A_val (Value.Int 7); Skolem.A_val (Value.String "l") ]
        in
        let o, _ = Skolem.apply s "G" args in
        check_bool "inverse" true
          (match Skolem.term_of s o with
           | Some ("G", args') -> args' = args
           | _ -> false);
        check_bool "unknown oid" true (Skolem.term_of s (Oid.fresh "z") = None));
    t "functions and created" (fun () ->
        let s = Skolem.create () in
        ignore (Skolem.apply s "A" []);
        ignore (Skolem.apply s "B" [ Skolem.A_val (Value.Int 1) ]);
        ignore (Skolem.apply s "B" [ Skolem.A_val (Value.Int 2) ]);
        Alcotest.(check (list string)) "fns" [ "A"; "B" ] (Skolem.functions s);
        check_int "created B" 2 (List.length (Skolem.created s "B"));
        check_int "size" 3 (Skolem.size s));
    t "scopes are independent" (fun () ->
        let s1 = Skolem.create () and s2 = Skolem.create () in
        let o1, _ = Skolem.apply s1 "F" [] in
        let o2, _ = Skolem.apply s2 "F" [] in
        check_bool "different scopes different nodes" false (Oid.equal o1 o2));
  ]
