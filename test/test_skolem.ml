open Sgraph

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let apply s f args = Skolem.apply s (Skolem.fn f) (Array.of_list args)
let v x = Graph.V x

let suite =
  [
    t "same inputs same oid" (fun () ->
        let s = Skolem.create () in
        let o1, fresh1 = apply s "F" [ v (Value.Int 1) ] in
        let o2, fresh2 = apply s "F" [ v (Value.Int 1) ] in
        check_bool "same" true (Oid.equal o1 o2);
        check_bool "first fresh" true fresh1;
        check_bool "second not fresh" false fresh2);
    t "different args different oid" (fun () ->
        let s = Skolem.create () in
        let o1, _ = apply s "F" [ v (Value.Int 1) ] in
        let o2, _ = apply s "F" [ v (Value.Int 2) ] in
        check_bool "diff" false (Oid.equal o1 o2));
    t "different functions different oid" (fun () ->
        let s = Skolem.create () in
        let o1, _ = apply s "F" [] in
        let o2, _ = apply s "G" [] in
        check_bool "diff" false (Oid.equal o1 o2));
    t "oid args keyed by identity" (fun () ->
        let s = Skolem.create () in
        let a = Oid.fresh "x" and b = Oid.fresh "x" (* same name! *) in
        let o1, _ = apply s "F" [ Graph.N a ] in
        let o2, _ = apply s "F" [ Graph.N b ] in
        check_bool "distinct oids distinct terms" false (Oid.equal o1 o2));
    t "term name readable" (fun () ->
        let s = Skolem.create () in
        let o, _ =
          apply s "YearPage" [ v (Value.Int 1997); Graph.N (Oid.fresh "pub1") ]
        in
        Alcotest.(check string) "name" "YearPage(1997,pub1)" (Oid.name o));
    t "values key as Value.equal does" (fun () ->
        let s = Skolem.create () in
        let fresh x = snd (apply s "F" [ v x ]) in
        List.iter
          (fun (what, x, expected) -> check_bool what expected (fresh x))
          [ ("Int 1", Value.Int 1, true);
            ("Float 1.0 is another term", Value.Float 1.0, true);
            ("String \"1\" is another term", Value.String "1", true);
            ("Url \"1\" is another term", Value.Url "1", true);
            ("Int 1 again", Value.Int 1, false);
            ("nan", Value.Float Float.nan, true);
            ("nan meets nan", Value.Float Float.nan, false);
            ("0.0", Value.Float 0.0, true);
            ("-0.0 is another term", Value.Float (-0.0), true);
            ("-0.0 again", Value.Float (-0.0), false);
            ("a file", Value.File (Value.Text, "1"), true);
            ("another kind of file", Value.File (Value.Image, "1"), true);
            ("null", Value.Null, true);
            ("true", Value.Bool true, true) ];
        check_int "size" 11 (Skolem.size s));
    t "a present term is no longer fresh" (fun () ->
        (* the former [find]: a term is present exactly when applying
           it again is not fresh, and applying it adds nothing *)
        let s = Skolem.create () in
        check_int "absent" 0 (Skolem.size s);
        let o, fresh = apply s "F" [] in
        check_bool "created" true fresh;
        let o', fresh' = apply s "F" [] in
        check_bool "present" true (Oid.equal o o' && not fresh');
        check_int "still one term" 1 (Skolem.size s));
    t "term_of inverse" (fun () ->
        let s = Skolem.create () in
        let args = [ v (Value.Int 7); v (Value.String "l") ] in
        let o, _ = apply s "G" args in
        check_bool "inverse" true
          (match Skolem.term_of s o with
           | Some ("G", args') -> List.equal Graph.target_equal args' args
           | _ -> false);
        check_bool "unknown oid" true (Skolem.term_of s (Oid.fresh "z") = None));
    t "terms per function and size" (fun () ->
        (* the former [functions] and [created]: every term is found
           again through [term_of], in creation order *)
        let s = Skolem.create () in
        let a, _ = apply s "A" [] in
        let b1, _ = apply s "B" [ v (Value.Int 1) ] in
        let b2, _ = apply s "B" [ v (Value.Int 2) ] in
        let fn o = Option.map fst (Skolem.term_of s o) in
        Alcotest.(check (list (option string)))
          "functions" [ Some "A"; Some "B"; Some "B" ]
          (List.map fn [ a; b1; b2 ]);
        check_bool "B's terms in creation order" true
          (Oid.compare b1 b2 < 0);
        check_int "size" 3 (Skolem.size s));
    t "an argument array is not kept" (fun () ->
        let s = Skolem.create () in
        let f = Skolem.fn "F" in
        let buf = [| v (Value.Int 1) |] in
        let o1, _ = Skolem.apply s f buf in
        buf.(0) <- v (Value.Int 2);
        let o2, fresh = Skolem.apply s f buf in
        check_bool "a second term" true (fresh && not (Oid.equal o1 o2));
        buf.(0) <- v (Value.Int 1);
        let o1', fresh' = Skolem.apply s f buf in
        check_bool "the first term again" true
          ((not fresh') && Oid.equal o1 o1'));
    t "reuse, adopt and forget_reuse" (fun () ->
        let s1 = Skolem.create () in
        let o1, _ = apply s1 "F" [ v (Value.Int 1) ] in
        let o2, _ = apply s1 "F" [ v (Value.Int 2) ] in
        let s2 = Skolem.create ~reuse:s1 () in
        let o1', fresh = apply s2 "F" [ v (Value.Int 1) ] in
        check_bool "the reused oid, new to the scope" true
          (fresh && Oid.equal o1 o1');
        Skolem.adopt s2 o2;
        check_int "adopted" 2 (Skolem.size s2);
        let o2', fresh2 = apply s2 "F" [ v (Value.Int 2) ] in
        check_bool "adopted term present" true
          ((not fresh2) && Oid.equal o2 o2');
        Skolem.forget_reuse s2;
        let o3, _ = apply s2 "F" [ v (Value.Int 3) ] in
        check_bool "a new term after forget_reuse" true
          (Skolem.term_of s1 o3 = None);
        check_bool "adopting an unknown oid raises" true
          (match Skolem.adopt s2 (Oid.fresh "z") with
           | () -> false
           | exception Invalid_argument _ -> true));
    t "scopes are independent" (fun () ->
        let s1 = Skolem.create () and s2 = Skolem.create () in
        let o1, _ = apply s1 "F" [] in
        let o2, _ = apply s2 "F" [] in
        check_bool "different scopes different nodes" false (Oid.equal o1 o2));
  ]
