open Dpoaf_logic
open Dpoaf_automata
module Smv_reader = Dpoaf_oracle.Smv_reader

let sym atoms = Symbol.of_atoms atoms

let kripke ?(descr = None) ~labels ~succs ~initial () =
  let labels = Array.of_list (List.map sym labels) in
  let succs = Array.of_list succs in
  ignore descr;
  Kripke.make ~labels ~succs ~initial ()

let check_holds name k phi_str expected =
  let phi = Ltl.parse_exn phi_str in
  let verdict = Model_checker.check_kripke k phi in
  Alcotest.(check bool) (name ^ ": " ^ phi_str) expected (Model_checker.is_holds verdict)

(* --- known-answer model checking --- *)

let k_single = kripke ~labels:[ [ "p" ] ] ~succs:[ [ 0 ] ] ~initial:[ 0 ] ()

let test_mc_single_state () =
  check_holds "single" k_single "G p" true;
  check_holds "single" k_single "F q" false;
  check_holds "single" k_single "G !p" false;
  check_holds "single" k_single "X p" true;
  check_holds "single" k_single "p U q" false;
  check_holds "single" k_single "G F p" true;
  check_holds "single" k_single "p" true;
  check_holds "single" k_single "!p" false

let k_cycle =
  kripke ~labels:[ [ "p" ]; [ "q" ] ] ~succs:[ [ 1 ]; [ 0 ] ] ~initial:[ 0 ] ()

let test_mc_two_cycle () =
  check_holds "cycle" k_cycle "G F q" true;
  check_holds "cycle" k_cycle "G F p" true;
  check_holds "cycle" k_cycle "G p" false;
  check_holds "cycle" k_cycle "X q" true;
  check_holds "cycle" k_cycle "X X p" true;
  check_holds "cycle" k_cycle "p U q" true;
  check_holds "cycle" k_cycle "F G p" false;
  check_holds "cycle" k_cycle "G (p -> X q)" true;
  check_holds "cycle" k_cycle "G (q -> X p)" true

let k_branch =
  kripke
    ~labels:[ [ "p" ]; [ "q" ]; [ "r" ] ]
    ~succs:[ [ 1; 2 ]; [ 1 ]; [ 2 ] ]
    ~initial:[ 0 ] ()

let test_mc_branching () =
  check_holds "branch" k_branch "F (q | r)" true;
  check_holds "branch" k_branch "F q" false;
  check_holds "branch" k_branch "F r" false;
  check_holds "branch" k_branch "G (p -> X (q | r))" true;
  check_holds "branch" k_branch "X q" false;
  (* every path eventually stabilizes in q or in r *)
  check_holds "branch" k_branch "F G q | F G r" true

let test_mc_multi_initial () =
  let k =
    kripke ~labels:[ [ "p" ]; [ "q" ] ] ~succs:[ [ 0 ]; [ 1 ] ] ~initial:[ 0; 1 ] ()
  in
  check_holds "multi" k "G p" false;
  check_holds "multi" k "G q" false;
  check_holds "multi" k "G p | G q" true

let test_mc_counterexample_violates () =
  let phi = Ltl.parse_exn "G (p -> X q)" in
  match Model_checker.check_kripke k_branch phi with
  | Model_checker.Holds -> Alcotest.fail "expected failure"
  | Model_checker.Fails cex ->
      let prefix = Array.of_list cex.Model_checker.prefix in
      let cycle = Array.of_list cex.Model_checker.cycle in
      Alcotest.(check bool) "cex violates" false
        (Trace.eval_lasso phi ~prefix ~cycle)

let test_mc_stutter_deadlock () =
  (* Deadlocked state gets a self-loop: labels repeat forever. *)
  let k = kripke ~labels:[ [ "p" ]; [ "q" ] ] ~succs:[ [ 1 ]; [] ] ~initial:[ 0 ] () in
  check_holds "deadlock" k "F G q" true;
  check_holds "deadlock" k "G F p" false

(* --- tableau spot checks --- *)

let test_tableau_sizes () =
  let gnba = Tableau.gnba_of_ltl (Ltl.parse_exn "p U q") in
  Alcotest.(check bool) "nonempty" true (gnba.Buchi.n > 0);
  Alcotest.(check int) "one acceptance set" 1 (Array.length gnba.Buchi.accept)

let test_tableau_false () =
  let gnba = Tableau.gnba_of_ltl Ltl.False in
  Alcotest.(check (list int)) "no initial" [] gnba.Buchi.initial

(* A formula from the property generator whose negation once took the
   tableau tens of seconds: completed nodes were found by a linear scan. *)
let test_tableau_large () =
  let phi =
    Ltl.parse_exn "(G (p U q) & F (true U p)) U ((q R p) U q) U (p U q) R G q"
  in
  let gnba = Tableau.gnba_of_ltl (Ltl.neg phi) in
  let edges = Array.fold_left (fun acc s -> acc + List.length s) 0 gnba.Buchi.succs in
  Alcotest.(check (pair int int)) "states, edges" (2094, 107593) (gnba.Buchi.n, edges)

let test_degeneralize_no_sets () =
  let gnba =
    {
      Buchi.n = 1;
      initial = [ 0 ];
      pos = [| Symbol.empty |];
      neg = [| Symbol.empty |];
      succs = [| [ 0 ] |];
      accept = [||];
    }
  in
  let nba = Buchi.degeneralize gnba in
  Alcotest.(check bool) "all accepting" true (Array.for_all Fun.id nba.Buchi.accepting)

(* --- transition systems --- *)

let traffic_light_ts () =
  Ts.make ~name:"tl"
    ~states:[ ("green", sym [ "green" ]); ("yellow", sym [ "yellow" ]); ("red", sym [ "red" ]) ]
    ~transitions:[ ("green", "yellow"); ("yellow", "red"); ("red", "green") ]
    ()

let test_ts_make () =
  let ts = traffic_light_ts () in
  Alcotest.(check int) "3 states" 3 (Ts.n_states ts);
  Alcotest.(check bool) "total" true (Ts.is_total ts);
  Alcotest.(check (list int)) "green -> yellow" [ 1 ]
    (Ts.successors ts (Ts.state_of_name ts "green"))

let test_ts_make_errors () =
  let mk () =
    Ts.make ~name:"bad"
      ~states:[ ("a", Symbol.empty); ("a", Symbol.empty) ]
      ~transitions:[] ()
  in
  Alcotest.(check bool) "duplicate rejected" true
    (try ignore (mk ()); false with Invalid_argument _ -> true);
  let mk2 () =
    Ts.make ~name:"bad" ~states:[ ("a", Symbol.empty) ]
      ~transitions:[ ("a", "zz") ] ()
  in
  Alcotest.(check bool) "unknown state rejected" true
    (try ignore (mk2 ()); false with Invalid_argument _ -> true)

let test_ts_of_propositions () =
  (* The paper's Algorithm 1 example: red-green-yellow cycle keeps only the
     three singleton states. *)
  let single a l = Symbol.equal l (sym [ a ]) in
  let allowed a b =
    (single "green" a && single "red" b)
    || (single "red" a && single "yellow" b)
    || (single "yellow" a && single "green" b)
  in
  let ts =
    Ts.of_propositions ~name:"tl" ~props:[ "green"; "yellow"; "red" ] ~allowed ()
  in
  Alcotest.(check int) "three states remain" 3 (Ts.n_states ts);
  Alcotest.(check bool) "total" true (Ts.is_total ts)

let test_ts_of_propositions_keep () =
  let ts =
    Ts.of_propositions ~name:"all" ~props:[ "a" ] ~allowed:(fun _ _ -> false)
      ~keep_isolated:true ()
  in
  Alcotest.(check int) "2^1 states kept" 2 (Ts.n_states ts)

let test_ts_union () =
  let a = traffic_light_ts () in
  let b =
    Ts.make ~name:"b" ~states:[ ("x", sym [ "x" ]) ] ~transitions:[ ("x", "x") ] ()
  in
  let u = Ts.union ~name:"u" [ a; b ] in
  Alcotest.(check int) "4 states" 4 (Ts.n_states u);
  Alcotest.(check int) "4 initial" 4 (List.length u.Ts.initial);
  Alcotest.(check bool) "props merged" true
    (Symbol.mem "x" (Ts.propositions u) && Symbol.mem "green" (Ts.propositions u))

(* --- controllers and products --- *)

let wait_go_controller () =
  (* q0: wait (emit stop) until green; then go straight forever. *)
  Fsa.make ~name:"wait-go" ~n_states:2 ~init:0
    ~transitions:
      [
        { Fsa.src = 0; guard = Fsa.Gnot (Fsa.Gatom "green"); action = sym [ "stop" ]; dst = 0 };
        { Fsa.src = 0; guard = Fsa.Gatom "green"; action = sym [ "go" ]; dst = 1 };
        { Fsa.src = 1; guard = Fsa.Gtrue; action = sym [ "go" ]; dst = 1 };
      ]
    ()

let test_fsa_enabled () =
  let c = wait_go_controller () in
  Alcotest.(check int) "one enabled on red" 1 (List.length (Fsa.enabled c 0 (sym [ "red" ])));
  let acts = Fsa.enabled c 0 (sym [ "green" ]) in
  Alcotest.(check int) "one enabled on green" 1 (List.length acts);
  let action, dst = List.hd acts in
  Alcotest.(check bool) "go action" true (Symbol.mem "go" action);
  Alcotest.(check int) "advances" 1 dst

let test_fsa_input_enabled () =
  let c = wait_go_controller () in
  Alcotest.(check bool) "input enabled" true
    (Fsa.is_input_enabled c ~over:[ sym [ "green" ]; sym [ "red" ]; Symbol.empty ])

let test_fsa_make_errors () =
  Alcotest.(check bool) "bad init" true
    (try
       ignore (Fsa.make ~name:"x" ~n_states:1 ~init:3 ~transitions:[] ());
       false
     with Invalid_argument _ -> true)

let test_product_build () =
  let model = traffic_light_ts () in
  let c = wait_go_controller () in
  let p = Product.build ~model ~controller:c in
  Alcotest.(check int) "3 initial product states" 3 (List.length p.Product.initial);
  Alcotest.(check bool) "no deadlocks" true (p.Product.deadlocks = []);
  Alcotest.(check bool) "has edges" true (List.length p.Product.edges > 0)

let careful_controller () =
  (* Re-checks the light at every instant: goes only while green. *)
  Fsa.make ~name:"careful" ~n_states:1 ~init:0
    ~transitions:
      [
        { Fsa.src = 0; guard = Fsa.Gnot (Fsa.Gatom "green"); action = sym [ "stop" ]; dst = 0 };
        { Fsa.src = 0; guard = Fsa.Gatom "green"; action = sym [ "go" ]; dst = 0 };
      ]
    ()

let test_product_verification () =
  let model = traffic_light_ts () in
  let flawed = wait_go_controller () in
  (* The wait-go controller goes forever after the first green — the
     paper's "checked once, never re-checked" flaw (cf. the Φ5
     counterexample in §5.1).  The model checker must catch it. *)
  let phi = Ltl.parse_exn "G (go -> green)" in
  Alcotest.(check bool) "flawed controller caught" false
    (Model_checker.is_holds (Model_checker.check ~model ~controller:flawed phi));
  Alcotest.(check bool) "flawed red-go caught" false
    (Model_checker.is_holds
       (Model_checker.check ~model ~controller:flawed (Ltl.parse_exn "G (red -> !go)")));
  (* At the very first instant the flaw has not yet manifested. *)
  Alcotest.(check bool) "initial instant safe" true
    (Model_checker.is_holds
       (Model_checker.check ~model ~controller:flawed (Ltl.parse_exn "go -> green")));
  Alcotest.(check bool) "always acts" true
    (Model_checker.is_holds
       (Model_checker.check ~model ~controller:flawed (Ltl.parse_exn "G (stop | go)")));
  (* The careful controller satisfies the safety specs the flawed one fails. *)
  let careful = careful_controller () in
  Alcotest.(check bool) "careful go only on green" true
    (Model_checker.is_holds (Model_checker.check ~model ~controller:careful phi));
  Alcotest.(check bool) "careful red implies stop" true
    (Model_checker.is_holds
       (Model_checker.check ~model ~controller:careful (Ltl.parse_exn "G (red -> !go)")));
  (* Liveness: the light cycles, so the careful controller goes infinitely
     often. *)
  Alcotest.(check bool) "careful eventually goes" true
    (Model_checker.is_holds
       (Model_checker.check ~model ~controller:careful (Ltl.parse_exn "G F go")))

let test_product_counterexample_trace () =
  let model = traffic_light_ts () in
  let c = wait_go_controller () in
  let phi = Ltl.parse_exn "G (red -> !go)" in
  match Model_checker.check ~model ~controller:c phi with
  | Model_checker.Holds -> Alcotest.fail "expected failure"
  | Model_checker.Fails cex ->
      Alcotest.(check bool) "cex violates spec" false
        (Trace.eval_lasso phi
           ~prefix:(Array.of_list cex.Model_checker.prefix)
           ~cycle:(Array.of_list cex.Model_checker.cycle))

let test_count_satisfied () =
  let model = traffic_light_ts () in
  let specs =
    [
      ("s1", Ltl.parse_exn "G (go -> green)");
      ("s2", Ltl.parse_exn "G (red -> !go)");
      ("s3", Ltl.parse_exn "G (stop | go)");
    ]
  in
  Alcotest.(check int) "flawed: 1 of 3" 1
    (Model_checker.count_satisfied ~model ~controller:(wait_go_controller ()) ~specs);
  Alcotest.(check int) "careful: 3 of 3" 3
    (Model_checker.count_satisfied ~model ~controller:(careful_controller ()) ~specs)

let test_deadlock_product () =
  (* Controller with no enabled transition on yellow: deadlock is stuttered. *)
  let model = traffic_light_ts () in
  let c =
    Fsa.make ~name:"partial" ~n_states:1 ~init:0
      ~transitions:
        [ { Fsa.src = 0; guard = Fsa.Gatom "green"; action = sym [ "go" ]; dst = 0 } ]
      ()
  in
  let p = Product.build ~model ~controller:c in
  Alcotest.(check bool) "deadlocks exist" true (p.Product.deadlocks <> []);
  let k = Product.to_kripke p in
  Alcotest.(check bool) "kripke total" true (Kripke.is_total k)

(* --- SMV export --- *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_smv_ident () =
  Alcotest.(check string) "spaces" "car_from_left" (Smv.ident "car from left");
  Alcotest.(check string) "dash" "left_turn" (Smv.ident "left-turn")

let test_smv_of_ltl () =
  Alcotest.(check string) "G/F" "G (ped -> F stop)"
    (Smv.of_ltl (Ltl.parse_exn "G (ped -> F stop)"));
  Alcotest.(check string) "release" "p V q" (Smv.of_ltl (Ltl.parse_exn "p R q"))

let test_smv_of_kripke () =
  let s =
    Smv.of_kripke ~name:"m" k_cycle ~specs:[ ("phi_1", Ltl.parse_exn "G F q") ]
  in
  Alcotest.(check bool) "module" true (contains ~sub:"MODULE m" s);
  Alcotest.(check bool) "ltlspec" true (contains ~sub:"LTLSPEC NAME phi_1" s);
  Alcotest.(check bool) "trans" true (contains ~sub:"TRANS" s)

let test_smv_of_controller () =
  let s = Smv.of_controller ~name:"c" (wait_go_controller ()) ~props:[ "green" ] in
  Alcotest.(check bool) "var green" true (contains ~sub:"green : boolean" s);
  Alcotest.(check bool) "action enum" true (contains ~sub:"action : {" s)

(* --- satisfiability --- *)

let test_sat_basic () =
  let sat s = Satisfiability.is_satisfiable (Ltl.parse_exn s) in
  Alcotest.(check bool) "p" true (sat "p");
  Alcotest.(check bool) "p & !p" false (sat "p & !p");
  Alcotest.(check bool) "F p & G !p" false (sat "F p & G !p");
  Alcotest.(check bool) "G F p & G F !p" true (sat "G F p & G F !p");
  Alcotest.(check bool) "false" false (sat "false");
  Alcotest.(check bool) "X p & !p" true (sat "X p & !p");
  Alcotest.(check bool) "G (p -> X !p) & G F p" true (sat "G (p -> X !p) & G F p")

let test_sat_witness_satisfies () =
  let phis = [ "G F p"; "p U q"; "G (p -> X q)"; "F G p" ] in
  List.iter
    (fun s ->
      let phi = Ltl.parse_exn s in
      match Satisfiability.witness phi with
      | None -> Alcotest.failf "%s should be satisfiable" s
      | Some (prefix, cycle) ->
          Alcotest.(check bool) (s ^ " witness checks") true
            (Trace.eval_lasso phi ~prefix ~cycle))
    phis

(* --- SMV reader (round-trip with the exporter) --- *)

let test_smv_reader_roundtrip_cycle () =
  let specs = [ ("phi_1", Ltl.parse_exn "G F q"); ("phi_2", Ltl.parse_exn "G p") ] in
  let text = Smv.of_kripke ~name:"m" k_cycle ~specs in
  let parsed = Smv_reader.parse_exn text in
  Alcotest.(check string) "name" "m" parsed.Smv_reader.name;
  Alcotest.(check int) "states" (Kripke.n_states k_cycle)
    (Kripke.n_states parsed.Smv_reader.kripke);
  Alcotest.(check int) "specs" 2 (List.length parsed.Smv_reader.specs);
  (* verdicts agree between original and re-parsed structures *)
  List.iter
    (fun (_, phi) ->
      Alcotest.(check bool)
        (Ltl.to_string phi)
        (Model_checker.is_holds (Model_checker.check_kripke k_cycle phi))
        (Model_checker.is_holds
           (Model_checker.check_kripke parsed.Smv_reader.kripke phi)))
    parsed.Smv_reader.specs

let test_smv_reader_initial_states () =
  let k = kripke ~labels:[ [ "p" ]; [ "q" ] ] ~succs:[ [ 1 ]; [ 0 ] ] ~initial:[ 1 ] () in
  let parsed = Smv_reader.parse_exn (Smv.of_kripke ~name:"x" k ~specs:[]) in
  Alcotest.(check (list int)) "initial preserved" [ 1 ]
    parsed.Smv_reader.kripke.Kripke.initial

let test_smv_reader_errors () =
  List.iter
    (fun text ->
      match Smv_reader.parse text with
      | Ok _ -> Alcotest.failf "unexpectedly parsed %S" text
      | Error _ -> ())
    [
      "";
      "MODULE";
      "MODULE m\nVAR\n  flag : boolean;\n";
      "MODULE m\nVAR\n  state : 0..1;\nINIT state = 0\n";
    ]

let prop_smv_roundtrip =
  let gen =
    let open QCheck.Gen in
    let gen_label =
      map (fun l -> sym l) (oneofl [ []; [ "p" ]; [ "q" ]; [ "p"; "q" ] ])
    in
    int_range 2 4 >>= fun n ->
    list_repeat n gen_label >>= fun labels ->
    list_repeat n (list_size (1 -- 2) (int_range 0 (n - 1))) >>= fun succs ->
    int_range 0 (n - 1) >>= fun init ->
    return
      (Kripke.make ~labels:(Array.of_list labels) ~succs:(Array.of_list succs)
         ~initial:[ init ] ())
  in
  QCheck.Test.make ~count:200 ~name:"smv export/import round-trip"
    (QCheck.make ~print:(Format.asprintf "%a" Kripke.pp) gen)
    (fun k ->
      let parsed = Smv_reader.parse_exn (Smv.of_kripke ~name:"rt" k ~specs:[]) in
      let k' = parsed.Smv_reader.kripke in
      Kripke.n_states k' = Kripke.n_states k
      && k'.Kripke.initial = k.Kripke.initial
      && Array.for_all2 ( = ) k'.Kripke.succs k.Kripke.succs
      && Array.for_all2 Symbol.equal
           (Array.map
              (fun l -> Symbol.of_atoms (List.map Smv.ident (Symbol.elements l)))
              k.Kripke.labels)
           k'.Kripke.labels)

(* --- cross-check properties --- *)

let gen_kripke =
  let open QCheck.Gen in
  let gen_label = map sym (oneofl [ []; [ "p" ]; [ "q" ]; [ "p"; "q" ] ] |> fun g -> g) in
  int_range 2 4 >>= fun n ->
  list_repeat n gen_label >>= fun labels ->
  list_repeat n (list_size (1 -- 2) (int_range 0 (n - 1))) >>= fun succs ->
  int_range 0 (n - 1) >>= fun init ->
  return
    (Kripke.make
       ~labels:(Array.of_list labels)
       ~succs:(Array.of_list succs)
       ~initial:[ init ] ())

let gen_formula =
  let open QCheck.Gen in
  let atom_names = [ "p"; "q" ] in
  sized_size (int_bound 10) @@ QCheck.Gen.fix (fun self n ->
      if n <= 0 then oneof [ return Ltl.True; map Ltl.atom (oneofl atom_names) ]
      else
        let sub = self (n / 2) in
        oneof
          [
            map Ltl.atom (oneofl atom_names);
            map Ltl.neg sub;
            map2 (fun a b -> Ltl.And (a, b)) sub sub;
            map2 (fun a b -> Ltl.Or (a, b)) sub sub;
            map Ltl.next sub;
            map Ltl.eventually sub;
            map Ltl.always sub;
            map2 Ltl.until sub sub;
            map2 Ltl.release sub sub;
          ])

let arb_mc_case =
  QCheck.make
    ~print:(fun (phi, k) ->
      Ltl.to_string phi ^ " on " ^ Format.asprintf "%a" Kripke.pp k)
    QCheck.Gen.(pair gen_formula gen_kripke)

let prop_cex_violates =
  QCheck.Test.make ~count:300 ~name:"counterexamples violate the formula"
    arb_mc_case (fun (phi, k) ->
      match Model_checker.check_kripke k phi with
      | Model_checker.Holds -> true
      | Model_checker.Fails cex ->
          not
            (Trace.eval_lasso phi
               ~prefix:(Array.of_list cex.Model_checker.prefix)
               ~cycle:(Array.of_list cex.Model_checker.cycle)))

let prop_holds_on_random_lassos =
  QCheck.Test.make ~count:300 ~name:"Holds implies random lassos satisfy"
    arb_mc_case (fun (phi, k) ->
      match Model_checker.check_kripke k phi with
      | Model_checker.Fails _ -> true
      | Model_checker.Holds ->
          let k = if Kripke.is_total k then k else Kripke.stutter_extend k in
          let rng = Dpoaf_util.Rng.create 7 in
          List.for_all
            (fun _ ->
              match Kripke.random_lasso k rng with
              | None -> true
              | Some (prefix, cycle) -> Trace.eval_lasso phi ~prefix ~cycle)
            (List.init 20 Fun.id))

let prop_sat_excluded_middle =
  QCheck.Test.make ~count:200 ~name:"f | !f always satisfiable"
    (QCheck.make ~print:Ltl.to_string gen_formula)
    (fun f -> Satisfiability.is_satisfiable (Ltl.Or (f, Ltl.neg f)))

let prop_sat_witness_valid =
  QCheck.Test.make ~count:150 ~name:"witnesses satisfy their formula"
    (QCheck.make ~print:Ltl.to_string gen_formula)
    (fun f ->
      match Satisfiability.witness f with
      | None -> true
      | Some (prefix, cycle) -> Trace.eval_lasso f ~prefix ~cycle)

let prop_sat_agrees_with_mc =
  (* f unsatisfiable iff !f holds on the 2-atom universal structure *)
  QCheck.Test.make ~count:60 ~name:"sat agrees with universal model checking"
    (QCheck.make ~print:Ltl.to_string gen_formula)
    (fun f ->
      let universal =
        Kripke.make
          ~labels:(Array.of_list (List.map sym [ []; [ "p" ]; [ "q" ]; [ "p"; "q" ] ]))
          ~succs:(Array.make 4 [ 0; 1; 2; 3 ])
          ~initial:[ 0; 1; 2; 3 ] ()
      in
      let no_path_satisfies =
        Model_checker.is_holds (Model_checker.check_kripke universal (Ltl.neg f))
      in
      Satisfiability.is_satisfiable f = not no_path_satisfies)

let prop_negation_exclusive =
  (* On a deterministic single-path Kripke structure, exactly one of phi and
     !phi holds. *)
  let gen_det =
    let open QCheck.Gen in
    let gen_label = map sym (oneofl [ []; [ "p" ]; [ "q" ]; [ "p"; "q" ] ]) in
    int_range 2 4 >>= fun n ->
    list_repeat n gen_label >>= fun labels ->
    list_repeat n (int_range 0 (n - 1)) >>= fun nexts ->
    return
      (Kripke.make
         ~labels:(Array.of_list labels)
         ~succs:(Array.of_list (List.map (fun j -> [ j ]) nexts))
         ~initial:[ 0 ] ())
  in
  QCheck.Test.make ~count:300 ~name:"deterministic: phi xor !phi"
    (QCheck.make
       ~print:(fun (phi, _) -> Ltl.to_string phi)
       QCheck.Gen.(pair gen_formula gen_det))
    (fun (phi, k) ->
      let holds f = Model_checker.is_holds (Model_checker.check_kripke k f) in
      holds phi <> holds (Ltl.neg phi))

(* --- the graph kernel against brute-force oracles --- *)

let gen_graph =
  let open QCheck.Gen in
  int_range 1 12 >>= fun n ->
  array_repeat n (list_size (0 -- 3) (int_range 0 (n - 1))) >>= fun succs ->
  list_size (0 -- 3) (int_range 0 (n - 1)) >>= fun roots ->
  array_repeat n bool >>= fun accepting -> return (succs, roots, accepting)

let arb_graph =
  let print (succs, roots, accepting) =
    let ints l = "[" ^ String.concat ";" (List.map string_of_int l) ^ "]" in
    Printf.sprintf "succs=%s roots=%s accepting=%s"
      (String.concat " " (Array.to_list (Array.map ints succs)))
      (ints roots)
      (ints (List.filter (fun v -> accepting.(v)) (List.init (Array.length succs) Fun.id)))
  in
  QCheck.make ~print gen_graph

(* reflexive-transitive closure by Floyd-Warshall *)
let closure succs =
  let n = Array.length succs in
  let r = Array.init n (fun u -> Array.init n (fun v -> u = v || List.mem v succs.(u))) in
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if r.(i).(k) && r.(k).(j) then r.(i).(j) <- true
      done
    done
  done;
  r

let oracle_reachable succs roots =
  let r = closure succs in
  Array.init (Array.length succs) (fun v -> List.exists (fun u -> r.(u).(v)) roots)

let prop_graph_reachable =
  QCheck.Test.make ~count:500 ~name:"graph: reachable matches the closure" arb_graph
    (fun (succs, roots, _) ->
      Graph.reachable succs ~roots = oracle_reachable succs roots)

let prop_graph_sccs =
  QCheck.Test.make ~count:500 ~name:"graph: sccs are mutual reachability" arb_graph
    (fun (succs, roots, _) ->
      let r = closure succs and reach = oracle_reachable succs roots in
      let { Graph.comp; members } = Graph.sccs succs ~roots in
      let n = Array.length succs in
      let states = List.init n Fun.id in
      List.for_all (fun v -> (comp.(v) >= 0) = reach.(v)) states
      && List.for_all
           (fun u ->
             List.for_all
               (fun v ->
                 (not (reach.(u) && reach.(v)))
                 || (comp.(u) = comp.(v)) = (r.(u).(v) && r.(v).(u)))
               states)
           states
      && Array.for_all Fun.id
           (Array.mapi
              (fun c vs ->
                List.sort compare vs
                = List.filter (fun v -> comp.(v) = c) states)
              members))

(* [v] lies on a cycle iff one of its successors reaches it back *)
let on_cycle succs r v = List.exists (fun w -> r.(w).(v)) succs.(v)

let prop_graph_fair_lasso =
  QCheck.Test.make ~count:1000 ~name:"graph: fair_lasso finds exactly the fair lassos"
    arb_graph (fun (succs, roots, accepting) ->
      let r = closure succs and reach = oracle_reachable succs roots in
      let fair =
        List.exists
          (fun v -> reach.(v) && accepting.(v) && on_cycle succs r v)
          (List.init (Array.length succs) Fun.id)
      in
      match fst (Graph.fair_lasso (Graph.of_lists succs) ~roots ~accepting) with
      | None -> not fair
      | Some (prefix, cycle) ->
          let path = prefix @ cycle in
          let rec follows = function
            | u :: (v :: _ as rest) -> List.mem v succs.(u) && follows rest
            | _ -> true
          in
          fair && cycle <> []
          && List.mem (List.hd path) roots
          && follows path
          && List.mem (List.hd cycle) succs.(List.nth cycle (List.length cycle - 1))
          && List.exists (Array.get accepting) cycle)

let prop_graph_explore =
  (* exploring the graph through its successor function numbers the
     reachable part in first-seen breadth-first order, roots first *)
  let dedup l =
    List.rev (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] l)
  in
  QCheck.Test.make ~count:500 ~name:"graph: explore interns the reachable part"
    QCheck.(pair arb_graph (int_range 0 13))
    (fun ((succs, roots, _), budget) ->
      let order = ref (dedup roots) and i = ref 0 in
      while !i < List.length !order do
        order := dedup (!order @ succs.(List.nth !order !i));
        incr i
      done;
      let number v =
        let rec find i = function
          | [] -> assert false
          | x :: rest -> if x = v then i else find (i + 1) rest
        in
        find 0 !order
      in
      match Graph.explore ~budget ~initial:roots ~succs:(Array.get succs) () with
      | exception Graph.Budget_exceeded -> List.length !order > budget
      | g ->
          List.length !order <= budget
          && Array.to_list g.Graph.states = !order
          && g.Graph.roots = List.init (List.length (dedup roots)) Fun.id
          && Array.for_all Fun.id
               (Array.mapi
                  (fun i out -> out = List.map number succs.(g.Graph.states.(i)))
                  g.Graph.succs))

(* --- product emptiness against the reference search --- *)

(* The product search as it stood before the mask labels and the
   per-domain work arrays: interning through [Graph.explore], labels
   tested with [Buchi.consistent] on string sets, and a list-based
   Tarjan and BFS.  Kept only as the differential oracle. *)
module Reference = struct
  let sccs succs ~roots =
    let n = Array.length succs in
    let index = Array.make n (-1) and lowlink = Array.make n 0 in
    let on_stack = Array.make n false and comp = Array.make n (-1) in
    let stack = ref [] and next_index = ref 0 and found = ref [] and ncomp = ref 0 in
    let rec strong v =
      index.(v) <- !next_index;
      lowlink.(v) <- !next_index;
      incr next_index;
      stack := v :: !stack;
      on_stack.(v) <- true;
      List.iter
        (fun w ->
          if index.(w) < 0 then begin
            strong w;
            lowlink.(v) <- min lowlink.(v) lowlink.(w)
          end
          else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
        succs.(v);
      if lowlink.(v) = index.(v) then begin
        let rec pop acc =
          match !stack with
          | [] -> acc
          | w :: rest ->
              stack := rest;
              on_stack.(w) <- false;
              comp.(w) <- !ncomp;
              if w = v then w :: acc else pop (w :: acc)
        in
        found := pop [] :: !found;
        incr ncomp
      end
    in
    List.iter (fun v -> if index.(v) < 0 then strong v) roots;
    (comp, Array.of_list (List.rev !found))

  let bfs_path succs ~sources ~target ~allowed =
    let parent = Array.make (Array.length succs) (-2) in
    let q = Queue.create () in
    List.iter
      (fun s ->
        if allowed s && parent.(s) = -2 then begin
          parent.(s) <- -1;
          Queue.add s q
        end)
      sources;
    let found = ref false in
    while (not !found) && not (Queue.is_empty q) do
      let v = Queue.pop q in
      if v = target then found := true
      else
        List.iter
          (fun w ->
            if allowed w && parent.(w) = -2 then begin
              parent.(w) <- v;
              Queue.add w q
            end)
          succs.(v)
    done;
    assert !found;
    let rec unwind v acc =
      if parent.(v) = -1 then v :: acc else unwind parent.(v) (v :: acc)
    in
    unwind target []

  let rec drop_last = function [] | [ _ ] -> [] | x :: rest -> x :: drop_last rest

  let fair_lasso succs ~roots ~accepting =
    let comp, members = sccs succs ~roots in
    let n = Array.length succs in
    let fair v =
      comp.(v) >= 0 && accepting v
      && match members.(comp.(v)) with [ w ] -> List.mem w succs.(w) | _ -> true
    in
    let rec seed v = if v = n then None else if fair v then Some v else seed (v + 1) in
    match seed 0 with
    | None -> None
    | Some s ->
        let prefix =
          bfs_path succs ~sources:roots ~target:s ~allowed:(fun v -> comp.(v) >= 0)
        in
        let in_comp v = comp.(v) = comp.(s) in
        let cycle =
          bfs_path succs ~sources:(List.filter in_comp succs.(s)) ~target:s
            ~allowed:in_comp
        in
        Some (drop_last prefix, s :: drop_last cycle)

  (* also returns (product states, components) for the work counters *)
  let find_accepting_lasso (k : Kripke.t) (a : Buchi.nba) =
    let nb = a.Buchi.n in
    let pairs kss bss =
      List.concat_map
        (fun ks ->
          List.filter_map
            (fun bs ->
              if
                Buchi.consistent ~pos:a.Buchi.pos.(bs) ~neg:a.Buchi.neg.(bs)
                  k.Kripke.labels.(ks)
              then Some ((ks * nb) + bs)
              else None)
            bss)
        kss
    in
    let g =
      Graph.explore
        ~initial:(pairs k.Kripke.initial a.Buchi.initial)
        ~succs:(fun p -> pairs k.Kripke.succs.(p / nb) a.Buchi.succs.(p mod nb))
        ()
    in
    let lasso =
      fair_lasso g.Graph.succs ~roots:g.Graph.roots ~accepting:(fun v ->
          a.Buchi.accepting.(g.Graph.states.(v) mod nb))
      |> Option.map (fun (prefix, cycle) ->
             let kripke_of = List.map (fun v -> g.Graph.states.(v) / nb) in
             { Emptiness.prefix = kripke_of prefix; cycle = kripke_of cycle })
    in
    let _, members = sccs g.Graph.succs ~roots:g.Graph.roots in
    (lasso, Array.length g.Graph.states, Array.length members)
end

let nba_of_negation phi = Buchi.degeneralize (Tableau.gnba_of_ltl (Ltl.neg phi))

(* Kripke structures with deadlocks (empty successor lists), one or two
   initial states and labels over [p; q; zp; zq].  A wide structure
   also gives state [i] the filler atoms [f(10i) .. f(10i+11)], so with
   seven or more states its alphabet passes 63 atoms and the four
   formula atoms (which sort after the fillers) sit past the first mask
   word. *)
let gen_wide_kripke ~wide ~max_states =
  let open QCheck.Gen in
  let focus = [ "p"; "q"; "zp"; "zq" ] in
  (if wide then int_range 7 max_states else int_range 1 max_states) >>= fun n ->
  list_repeat n (list_size (0 -- 4) (oneofl focus)) >>= fun labels ->
  list_repeat n (list_size (0 -- 2) (int_range 0 (n - 1))) >>= fun succs ->
  list_size (1 -- 2) (int_range 0 (n - 1)) >>= fun initial ->
  let filler i = List.init 12 (fun j -> Printf.sprintf "f%03d" ((10 * i) + j)) in
  let labels =
    List.mapi (fun i l -> sym (if wide then l @ filler i else l)) labels
  in
  return
    (Kripke.make ~labels:(Array.of_list labels) ~succs:(Array.of_list succs)
       ~initial:(List.sort_uniq compare initial) ())

(* formulas over the focus atoms and one atom in no label *)
let gen_focus_formula =
  let open QCheck.Gen in
  let atom_names = [ "p"; "q"; "zp"; "zq"; "absent" ] in
  sized_size (int_bound 6) @@ fix (fun self n ->
      if n <= 0 then map Ltl.atom (oneofl atom_names)
      else
        let sub = self (n / 2) in
        oneof
          [
            map Ltl.atom (oneofl atom_names);
            map Ltl.neg sub;
            map2 (fun a b -> Ltl.And (a, b)) sub sub;
            map2 (fun a b -> Ltl.Or (a, b)) sub sub;
            map Ltl.next sub;
            map Ltl.eventually sub;
            map Ltl.always sub;
            map2 Ltl.until sub sub;
          ])

let print_lasso = function
  | None -> "none"
  | Some { Emptiness.prefix; cycle } ->
      let ints l = String.concat "," (List.map string_of_int l) in
      Printf.sprintf "prefix [%s] cycle [%s]" (ints prefix) (ints cycle)

let arb_emptiness_case =
  QCheck.make
    ~print:(fun (phi, k) ->
      Printf.sprintf "%s on %d states (%d atoms): %s" (Ltl.to_string phi)
        (Kripke.n_states k) (Array.length k.Kripke.atoms)
        (Format.asprintf "%a" Kripke.pp k))
    QCheck.Gen.(
      pair gen_focus_formula
        (bool >>= fun wide -> gen_wide_kripke ~wide ~max_states:9))

let prop_emptiness_differential =
  QCheck.Test.make ~count:1000
    ~name:"emptiness = reference search; Fails lassos replay" arb_emptiness_case
    (fun (phi, k) ->
      let a = nba_of_negation phi in
      let expected, _, _ = Reference.find_accepting_lasso k a in
      let got = Emptiness.find_accepting_lasso k a in
      if got <> expected then
        QCheck.Test.fail_reportf "got %s, reference %s" (print_lasso got)
          (print_lasso expected);
      match Model_checker.check_kripke k phi with
      | Model_checker.Holds -> true
      | Model_checker.Fails cex ->
          not
            (Trace.eval_lasso phi
               ~prefix:(Array.of_list cex.Model_checker.prefix)
               ~cycle:(Array.of_list cex.Model_checker.cycle)))

(* The work arrays are reused across checks: a large product, a small
   one, then the large one again must each give the reference's answer. *)
let prop_emptiness_scratch_reuse =
  QCheck.Test.make ~count:200 ~name:"emptiness: large, small, large agree"
    (QCheck.make
       ~print:(fun (phi, large, small) ->
         Printf.sprintf "%s on %d then %d states" (Ltl.to_string phi)
           (Kripke.n_states large) (Kripke.n_states small))
       QCheck.Gen.(
         triple gen_focus_formula
           (gen_wide_kripke ~wide:true ~max_states:40)
           (gen_wide_kripke ~wide:false ~max_states:3)))
    (fun (phi, large, small) ->
      let a = nba_of_negation phi in
      let reference k =
        let l, _, _ = Reference.find_accepting_lasso k a in
        l
      in
      let first = Emptiness.find_accepting_lasso large a in
      let second = Emptiness.find_accepting_lasso small a in
      let third = Emptiness.find_accepting_lasso large a in
      first = reference large && second = reference small && third = first)

(* [mc.product_states] and [mc.sccs] grow by the product's size and
   component count once per check, and appear in the metrics summary
   that [stats] serves. *)
let test_work_counters () =
  let read name =
    match List.assoc_opt name (Dpoaf_exec.Metrics.summary ()) with
    | Some v -> int_of_float v
    | None -> Alcotest.failf "%s missing from the metrics summary" name
  in
  let check k phi_str ~states ~components =
    let phi = Ltl.parse_exn phi_str in
    let _, ref_states, ref_components =
      Reference.find_accepting_lasso k (nba_of_negation phi)
    in
    Alcotest.(check (pair int int))
      ("reference counts for " ^ phi_str)
      (states, components) (ref_states, ref_components);
    let s0 = read "mc.product_states" and c0 = read "mc.sccs" in
    ignore (Model_checker.check_kripke k phi);
    Alcotest.(check int) ("product states for " ^ phi_str) states
      (read "mc.product_states" - s0);
    Alcotest.(check int) ("components for " ^ phi_str) components
      (read "mc.sccs" - c0)
  in
  (* p -> {q, r}, q and r self-looping: the automaton of G !q pairs
     only with states 0 and 2, a trivial component and a self-loop *)
  check k_branch "F q" ~states:2 ~components:2;
  check k_cycle "G F q" ~states:3 ~components:2;
  check k_cycle "G p" ~states:5 ~components:3

let qsuite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests)

let () =
  Alcotest.run "automata"
    [
      ( "model-checker",
        [
          Alcotest.test_case "single state" `Quick test_mc_single_state;
          Alcotest.test_case "two cycle" `Quick test_mc_two_cycle;
          Alcotest.test_case "branching" `Quick test_mc_branching;
          Alcotest.test_case "multiple initial" `Quick test_mc_multi_initial;
          Alcotest.test_case "cex violates" `Quick test_mc_counterexample_violates;
          Alcotest.test_case "stutter deadlock" `Quick test_mc_stutter_deadlock;
        ] );
      ( "tableau",
        [
          Alcotest.test_case "sizes" `Quick test_tableau_sizes;
          Alcotest.test_case "false" `Quick test_tableau_false;
          Alcotest.test_case "large negation" `Quick test_tableau_large;
          Alcotest.test_case "degeneralize no sets" `Quick test_degeneralize_no_sets;
        ] );
      ( "ts",
        [
          Alcotest.test_case "make" `Quick test_ts_make;
          Alcotest.test_case "make errors" `Quick test_ts_make_errors;
          Alcotest.test_case "algorithm 1" `Quick test_ts_of_propositions;
          Alcotest.test_case "keep isolated" `Quick test_ts_of_propositions_keep;
          Alcotest.test_case "union" `Quick test_ts_union;
        ] );
      ( "fsa-product",
        [
          Alcotest.test_case "enabled" `Quick test_fsa_enabled;
          Alcotest.test_case "input enabled" `Quick test_fsa_input_enabled;
          Alcotest.test_case "make errors" `Quick test_fsa_make_errors;
          Alcotest.test_case "product build" `Quick test_product_build;
          Alcotest.test_case "product verification" `Quick test_product_verification;
          Alcotest.test_case "product cex trace" `Quick test_product_counterexample_trace;
          Alcotest.test_case "count satisfied" `Quick test_count_satisfied;
          Alcotest.test_case "deadlock product" `Quick test_deadlock_product;
        ] );
      ( "smv",
        [
          Alcotest.test_case "ident" `Quick test_smv_ident;
          Alcotest.test_case "ltl" `Quick test_smv_of_ltl;
          Alcotest.test_case "kripke" `Quick test_smv_of_kripke;
          Alcotest.test_case "controller" `Quick test_smv_of_controller;
        ] );
      ( "smv-reader",
        [
          Alcotest.test_case "roundtrip cycle" `Quick test_smv_reader_roundtrip_cycle;
          Alcotest.test_case "initial states" `Quick test_smv_reader_initial_states;
          Alcotest.test_case "errors" `Quick test_smv_reader_errors;
        ] );
      ( "satisfiability",
        [
          Alcotest.test_case "basic" `Quick test_sat_basic;
          Alcotest.test_case "witness satisfies" `Quick test_sat_witness_satisfies;
        ] );
      qsuite "properties"
        [
          prop_cex_violates; prop_holds_on_random_lassos; prop_negation_exclusive;
          prop_smv_roundtrip; prop_sat_excluded_middle; prop_sat_witness_valid;
          prop_sat_agrees_with_mc;
        ];
      qsuite "graph"
        [
          prop_graph_reachable; prop_graph_sccs; prop_graph_fair_lasso;
          prop_graph_explore;
        ];
      qsuite "emptiness"
        [ prop_emptiness_differential; prop_emptiness_scratch_reuse ];
      ( "work-counters",
        [ Alcotest.test_case "mc.product_states and mc.sccs" `Quick test_work_counters ] );
    ]
