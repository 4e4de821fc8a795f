open Dpoaf_driving
module MC = Dpoaf_automata.Model_checker
module D = (val Dpoaf_domain.Pack_driving.pack : Dpoaf_domain.Domain.S)
module Ts = Dpoaf_automata.Ts
module Symbol = Dpoaf_logic.Symbol
module Ltl = Dpoaf_logic.Ltl

(* ---------------- vocabulary ---------------- *)

let test_vocab_counts () =
  Alcotest.(check int) "ten propositions" 10 (List.length Vocab.propositions);
  Alcotest.(check int) "four actions" 4 (List.length Vocab.actions)

let test_vocab_lexicon_aligns_paper_phrases () =
  let lex = Vocab.lexicon () in
  let check_prop phrase expected =
    match Dpoaf_lang.Lexicon.align lex Dpoaf_lang.Lexicon.Proposition phrase with
    | Some (c, _) -> Alcotest.(check string) phrase expected c
    | None -> Alcotest.failf "no alignment for %S" phrase
  in
  check_prop "oncoming traffic" Vocab.opposite_car;
  check_prop "left approaching car" Vocab.car_from_left;
  check_prop "right side pedestrian" Vocab.pedestrian_at_right;
  check_prop "traffic light" Vocab.green_traffic_light;
  let check_act phrase expected =
    match Dpoaf_lang.Lexicon.align lex Dpoaf_lang.Lexicon.Action phrase with
    | Some (c, _) -> Alcotest.(check string) phrase expected c
    | None -> Alcotest.failf "no alignment for %S" phrase
  in
  check_act "start moving forward" Vocab.act_go_straight;
  check_act "turn your vehicle right" Vocab.act_turn_right;
  check_act "come to a stop" Vocab.act_stop

(* ---------------- specifications ---------------- *)

let test_specs_count () =
  Alcotest.(check int) "15 specs" 15 Specs.count;
  Alcotest.(check int) "all list" 15 (List.length Specs.all);
  Alcotest.(check int) "first five" 5 (List.length Specs.first_five)

let test_specs_bounds () =
  Alcotest.(check bool) "phi 0 rejected" true
    (try ignore (Specs.phi 0); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "phi 16 rejected" true
    (try ignore (Specs.phi 16); false with Invalid_argument _ -> true)

let test_specs_shapes () =
  (* Φ3 = G(¬green -> ¬go straight) *)
  (match Specs.phi 3 with
  | Ltl.Always (Ltl.Implies (Ltl.Not (Ltl.Atom g), Ltl.Not (Ltl.Atom gs))) ->
      Alcotest.(check string) "green" Vocab.green_traffic_light g;
      Alcotest.(check string) "go straight" Vocab.act_go_straight gs
  | f -> Alcotest.failf "unexpected phi_3 shape: %s" (Ltl.to_string f));
  (* Φ6 mentions all four actions *)
  let atoms = Ltl.atoms (Specs.phi 6) in
  List.iter
    (fun a -> Alcotest.(check bool) a true (Symbol.mem a atoms))
    Vocab.actions

let test_specs_rule_book_consistent () =
  (* An inconsistent rule book would make every controller fail and the
     ranking feedback vacuous.  Pairwise consistency plus the Φ1..Φ5
     conjunction is checked (the full 15-way conjunction is beyond the
     explicit tableau). *)
  List.iteri
    (fun i (ni, a) ->
      List.iteri
        (fun j (nj, b) ->
          if j > i then
            Alcotest.(check bool)
              (ni ^ " & " ^ nj)
              true
              (Dpoaf_automata.Satisfiability.is_satisfiable (Ltl.And (a, b))))
        Specs.all)
    Specs.all;
  Alcotest.(check bool) "phi_1..phi_5 conjunction" true
    (Dpoaf_automata.Satisfiability.is_satisfiable
       (Ltl.conj (List.map snd Specs.first_five)))

let test_specs_each_satisfiable_with_witness () =
  List.iter
    (fun (name, phi) ->
      match Dpoaf_automata.Satisfiability.witness phi with
      | None -> Alcotest.failf "%s unsatisfiable" name
      | Some (prefix, cycle) ->
          Alcotest.(check bool) (name ^ " witness valid") true
            (Dpoaf_logic.Trace.eval_lasso phi ~prefix ~cycle))
    Specs.all

(* ---------------- scenario models ---------------- *)

let test_models_total_and_labeled () =
  List.iter
    (fun sc ->
      let m = Models.model sc in
      Alcotest.(check bool) (Models.scenario_name sc ^ " total") true (Ts.is_total m);
      Alcotest.(check bool)
        (Models.scenario_name sc ^ " nonempty")
        true
        (Ts.n_states m > 0))
    Models.all_scenarios

let test_models_propositions_in_vocab () =
  List.iter
    (fun sc ->
      List.iter
        (fun p ->
          Alcotest.(check bool)
            (Models.scenario_name sc ^ ": " ^ p)
            true
            (List.mem p Vocab.propositions))
        (Models.scenario_propositions sc))
    Models.all_scenarios

let test_models_hazards_transient () =
  (* In every scenario, a hazard state (car or pedestrian present) never
     transitions to another hazard state: hazards clear within one step. *)
  let hazard_atoms =
    [
      Vocab.car_from_left; Vocab.car_from_right; Vocab.opposite_car;
      Vocab.pedestrian_at_left; Vocab.pedestrian_at_right;
      Vocab.pedestrian_in_front;
    ]
  in
  let is_hazard m s =
    List.exists (fun a -> Symbol.mem a (Ts.label m s)) hazard_atoms
  in
  List.iter
    (fun sc ->
      let m = Models.model sc in
      for s = 0 to Ts.n_states m - 1 do
        if is_hazard m s then
          List.iter
            (fun s' ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: hazard %d clears" (Models.scenario_name sc) s)
                false (is_hazard m s'))
            (Ts.successors m s)
      done)
    Models.all_scenarios

let test_models_hazards_reachable () =
  (* Conversely, a hazard can appear in one step from some clear state:
     needed for the paper's Φ5 edge case. *)
  List.iter
    (fun sc ->
      let m = Models.model sc in
      let hazard_exists =
        List.exists
          (fun s ->
            List.exists
              (fun s' -> not (Symbol.equal (Ts.label m s) (Ts.label m s')))
              (Ts.successors m s))
          (List.init (Ts.n_states m) Fun.id)
      in
      Alcotest.(check bool) (Models.scenario_name sc) true hazard_exists)
    Models.all_scenarios

let test_left_turn_light_recurs () =
  (* Every cycle in the left-turn-light model passes through the green
     arrow: G F green-left-turn-light holds on all paths of the model with a
     trivial always-stop controller. *)
  let ctrl = Dpoaf_lang.Glm2fsa.controller ~name:"idle" [] in
  let phi = Ltl.parse_exn "G F \"green left-turn light\"" in
  Alcotest.(check bool) "arrow recurs" true
    (MC.is_holds
       (MC.check ~model:(Models.model Models.Left_turn_light) ~controller:ctrl phi))

let test_universal_size () =
  let u = Models.universal () in
  let total =
    List.fold_left
      (fun acc sc -> acc + Ts.n_states (Models.model sc))
      0 Models.all_scenarios
  in
  Alcotest.(check int) "union size" total (Ts.n_states u);
  Alcotest.(check bool) "total" true (Ts.is_total u)

(* ---------------- tasks ---------------- *)

let test_tasks_split () =
  Alcotest.(check int) "eight tasks" 8 (List.length Tasks.all);
  Alcotest.(check int) "training" 6 (List.length Tasks.training);
  Alcotest.(check int) "validation" 2 (List.length Tasks.validation)

let test_tasks_find () =
  let t = Tasks.find "right_turn_tl" in
  Alcotest.(check string) "prompt" "turn right at the traffic light" t.Tasks.prompt;
  Alcotest.(check bool) "missing raises" true
    (try ignore (Tasks.find "nope"); false with Not_found -> true)

let test_tasks_have_candidates () =
  List.iter
    (fun t ->
      let steps = Responses.candidate_steps t in
      Alcotest.(check bool) (t.Tasks.id ^ " has steps") true (List.length steps >= 4);
      let finals = Responses.finals t in
      Alcotest.(check bool)
        (t.Tasks.id ^ " has a good final")
        true
        (List.exists (fun s -> s.Responses.quality = Responses.Good) finals))
    Tasks.all

(* ---------------- §5.1 / Appendix C worked examples ---------------- *)

let count_scenario steps scenario =
  let ctrl, _ = D.controller_of_steps ~name:"t" steps in
  MC.count_satisfied ~model:(Models.model scenario) ~controller:ctrl ~specs:Specs.all

let test_right_turn_before_fails_phi5 () =
  let ctrl, _ =
    D.controller_of_steps ~name:"before" Responses.right_turn_before_ft
  in
  let verdict =
    MC.check ~model:(Models.model Models.Traffic_light) ~controller:ctrl (Specs.phi 5)
  in
  (match verdict with
  | MC.Holds -> Alcotest.fail "phi_5 should fail before fine-tuning"
  | MC.Fails cex ->
      (* the violating instant has the car from the left while turning *)
      let steps = Array.of_list (cex.MC.prefix @ cex.MC.cycle) in
      let violating =
        Array.exists
          (fun s ->
            Symbol.mem Vocab.car_from_left s && Symbol.mem Vocab.act_turn_right s)
          steps
      in
      Alcotest.(check bool) "counterexample shows car+turn" true violating)

let test_right_turn_blame () =
  (* the counterexample implicates the final turn step (step 5) *)
  let ctrl, _ =
    D.controller_of_steps ~name:"before" Responses.right_turn_before_ft
  in
  match
    MC.check ~model:(Models.model Models.Traffic_light) ~controller:ctrl (Specs.phi 5)
  with
  | MC.Holds -> Alcotest.fail "phi_5 should fail"
  | MC.Fails cex ->
      let blamed = MC.blame ~spec:(Specs.phi 5) cex in
      Alcotest.(check bool) "step 5 implicated" true (List.mem 4 blamed)

let test_right_turn_example_counts () =
  (* The pre-fine-tuning controller commits the paper's safety violations
     (Φ5 with its cousins Φ9/Φ11, and Φ14 via the unguarded go-straight). *)
  Alcotest.(check int) "before: 11/15" 11
    (count_scenario Responses.right_turn_before_ft Models.Traffic_light);
  Alcotest.(check int) "after: 15/15" 15
    (count_scenario Responses.right_turn_after_ft Models.Traffic_light)

let test_left_turn_example () =
  let before = count_scenario Responses.left_turn_before_ft Models.Left_turn_light in
  let after = count_scenario Responses.left_turn_after_ft Models.Left_turn_light in
  Alcotest.(check int) "after passes all" 15 after;
  Alcotest.(check bool) "before fails some" true (before < 15);
  (* the paper highlights Φ12 *)
  let ctrl, _ =
    D.controller_of_steps ~name:"before" Responses.left_turn_before_ft
  in
  Alcotest.(check bool) "phi_12 fails" false
    (MC.is_holds
       (MC.check ~model:(Models.model Models.Left_turn_light) ~controller:ctrl
          (Specs.phi 12)))

let test_good_finals_beat_bad_finals () =
  (* For every task, a response with the good final satisfies at least as
     many specifications as the same response with a bad final — the signal
     DPO-AF ranks on. *)
  List.iter
    (fun task ->
      let obs =
        match Responses.observations task with
        | o :: _ -> [ o.Responses.text ]
        | [] -> []
      in
      let count final =
        List.length
          (D.profile_of_steps
             ~model:(Models.model task.Tasks.scenario)
             (obs @ [ final.Responses.text ]))
            .satisfied
      in
      let finals = Responses.finals task in
      let good = List.filter (fun s -> s.Responses.quality = Responses.Good) finals in
      let bad = List.filter (fun s -> s.Responses.quality = Responses.Bad) finals in
      List.iter
        (fun gstep ->
          List.iter
            (fun bstep ->
              let cg = count gstep and cb = count bstep in
              Alcotest.(check bool)
                (Printf.sprintf "%s: %S (%d) > %S (%d)" task.Tasks.id
                   gstep.Responses.text cg bstep.Responses.text cb)
                true (cg > cb))
            bad)
        good)
    Tasks.all

let test_candidate_steps_all_parse () =
  (* Every candidate step of every task must parse (possibly degraded) —
     responses built from the pools never silently lose steps. *)
  let lex = Vocab.lexicon () in
  List.iter
    (fun task ->
      List.iter
        (fun text ->
          match Dpoaf_lang.Step_parser.parse_step lex text with
          | Dpoaf_lang.Step_parser.Failed why ->
              Alcotest.failf "%s: %S failed to parse (%s)" task.Tasks.id text why
          | _ -> ())
        (Responses.candidate_steps task))
    Tasks.all

let test_parse_robust_to_detokenization () =
  (* The pipeline scores detokenized responses (lowercased, punctuation
     stripped); parsing must give the same clause as the original text.
     Regression test for the lost-comma bug. *)
  let lex = Vocab.lexicon () in
  let detok text = String.concat " " (Dpoaf_util.Strext.lowercase_words text) in
  let clause_of outcome =
    match outcome with
    | Dpoaf_lang.Step_parser.Parsed c | Dpoaf_lang.Step_parser.Degraded (c, _) ->
        Some c
    | Dpoaf_lang.Step_parser.Failed _ -> None
  in
  List.iter
    (fun task ->
      List.iter
        (fun text ->
          let original = clause_of (Dpoaf_lang.Step_parser.parse_step lex text) in
          let stripped =
            clause_of (Dpoaf_lang.Step_parser.parse_step lex (detok text))
          in
          match (original, stripped) with
          | Some a, Some b ->
              Alcotest.(check string)
                (task.Tasks.id ^ ": " ^ text)
                (Dpoaf_lang.Clause.to_string a)
                (Dpoaf_lang.Clause.to_string b)
          | _ ->
              Alcotest.failf "%s: %S parse differs across detokenization"
                task.Tasks.id text)
        (Responses.candidate_steps task))
    Tasks.all

let test_paper_examples_robust_to_detokenization () =
  let detok text = String.concat " " (Dpoaf_util.Strext.lowercase_words text) in
  let count steps scenario =
    let c, _ = D.controller_of_steps ~name:"x" steps in
    MC.count_satisfied ~model:(Models.model scenario) ~controller:c ~specs:Specs.all
  in
  let pairs =
    [
      (Responses.right_turn_before_ft, Models.Traffic_light);
      (Responses.right_turn_after_ft, Models.Traffic_light);
      (Responses.left_turn_before_ft, Models.Left_turn_light);
      (Responses.left_turn_after_ft, Models.Left_turn_light);
    ]
  in
  List.iter
    (fun (steps, scenario) ->
      Alcotest.(check int) "same spec count" (count steps scenario)
        (count (List.map detok steps) scenario))
    pairs

let test_evaluate_universal_default () =
  let n =
    List.length (D.profile_of_steps Responses.right_turn_after_ft).satisfied
  in
  Alcotest.(check bool) "against universal model" true (n >= 13 && n <= 15)

let () =
  Alcotest.run "driving"
    [
      ( "vocab",
        [
          Alcotest.test_case "counts" `Quick test_vocab_counts;
          Alcotest.test_case "paper phrases align" `Quick
            test_vocab_lexicon_aligns_paper_phrases;
        ] );
      ( "specs",
        [
          Alcotest.test_case "count" `Quick test_specs_count;
          Alcotest.test_case "bounds" `Quick test_specs_bounds;
          Alcotest.test_case "shapes" `Quick test_specs_shapes;
          Alcotest.test_case "rule book consistent" `Slow test_specs_rule_book_consistent;
          Alcotest.test_case "each satisfiable" `Quick
            test_specs_each_satisfiable_with_witness;
        ] );
      ( "models",
        [
          Alcotest.test_case "total" `Quick test_models_total_and_labeled;
          Alcotest.test_case "props in vocab" `Quick test_models_propositions_in_vocab;
          Alcotest.test_case "hazards transient" `Quick test_models_hazards_transient;
          Alcotest.test_case "hazards reachable" `Quick test_models_hazards_reachable;
          Alcotest.test_case "left-turn light recurs" `Quick test_left_turn_light_recurs;
          Alcotest.test_case "universal size" `Quick test_universal_size;
        ] );
      ( "tasks",
        [
          Alcotest.test_case "split" `Quick test_tasks_split;
          Alcotest.test_case "find" `Quick test_tasks_find;
          Alcotest.test_case "candidates" `Quick test_tasks_have_candidates;
        ] );
      ( "worked-examples",
        [
          Alcotest.test_case "phi5 counterexample" `Quick test_right_turn_before_fails_phi5;
          Alcotest.test_case "blame" `Quick test_right_turn_blame;
          Alcotest.test_case "right-turn counts" `Quick test_right_turn_example_counts;
          Alcotest.test_case "left-turn example" `Quick test_left_turn_example;
          Alcotest.test_case "good beats bad" `Slow test_good_finals_beat_bad_finals;
          Alcotest.test_case "candidates parse" `Quick test_candidate_steps_all_parse;
          Alcotest.test_case "detokenization robust" `Quick
            test_parse_robust_to_detokenization;
          Alcotest.test_case "paper examples detok robust" `Quick
            test_paper_examples_robust_to_detokenization;
          Alcotest.test_case "universal default" `Quick test_evaluate_universal_default;
        ] );
    ]
