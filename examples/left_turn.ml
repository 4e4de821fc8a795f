(* The Appendix-C worked example: "turn left at the traffic light" with an
   explicit left-turn signal (the Figure-15 model).

   The pre-fine-tuning response waits for the green arrow, checks oncoming
   traffic once, then turns left *twice* — the second, unguarded turn
   violates Φ12 (and Φ2).  The post-fine-tuning response re-checks the
   arrow at the turning instant and passes all fifteen specifications.

   Run with: dune exec examples/left_turn.exe *)

open Dpoaf_driving
module MC = Dpoaf_automata.Model_checker
module D = (val Dpoaf_domain.Pack_driving.pack : Dpoaf_domain.Domain.S)

let evaluate title steps =
  Printf.printf "=== %s ===\n" title;
  List.iter (fun s -> Printf.printf "  %s\n" s) steps;
  let controller, _ = D.controller_of_steps ~name:title steps in
  let model = Models.model Models.Left_turn_light in
  let verdicts = MC.verify_all ~model ~controller ~specs:Specs.all in
  let failing =
    List.filter_map
      (fun (n, _, v) -> if MC.is_holds v then None else Some n)
      verdicts
  in
  Printf.printf "satisfied %d/15; failing: %s\n\n"
    (15 - List.length failing)
    (if failing = [] then "(none)" else String.concat ", " failing);
  (controller, model)

let () =
  let before, model = evaluate "before fine-tuning" Responses.left_turn_before_ft in
  let _after, _ = evaluate "after fine-tuning" Responses.left_turn_after_ft in

  Printf.printf "=== Φ12 counterexample (before fine-tuning) ===\n";
  Printf.printf "Φ12 = %s\n" (Dpoaf_logic.Ltl.to_string (Specs.phi 12));
  match MC.check ~model ~controller:before (Specs.phi 12) with
  | MC.Holds -> print_endline "unexpected: Φ12 holds"
  | MC.Fails cex ->
      List.iter (Printf.printf "  %s\n") cex.MC.prefix_descr;
      print_endline "  -- repeating cycle --";
      List.iter (Printf.printf "  %s\n") cex.MC.cycle_descr
