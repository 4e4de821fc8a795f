(* The paper's §5.1 worked example: "turn right at the traffic light".

   Reproduces the full verification-feedback path: the pre- and
   post-fine-tuning responses are parsed, aligned to the driving
   vocabulary, compiled to FSA controllers (GLM2FSA), implemented in the
   Figure-5 traffic-light model, and checked against the fifteen rule-book
   specifications.  The pre-fine-tuning controller fails Φ5 with the
   paper's edge case: the light turns back to red and a car arrives from
   the left right after the pedestrian check, yet the controller turns.

   Run with: dune exec examples/right_turn.exe *)

open Dpoaf_driving
module MC = Dpoaf_automata.Model_checker
module Smv = Dpoaf_automata.Smv
module SP = Dpoaf_lang.Step_parser
module D = (val Dpoaf_domain.Pack_driving.pack : Dpoaf_domain.Domain.S)

let show_response title steps =
  Printf.printf "=== %s ===\n" title;
  List.iter (fun s -> Printf.printf "  %s\n" s) steps;
  let lex = Vocab.lexicon () in
  Printf.printf "parsed clauses:\n";
  List.iter
    (fun s ->
      match SP.parse_step lex s with
      | SP.Parsed c -> Printf.printf "  %s\n" (Dpoaf_lang.Clause.to_string c)
      | SP.Degraded (c, why) ->
          Printf.printf "  %s   (degraded: %s)\n" (Dpoaf_lang.Clause.to_string c) why
      | SP.Failed why -> Printf.printf "  <dropped: %s>\n" why)
    steps;
  let controller, _stats = D.controller_of_steps ~name:title steps in
  let model = Models.model Models.Traffic_light in
  let verdicts = MC.verify_all ~model ~controller ~specs:Specs.all in
  let sat = List.filter (fun (_, _, v) -> MC.is_holds v) verdicts in
  Printf.printf "satisfied %d/15 specifications; failing: %s\n\n"
    (List.length sat)
    (String.concat ", "
       (List.filter_map
          (fun (n, _, v) -> if MC.is_holds v then None else Some n)
          verdicts));
  controller

let () =
  let before = show_response "before fine-tuning" Responses.right_turn_before_ft in
  let after = show_response "after fine-tuning" Responses.right_turn_after_ft in

  (* The Φ5 counterexample, as discussed in the paper. *)
  Printf.printf "=== Φ5 counterexample for the pre-fine-tuning controller ===\n";
  Printf.printf "Φ5 = %s\n" (Dpoaf_logic.Ltl.to_string (Specs.phi 5));
  (match
     MC.check ~model:(Models.model Models.Traffic_light) ~controller:before
       (Specs.phi 5)
   with
  | MC.Holds -> print_endline "unexpected: Φ5 holds"
  | MC.Fails cex ->
      List.iter (Printf.printf "  %s\n") cex.MC.prefix_descr;
      print_endline "  -- repeating cycle --";
      List.iter (Printf.printf "  %s\n") cex.MC.cycle_descr;
      (* structured blame: which instruction steps are implicated *)
      Printf.printf "implicated steps: %s\n"
        (String.concat ", "
           (List.map (fun q -> Printf.sprintf "step %d" (q + 1)) (MC.blame ~spec:(Specs.phi 5) cex))));

  (* SMV export, in the style of the paper's Appendix D. *)
  print_newline ();
  print_endline "=== NuSMV export (Appendix D style) ===";
  print_string (Smv.of_controller ~name:"turn_right_after_finetune" after
                  ~props:Vocab.propositions)
