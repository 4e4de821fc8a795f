(* Empirical evaluation in the simulated driving system (§4.2, Figure 11).

   Controllers are operated in the stochastic simulator (the Carla
   substitute); every rollout yields a grounded sequence in
   (2^P × 2^{P_A})^N that is checked against the specifications with
   finite-trace semantics, giving the satisfaction rate P_Φ.

   Run with: dune exec examples/empirical_eval.exe *)

open Dpoaf_driving
open Dpoaf_sim
module Table = Dpoaf_util.Table
module D = (val Dpoaf_domain.Pack_driving.pack : Dpoaf_domain.Domain.S)

let () =
  let model = Models.model Models.Traffic_light in
  let controller name steps = fst (D.controller_of_steps ~name steps) in
  let before = controller "before" Responses.right_turn_before_ft in
  let after = controller "after" Responses.right_turn_after_ft in

  let config =
    { Empirical.rollouts = 500; steps = 40;
      noise = { World.miss_rate = 0.02; false_rate = 0.01 }; seed = 2024 }
  in
  let eval c = Empirical.evaluate ~model ~controller:c ~specs:Specs.first_five config in
  let rates_before = eval before in
  let rates_after = eval after in

  Printf.printf
    "P_Φ over %d rollouts of %d steps (2%% missed / 1%% false detections):\n\n"
    config.Empirical.rollouts config.Empirical.steps;
  let table = Table.create [ "spec"; "before FT"; "after FT" ] in
  List.iter2
    (fun (name, b) (_, a) ->
      Table.add_row table
        [ name; Printf.sprintf "%.3f" b; Printf.sprintf "%.3f" a ])
    rates_before rates_after;
  Table.print table;

  (* one annotated rollout, like the paper's Figure 10 visualisation *)
  print_newline ();
  print_endline "sample rollout with the fine-tuned controller:";
  let world =
    World.create
      ~noise:{ World.miss_rate = 0.02; false_rate = 0.01 }
      ~model (Dpoaf_util.Rng.create 5)
  in
  let trace = Runner.run world after ~steps:12 (Dpoaf_util.Rng.create 6) in
  List.iteri
    (fun i step ->
      Format.printf "  t=%2d  world=%-8s  sees=%-40s acts=%a@." i
        step.Runner.world_state
        (Dpoaf_logic.Symbol.to_string step.Runner.perceived)
        Dpoaf_logic.Symbol.pp step.Runner.action)
    trace
