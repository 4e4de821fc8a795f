open Dpoaf_sim
open Dpoaf_driving
module Ts = Dpoaf_automata.Ts
module Fsa = Dpoaf_automata.Fsa
module MC = Dpoaf_automata.Model_checker
module D = (val Dpoaf_domain.Pack_driving.pack : Dpoaf_domain.Domain.S)
module Symbol = Dpoaf_logic.Symbol
module Ltl = Dpoaf_logic.Ltl
module Rng = Dpoaf_util.Rng

let tl_model () = Models.model Models.Traffic_light

(* ---------------- world ---------------- *)

let test_world_follows_model () =
  let model = tl_model () in
  let rng = Rng.create 1 in
  let world = World.create ~model rng in
  (* every observed ground-truth label is a label of some model state *)
  for _ = 1 to 200 do
    let label = World.ground_truth world in
    let exists =
      List.exists
        (fun s -> Symbol.equal (Ts.label model s) label)
        (List.init (Ts.n_states model) Fun.id)
    in
    Alcotest.(check bool) "label from model" true exists;
    World.step world
  done

let test_world_no_noise_perceive_exact () =
  let world = World.create ~model:(tl_model ()) (Rng.create 2) in
  for _ = 1 to 100 do
    Alcotest.(check bool) "perceive = truth" true
      (Symbol.equal (World.perceive world) (World.ground_truth world));
    World.step world
  done

let test_world_noise_rates () =
  (* With miss_rate 1.0 nothing is ever seen. *)
  let noise = { World.miss_rate = 1.0; false_rate = 0.0 } in
  let world = World.create ~noise ~model:(tl_model ()) (Rng.create 3) in
  for _ = 1 to 50 do
    Alcotest.(check bool) "blind" true (Symbol.is_empty (World.perceive world));
    World.step world
  done

let test_world_false_positives () =
  let noise = { World.miss_rate = 0.0; false_rate = 1.0 } in
  let world = World.create ~noise ~model:(tl_model ()) (Rng.create 4) in
  let everything = Ts.propositions (tl_model ()) in
  Alcotest.(check bool) "sees everything" true
    (Symbol.equal (World.perceive world) everything)

let test_world_rejects_nontotal () =
  let bad =
    Ts.make ~name:"dead" ~states:[ ("a", Symbol.empty) ] ~transitions:[] ()
  in
  Alcotest.(check bool) "rejected" true
    (try ignore (World.create ~model:bad (Rng.create 0)); false
     with Invalid_argument _ -> true)

(* ---------------- runner / grounding ---------------- *)

let after_ft_controller () =
  fst (D.controller_of_steps ~name:"after" Responses.right_turn_after_ft)

let before_ft_controller () =
  fst (D.controller_of_steps ~name:"before" Responses.right_turn_before_ft)

let test_runner_length_and_actions () =
  let world = World.create ~model:(tl_model ()) (Rng.create 5) in
  let trace = Runner.run world (after_ft_controller ()) ~steps:25 (Rng.create 6) in
  Alcotest.(check int) "length" 25 (List.length trace);
  List.iter
    (fun s ->
      Alcotest.(check bool) "some action every instant" false
        (Symbol.is_empty s.Runner.action))
    trace

let test_runner_to_symbols_union () =
  let world = World.create ~model:(tl_model ()) (Rng.create 7) in
  let trace = Runner.run world (after_ft_controller ()) ~steps:10 (Rng.create 8) in
  let words = Runner.to_symbols trace in
  List.iteri
    (fun i s ->
      Alcotest.(check bool) "props in word" true (Symbol.subset s.Runner.props words.(i));
      Alcotest.(check bool) "action in word" true
        (Symbol.subset s.Runner.action words.(i)))
    trace

let test_runner_deterministic_given_seeds () =
  let run () =
    let world = World.create ~model:(tl_model ()) (Rng.create 9) in
    Runner.to_symbols (Runner.run world (after_ft_controller ()) ~steps:20 (Rng.create 10))
  in
  Alcotest.(check bool) "reproducible" true (run () = run ())

(* ---------------- empirical evaluation ---------------- *)

let noise_free ~rollouts ~steps =
  { Empirical.rollouts; steps; noise = World.no_noise; seed = 11 }

let test_safety_rate_good_controller () =
  (* Noise-free, formally verified controller: safety specs hold on every
     rollout (Theorem 1 direction). *)
  let rates =
    Empirical.evaluate ~model:(tl_model ()) ~controller:(after_ft_controller ())
      ~specs:[ ("phi_5", Specs.phi 5); ("phi_3", Specs.phi 3); ("phi_9", Specs.phi 9) ]
      (noise_free ~rollouts:100 ~steps:30)
  in
  List.iter
    (fun (name, rate) -> Alcotest.(check (float 0.0)) (name ^ " perfect") 1.0 rate)
    rates

let test_flawed_controller_violates_phi5_sometimes () =
  let rates =
    Empirical.evaluate ~model:(tl_model ()) ~controller:(before_ft_controller ())
      ~specs:[ ("phi_5", Specs.phi 5) ]
      (noise_free ~rollouts:300 ~steps:40)
  in
  let rate = List.assoc "phi_5" rates in
  Alcotest.(check bool)
    (Printf.sprintf "phi_5 rate %.3f below 1" rate)
    true (rate < 1.0)

let test_before_below_after () =
  (* Figure 11's headline: after fine-tuning, every P_Φ is at least the
     before-fine-tuning value. *)
  let eval controller =
    Empirical.evaluate ~model:(tl_model ()) ~controller ~specs:Specs.first_five
      { Empirical.rollouts = 200; steps = 40;
        noise = { World.miss_rate = 0.02; false_rate = 0.01 }; seed = 12 }
  in
  let before = eval (before_ft_controller ()) in
  let after = eval (after_ft_controller ()) in
  List.iter2
    (fun (name, b) (_, a) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: after %.3f >= before %.3f" name a b)
        true (a >= b))
    before after

let test_noise_degrades_safety () =
  (* Heavy miss noise makes even the verified controller violate Φ5 in the
     recorded (ground-truth) trace: it turns while an unseen car is there. *)
  let rates =
    Empirical.evaluate ~model:(tl_model ()) ~controller:(after_ft_controller ())
      ~specs:[ ("phi_5", Specs.phi 5) ]
      { Empirical.rollouts = 300; steps = 40;
        noise = { World.miss_rate = 0.5; false_rate = 0.0 }; seed = 13 }
  in
  Alcotest.(check bool) "noise causes violations" true (List.assoc "phi_5" rates < 1.0)

let test_empirical_jobs_deterministic () =
  (* Rollout RNG streams are split before the parallel region, so the
     rates must be bit-identical for any worker count. *)
  let eval jobs =
    Empirical.evaluate ~jobs ~model:(tl_model ())
      ~controller:(before_ft_controller ())
      ~specs:Specs.first_five
      { Empirical.rollouts = 120; steps = 30;
        noise = { World.miss_rate = 0.05; false_rate = 0.02 }; seed = 17 }
  in
  let seq = eval 1 and par = eval 4 in
  List.iter2
    (fun (name, a) (_, b) ->
      Alcotest.(check (float 0.0)) (name ^ " identical across jobs") a b)
    seq par

let test_satisfaction_rate_direct () =
  let phi = Ltl.parse_exn "G (p -> q)" in
  let word atoms = Array.of_list (List.map Symbol.of_atoms atoms) in
  let rate =
    Empirical.satisfaction_rate phi
      [ word [ [ "p"; "q" ] ]; word [ [ "p" ] ]; word [ [] ] ]
  in
  Alcotest.(check (float 1e-9)) "2/3" (2.0 /. 3.0) rate

(* ---------------- shield ---------------- *)

let driving_shield () =
  Shield.create
    ~specs:(List.map snd Specs.all)
    ~actions:Vocab.actions

let test_shield_permits () =
  let shield = driving_shield () in
  let turn = Symbol.singleton Vocab.act_turn_right in
  Alcotest.(check bool) "clear: turn allowed" true
    (Shield.permits shield ~observation:Symbol.empty turn);
  Alcotest.(check bool) "car from left: turn blocked" false
    (Shield.permits shield
       ~observation:(Symbol.singleton Vocab.car_from_left)
       turn);
  Alcotest.(check bool) "stop never blocked" true
    (Shield.permits shield
       ~observation:(Symbol.singleton Vocab.car_from_left)
       (Symbol.singleton Vocab.act_stop));
  (* go straight requires the green light (Φ3) *)
  let go = Symbol.singleton Vocab.act_go_straight in
  Alcotest.(check bool) "go blocked on red" false
    (Shield.permits shield ~observation:Symbol.empty go);
  Alcotest.(check bool) "go allowed on green" true
    (Shield.permits shield
       ~observation:(Symbol.singleton Vocab.green_traffic_light)
       go)

let test_shield_fixes_flawed_controller () =
  (* Under perfect perception a shielded flawed controller cannot violate
     the invariant rules. *)
  let shield = driving_shield () in
  let rates =
    Empirical.evaluate ~shield ~model:(tl_model ())
      ~controller:(before_ft_controller ())
      ~specs:[ ("phi_5", Specs.phi 5); ("phi_9", Specs.phi 9) ]
      (noise_free ~rollouts:200 ~steps:40)
  in
  List.iter
    (fun (name, rate) -> Alcotest.(check (float 0.0)) (name ^ " perfect") 1.0 rate)
    rates

let test_shield_helps_under_noise () =
  let shield = driving_shield () in
  let config =
    { Empirical.rollouts = 300; steps = 40;
      noise = { World.miss_rate = 0.05; false_rate = 0.02 }; seed = 21 }
  in
  let rate shielded =
    let shield = if shielded then Some shield else None in
    List.assoc "phi_5"
      (Empirical.evaluate ?shield ~model:(tl_model ())
         ~controller:(before_ft_controller ())
         ~specs:[ ("phi_5", Specs.phi 5) ] config)
  in
  let unshielded = rate false and shielded = rate true in
  Alcotest.(check bool)
    (Printf.sprintf "shield improves phi_5: %.3f -> %.3f" unshielded shielded)
    true
    (shielded > unshielded +. 0.1)

let test_shield_fallback_stops () =
  (* A controller that can only go straight, in a model that is never
     green: the shield masks every move, so the vehicle holds and emits
     stop at every instant. *)
  let shield = driving_shield () in
  let controller =
    Dpoaf_lang.Glm2fsa.controller ~name:"reckless"
      [ Dpoaf_lang.Clause.Act Vocab.act_go_straight ]
  in
  let model = Models.model Models.Wide_median in
  let world = World.create ~model (Rng.create 31) in
  let trace = Runner.run ~shield world controller ~steps:20 (Rng.create 32) in
  List.iter
    (fun step ->
      Alcotest.(check bool) "stop emitted" true
        (Symbol.mem Vocab.act_stop step.Runner.action);
      Alcotest.(check int) "state held" 0 step.Runner.ctrl_state)
    trace

(* Theorem 1 as a property: for random GLM2FSA-style controllers over the
   driving vocabulary, noise-free simulation of a safety spec that the
   model checker certifies never produces a violating rollout. *)
let gen_controller =
  let open QCheck.Gen in
  let cond =
    oneof
      [
        map (fun p -> Dpoaf_lang.Clause.Cond_atom p)
          (oneofl (Models.scenario_propositions Models.Traffic_light));
        map (fun p -> Dpoaf_lang.Clause.Cond_not p)
          (oneofl (Models.scenario_propositions Models.Traffic_light));
      ]
  in
  let clause =
    oneof
      [
        map (fun p -> Dpoaf_lang.Clause.Observe p)
          (oneofl (Models.scenario_propositions Models.Traffic_light));
        map2 (fun c a -> Dpoaf_lang.Clause.If_act (c, a)) cond (oneofl Vocab.actions);
        map (fun c -> Dpoaf_lang.Clause.If_advance c) cond;
        map (fun a -> Dpoaf_lang.Clause.Act a) (oneofl Vocab.actions);
      ]
  in
  QCheck.Gen.map
    (fun clauses -> Dpoaf_lang.Glm2fsa.controller ~name:"random" clauses)
    (QCheck.Gen.list_size (QCheck.Gen.int_range 1 4) clause)

let safety_specs =
  [ Specs.phi 3; Specs.phi 5; Specs.phi 6; Specs.phi 9; Specs.phi 14 ]

let prop_theorem1 =
  QCheck.Test.make ~count:60 ~name:"Thm 1: verified safety holds empirically"
    (QCheck.make gen_controller)
    (fun controller ->
      let model = tl_model () in
      List.for_all
        (fun phi ->
          match MC.check ~model ~controller phi with
          | MC.Fails _ -> true (* theorem says nothing *)
          | MC.Holds ->
              let rates =
                Empirical.evaluate ~model ~controller ~specs:[ ("s", phi) ]
                  (noise_free ~rollouts:30 ~steps:25)
              in
              List.assoc "s" rates = 1.0)
        safety_specs)

let qsuite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests)

let () =
  Alcotest.run "sim"
    [
      ( "world",
        [
          Alcotest.test_case "follows model" `Quick test_world_follows_model;
          Alcotest.test_case "no-noise perceive" `Quick test_world_no_noise_perceive_exact;
          Alcotest.test_case "full miss noise" `Quick test_world_noise_rates;
          Alcotest.test_case "false positives" `Quick test_world_false_positives;
          Alcotest.test_case "rejects non-total" `Quick test_world_rejects_nontotal;
        ] );
      ( "runner",
        [
          Alcotest.test_case "length and actions" `Quick test_runner_length_and_actions;
          Alcotest.test_case "symbols union" `Quick test_runner_to_symbols_union;
          Alcotest.test_case "deterministic" `Quick test_runner_deterministic_given_seeds;
        ] );
      ( "empirical",
        [
          Alcotest.test_case "verified safety perfect" `Quick test_safety_rate_good_controller;
          Alcotest.test_case "flawed violates phi5" `Quick
            test_flawed_controller_violates_phi5_sometimes;
          Alcotest.test_case "after >= before (fig 11)" `Slow test_before_below_after;
          Alcotest.test_case "noise degrades safety" `Quick test_noise_degrades_safety;
          Alcotest.test_case "jobs-deterministic" `Quick
            test_empirical_jobs_deterministic;
          Alcotest.test_case "rate arithmetic" `Quick test_satisfaction_rate_direct;
        ] );
      ( "shield",
        [
          Alcotest.test_case "permits" `Quick test_shield_permits;
          Alcotest.test_case "fixes flawed controller" `Quick
            test_shield_fixes_flawed_controller;
          Alcotest.test_case "helps under noise" `Slow test_shield_helps_under_noise;
          Alcotest.test_case "fallback stops" `Quick test_shield_fallback_stops;
        ] );
      qsuite "properties" [ prop_theorem1 ];
    ]
