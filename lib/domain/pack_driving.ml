(* The autonomous-driving pack: an adapter over lib/driving's vocabulary,
   tasks, rule book, world models and response pools (same task order,
   same candidate-step texts, same world-model caches), verified through
   Eval.make like every other pack. *)

module Tasks = Dpoaf_driving.Tasks
module Models = Dpoaf_driving.Models
module Responses = Dpoaf_driving.Responses

let task_of_driving (t : Tasks.t) =
  {
    Domain.id = t.Tasks.id;
    prompt = t.Tasks.prompt;
    scenario = Models.scenario_name t.Tasks.scenario;
    split =
      (match t.Tasks.split with
      | Tasks.Training -> Domain.Training
      | Tasks.Validation -> Domain.Validation);
  }

let step_of_driving (s : Responses.step) =
  {
    Domain.text = s.Responses.text;
    quality =
      (match s.Responses.quality with
      | Responses.Good -> Domain.Good
      | Responses.Risky -> Domain.Risky
      | Responses.Bad -> Domain.Bad);
  }

let specs () = Dpoaf_driving.Specs.all

let eval =
  Eval.make ~name:"driving" ~make_lexicon:Dpoaf_driving.Vocab.lexicon ~specs
    ~universal:Models.universal

module M : Domain.S = struct
  let name = "driving"
  let propositions = Dpoaf_driving.Vocab.propositions
  let actions = Dpoaf_driving.Vocab.actions
  let lexicon = eval.Eval.lexicon
  let tasks = List.map task_of_driving Tasks.all
  let specs = specs
  let scenarios = List.map Models.scenario_name Models.all_scenarios

  let model scenario_name =
    Option.map Models.model (Models.scenario_of_name scenario_name)

  let universal = Models.universal
  let driving_task (t : Domain.task) = Tasks.find t.Domain.id

  let observations t =
    List.map step_of_driving (Responses.observations (driving_task t))

  let finals t = List.map step_of_driving (Responses.finals (driving_task t))

  let demo_responses =
    [
      ("right_turn_before_ft", Responses.right_turn_before_ft);
      ("right_turn_after_ft", Responses.right_turn_after_ft);
      ("left_turn_before_ft", Responses.left_turn_before_ft);
      ("left_turn_after_ft", Responses.left_turn_after_ft);
    ]

  let controller_of_steps = eval.Eval.controller_of_steps
  let profile_of_steps = eval.Eval.profile_of_steps
  let profile_of_controller = eval.Eval.profile_of_controller
end

let pack : Domain.t = (module M)
