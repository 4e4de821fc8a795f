(* REINFORCE on an autodiff tape: every epoch scores the samples with a
   nonzero advantage through {!Tape_model}, sums
   [scale (-advantage/total) logπ] over them and back-propagates.
   [Reinforce.train] steps on frozen features without a tape and must
   train exactly like this, bit for bit. *)

module Model = Dpoaf_lm.Model
module Sampler = Dpoaf_lm.Sampler
module Reinforce = Dpoaf_dpo.Reinforce
module Optim = Dpoaf_tensor.Optim
module Rng = Dpoaf_util.Rng
module Stats = Dpoaf_util.Stats

let epoch_step policy opt (config : Reinforce.config) rng
    (tasks : Reinforce.task list) =
  let snap = Sampler.snapshot policy in
  let batches =
    List.map
      (fun (task : Reinforce.task) ->
        let samples =
          List.init config.Reinforce.samples_per_task (fun _ ->
              let tokens =
                Sampler.sample snap rng ~prompt:task.Reinforce.prompt
                  ~grammar:task.Reinforce.grammar ~min_clauses:task.Reinforce.min_clauses
                  ~max_clauses:task.Reinforce.max_clauses
                  ~temperature:config.Reinforce.temperature ()
              in
              (tokens, task.Reinforce.reward tokens))
        in
        (task, samples, Stats.mean (List.map snd samples)))
      tasks
  in
  let tape = Autodiff.Tape.create () in
  let bound = Tape_model.bind policy tape in
  let total = float_of_int (List.length tasks * config.Reinforce.samples_per_task) in
  let terms =
    List.concat_map
      (fun ((task : Reinforce.task), samples, baseline) ->
        List.filter_map
          (fun (tokens, reward) ->
            let advantage = reward -. baseline in
            if advantage = 0.0 then None
            else
              let lp =
                Tape_model.response_logprob_node policy bound
                  ~prompt:task.Reinforce.prompt ~grammar:task.Reinforce.grammar
                  ~min_clauses:task.Reinforce.min_clauses
                  ~max_clauses:task.Reinforce.max_clauses ~tokens
              in
              Some (Autodiff.scale tape (-.advantage /. total) lp))
          samples)
      batches
  in
  let mean_reward =
    Stats.mean (List.concat_map (fun (_, samples, _) -> List.map snd samples) batches)
  in
  (if terms <> [] then begin
     Autodiff.backward tape (Autodiff.add_list tape terms);
     Optim.Adam.step opt (Tape_model.lora_grads policy bound)
   end);
  mean_reward

let train ~reference ~tasks (config : Reinforce.config) ~seed =
  let policy = Model.clone reference in
  let opt = Optim.Adam.create ~lr:config.Reinforce.lr () in
  let rng = Rng.create seed in
  let stats =
    List.init config.Reinforce.epochs (fun i ->
        { Reinforce.epoch = i + 1;
          mean_reward = epoch_step policy opt config rng tasks })
  in
  { Reinforce.stats; final = policy }
