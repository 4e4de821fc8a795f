module Model = Dpoaf_lm.Model
module Sampler = Dpoaf_lm.Sampler
module Lora = Dpoaf_tensor.Lora
module Optim = Dpoaf_tensor.Optim
module Tensor = Dpoaf_tensor.Tensor
module Rng = Dpoaf_util.Rng
module Stats = Dpoaf_util.Stats

type task = {
  prompt : int list;
  grammar : Dpoaf_lm.Grammar.t;
  min_clauses : int;
  max_clauses : int;
  reward : int list -> float;
}

type config = {
  lr : float;
  epochs : int;
  samples_per_task : int;
  temperature : float;
}

let default_config = { lr = 2e-3; epochs = 100; samples_per_task = 8; temperature = 1.0 }

type epoch_stats = { epoch : int; mean_reward : float }

type run = { stats : epoch_stats list; final : Model.t }

let epoch_step policy opt config rng ~ga ~gb tasks =
  let snap = Sampler.snapshot policy in
  (* on-policy rollouts with per-task advantage *)
  let batches =
    List.map
      (fun task ->
        let samples =
          List.init config.samples_per_task (fun _ ->
              let tokens =
                Sampler.sample snap rng ~prompt:task.prompt ~grammar:task.grammar
                  ~min_clauses:task.min_clauses ~max_clauses:task.max_clauses
                  ~temperature:config.temperature ()
              in
              (tokens, task.reward tokens))
        in
        let baseline = Stats.mean (List.map snd samples) in
        (task, samples, baseline))
      tasks
  in
  let total = float_of_int (List.length tasks * config.samples_per_task) in
  let terms =
    List.concat_map
      (fun (task, samples, baseline) ->
        List.filter_map
          (fun (tokens, reward) ->
            let advantage = reward -. baseline in
            if advantage = 0.0 then None
            else
              Some
                ( { Features.prompt = task.prompt; grammar = task.grammar;
                    min_clauses = task.min_clauses; max_clauses = task.max_clauses;
                    tokens },
                  advantage ))
          samples)
      batches
  in
  let mean_reward =
    Stats.mean
      (List.concat_map (fun (_, samples, _) -> List.map snd samples) batches)
  in
  (if terms <> [] then begin
     (* minimize -Σ advantage·logπ / total; the gradient is the tape's for
        [add_list (scale (-advantage/total) logπ)], whose reverse pass
        seeds every term with [0.0 +. 1.0] and backs them up last to
        first *)
     let f = Features.create policy (List.map fst terms) in
     let advantages = Array.of_list (List.map snd terms) in
     let n = Array.length advantages in
     for i = 0 to n - 1 do
       ignore (Features.leg_logprob f policy i)
     done;
     Tensor.fill ga 0.0;
     Tensor.fill gb 0.0;
     let agrad = ga.Tensor.data and bgrad = gb.Tensor.data in
     for i = n - 1 downto 0 do
       let c = -.advantages.(i) /. total in
       Features.leg_backward f policy ~agrad ~bgrad i (0.0 +. (c *. (0.0 +. 1.0)))
     done;
     Optim.Adam.step opt (List.combine (Model.params_lora policy) [ ga; gb ])
   end);
  mean_reward

let train ~reference ~tasks config ~seed =
  let policy = Model.clone reference in
  let opt = Optim.Adam.create ~lr:config.lr () in
  let rng = Rng.create seed in
  let ga = Tensor.zeros (Tensor.dims policy.Model.out.Lora.a)
  and gb = Tensor.zeros (Tensor.dims policy.Model.out.Lora.b) in
  let stats =
    List.init config.epochs (fun i ->
        { epoch = i + 1; mean_reward = epoch_step policy opt config rng ~ga ~gb tasks })
  in
  { stats; final = policy }
