module Domain = Dpoaf_domain.Domain
module Model = Dpoaf_lm.Model
module Sampler = Dpoaf_lm.Sampler
module Pref_data = Dpoaf_dpo.Pref_data
module Trainer = Dpoaf_dpo.Trainer
module Rng = Dpoaf_util.Rng
module Stats = Dpoaf_util.Stats
module Pool = Dpoaf_exec.Pool
module Metrics = Dpoaf_exec.Metrics
module Trace = Dpoaf_exec.Trace
module Cache = Dpoaf_exec.Cache

type config = {
  responses_per_task : int;
  temperature : float;
  eval_samples : int;
  trainer : Trainer.config;
}

let default_config =
  {
    responses_per_task = 12;
    temperature = 1.0;
    eval_samples = 8;
    trainer = Trainer.default_config;
  }

(* One shared copy of each sampled response and of each mined pair: both
   recur within a round and across rounds, and what a caller keeps of
   many rounds (pairs, profiles) then holds one copy of each. *)
let responses : (int list, int list) Cache.t =
  Cache.create ~capacity:4096 ~name:"pipeline.responses" ()

let mined : (Pref_data.pair, Pref_data.pair) Cache.t =
  Cache.create ~capacity:4096 ~name:"pipeline.pairs" ()

(* Sampling consumes the shared RNG stream and stays sequential — the token
   sequences are therefore identical for every worker count.  Scoring is a
   pure function of the tokens (verification + shared cache), so it fans
   out across the pool, order-preserved by [parallel_map]. *)
let sample_scored ?(harden = false) ?jobs corpus feedback model rng ~m ~temperature
    setup =
  let task = setup.Corpus.task.Domain.id in
  let sampled =
    Trace.with_span ~cat:"pipeline" ~attrs:[ ("task", task) ] "pipeline.sample"
      (fun () ->
        let snap = Sampler.snapshot model in
        List.init m (fun _ ->
            let tokens =
              Sampler.sample snap rng ~prompt:setup.Corpus.prompt
                ~grammar:setup.Corpus.grammar ~min_clauses:setup.Corpus.min_clauses
                ~max_clauses:setup.Corpus.max_clauses ~temperature ()
            in
            Cache.find_or_add responses tokens (fun () -> tokens)))
  in
  let profile =
    if harden then Feedback.profile_tokens_hardened else Feedback.profile_tokens
  in
  let profiles =
    Trace.with_span ~cat:"pipeline" ~attrs:[ ("task", task) ] "pipeline.score"
      (fun () ->
        Pool.parallel_map ?jobs
          (fun tokens -> profile feedback ~corpus setup tokens)
          sampled)
  in
  List.map2
    (fun tokens (p : Feedback.profile) ->
      { Pref_data.tokens; score = List.length p.Feedback.satisfied;
        satisfied = p.Feedback.satisfied; vacuous = p.Feedback.vacuous })
    sampled profiles

(* Pairs whose whole margin is vacuously satisfied train on noise; the
   static analyzer flags them in provenance and this counter sizes the
   problem per run (surfaced by `dpoaf_cli report`). *)
let vacuous_margin_pairs = Metrics.counter "feedback.vacuous_margin"

let collect_pairs ?jobs ?(explain = false) corpus feedback model rng ~m
    ?(temperature = 1.0) split =
  Trace.with_span ~cat:"pipeline" "pipeline.collect_pairs" @@ fun () ->
  Metrics.time "pipeline.collect_pairs" (fun () ->
      (* One losing response can appear in many mined pairs; memoize by
         token sequence so the (cold-path) explainer runs once each. *)
      let explain_cb =
        if not explain then None
        else begin
          let memo = Hashtbl.create 64 in
          Some
            (fun (s : Pref_data.scored) ->
              match Hashtbl.find_opt memo s.Pref_data.tokens with
              | Some es -> es
              | None ->
                  let steps = Corpus.steps_of_tokens corpus s.Pref_data.tokens in
                  let es =
                    List.map
                      (fun (e : Dpoaf_analysis.Explain.t) ->
                        ( e.Dpoaf_analysis.Explain.spec,
                          e.Dpoaf_analysis.Explain.text ))
                      (Domain.explain_steps corpus.Corpus.domain steps)
                  in
                  Hashtbl.add memo s.Pref_data.tokens es;
                  es)
        end
      in
      List.concat_map
        (fun setup ->
          let scored =
            sample_scored ?jobs corpus feedback model rng ~m ~temperature setup
          in
          let pairs =
            Pref_data.pairs_of_scored ?explain:explain_cb
              ~task_id:setup.Corpus.task.Domain.id
              ~prompt:setup.Corpus.prompt ~grammar:setup.Corpus.grammar
              ~min_clauses:setup.Corpus.min_clauses
              ~max_clauses:setup.Corpus.max_clauses scored
          in
          List.map
            (fun p ->
              if Pref_data.vacuous_margin p then Metrics.incr vacuous_margin_pairs;
              Cache.find_or_add mined p (fun () -> p))
            pairs)
        (Corpus.setups_of_split corpus split))

let mean_specs_satisfied ?(harden = false) ?jobs corpus feedback model rng ~samples
    ?(temperature = 1.0) split =
  Trace.with_span ~cat:"pipeline" "pipeline.evaluate" @@ fun () ->
  Metrics.time "pipeline.evaluate" (fun () ->
      let setups = Corpus.setups_of_split corpus split in
      let per_task =
        List.map
          (fun setup ->
            let scored =
              sample_scored ~harden ?jobs corpus feedback model rng ~m:samples
                ~temperature setup
            in
            Stats.mean (List.map (fun s -> float_of_int s.Pref_data.score) scored))
          setups
      in
      Stats.mean per_task)

type checkpoint_eval = { epoch : int; training_score : float; validation_score : float }

type result = {
  pairs_used : int;
  runs : Trainer.run list;
  curve : checkpoint_eval list;
}

(* ---------------- iterative DPO-AF ---------------- *)

type round_eval = {
  round : int;
  pairs : int;
  training_score : float;
  validation_score : float;
}

let run_iterative ?(config = default_config) ?jobs ~rounds ~corpus ~feedback
    ~reference rng =
  let eval policy =
    let score split =
      mean_specs_satisfied ?jobs corpus feedback policy (Rng.split rng)
        ~samples:config.eval_samples ~temperature:config.temperature split
    in
    (score Domain.Training, score Domain.Validation)
  in
  let rec go round policy acc =
    if round > rounds then (List.rev acc, policy)
    else begin
      let pairs =
        collect_pairs ?jobs corpus feedback policy rng ~m:config.responses_per_task
          ~temperature:config.temperature Domain.Training
      in
      (* each round anchors the DPO reference at the current policy *)
      let run = Trainer.train ~reference:policy ~pairs config.trainer ~seed:round in
      let policy' = run.Trainer.final in
      let t, v = eval policy' in
      go (round + 1) policy'
        ({ round; pairs = List.length pairs; training_score = t; validation_score = v }
         :: acc)
    end
  in
  let t0, v0 = eval reference in
  let rounds_out, final = go 1 reference [] in
  ( { round = 0; pairs = 0; training_score = t0; validation_score = v0 } :: rounds_out,
    final )

(* ---------------- REINFORCE baseline glue ---------------- *)

let reinforce_tasks corpus feedback split =
  List.map
    (fun setup ->
      {
        Dpoaf_dpo.Reinforce.prompt = setup.Corpus.prompt;
        grammar = setup.Corpus.grammar;
        min_clauses = setup.Corpus.min_clauses;
        max_clauses = setup.Corpus.max_clauses;
        reward =
          (fun tokens ->
            float_of_int (Feedback.score_tokens feedback ~corpus setup tokens)
            /. float_of_int (Domain.spec_count corpus.Corpus.domain));
      })
    (Corpus.setups_of_split corpus split)

let run ?(config = default_config) ?jobs ?sink ~corpus ~feedback ~reference ~seeds
    rng =
  let pairs =
    collect_pairs ?jobs corpus feedback reference rng ~m:config.responses_per_task
      ~temperature:config.temperature Domain.Training
  in
  let runs =
    Trace.with_span ~cat:"pipeline" "pipeline.train" @@ fun () ->
    Metrics.time "pipeline.train" (fun () ->
        Trainer.train_seeds ?jobs ?sink ~reference ~pairs config.trainer ~seeds)
  in
  let curve =
    match runs with
    | [] -> []
    | first :: _ ->
        List.map
          (fun (epoch, model) ->
            let eval split =
              mean_specs_satisfied ?jobs corpus feedback model (Rng.split rng)
                ~samples:config.eval_samples ~temperature:config.temperature split
            in
            {
              epoch;
              training_score = eval Domain.Training;
              validation_score = eval Domain.Validation;
            })
          first.Trainer.checkpoints
  in
  { pairs_used = List.length pairs; runs; curve }
