(* The finetune workload: one op is one DPO-AF round of the paper's
   Figure 2 on the driving pack — sample m responses per training task
   from the pretrained reference, verify and mine pairs, DPO-train the
   LoRA adapter, evaluate the result.  Rounds cycle through a few units,
   each with a sampling and a training seed of its own, so every repeat
   of a unit does identical work and the metrics average over the units'
   sets of mined pairs. *)

module D = Dpoaf_domain.Domain
module Corpus = Dpoaf_pipeline.Corpus
module Feedback = Dpoaf_pipeline.Feedback
module Dpoaf = Dpoaf_pipeline.Dpoaf
module Pref_data = Dpoaf_dpo.Pref_data
module Trainer = Dpoaf_dpo.Trainer
module Metrics = Dpoaf_exec.Metrics
module Cache = Dpoaf_exec.Cache
module Trace = Dpoaf_exec.Trace
module Rng = Dpoaf_util.Rng

(* Sized to show the paper's effect: with the default model, m = 16 and
   30 epochs at lr 2e-3 lift the driving pack from about 10.5 to about
   12.5 of 15 specs. *)
let m = 16
let eval_samples = 32

(* How many mined pairs a round trains on.  The number mined moves with
   the seed (about 140 to 310 here); a fixed-size seeded sample keeps the
   DPO work of a round the same for every seed. *)
let train_pairs = 128
let trainer = { Trainer.default_config with epochs = 30; lr = 2e-3; checkpoint_every = 0 }

(* The work of a round depends on the pairs it mines: with one unit per
   run, allocation per round moved by about 6% (one standard deviation)
   between workload seeds.  Four units halve that. *)
let units = 4

type env = {
  dom : D.t;
  corpus : Corpus.t;
  feedback : Feedback.t;
  reference : Dpoaf_lm.Model.t;
  seed : int;
}

let setup ~seed =
  let dom = Dpoaf_domain.find_exn "driving" in
  let corpus = Corpus.build ~domain:dom () in
  let reference =
    Trace.with_span ~cat:Spans.cat "lm.pretrain" (fun () ->
        Corpus.pretrained_model (Rng.create Serving.pretrain_seed) corpus)
  in
  Serving.warm_nba dom;
  { dom; corpus; feedback = Feedback.create ~domain:dom (); reference; seed }

let spec_count env = float_of_int (D.spec_count env.dom)

let evaluate env model =
  Dpoaf.mean_specs_satisfied ~jobs:1 env.corpus env.feedback model
    (Rng.create ((env.seed * 13) + 5))
    ~samples:eval_samples D.Training
  /. spec_count env

type round = {
  unit_ : int;  (** which unit: sampling and training seed *)
  pairs : Pref_data.pair list;
  run : Trainer.run;
  post : float;  (** spec_sat after the round *)
  wall : float;
  words : float;
  collect_s : float;
  eval_s : float;
  train_s : float;
  epoch_s : float array;  (** summed step times of each epoch *)
  train_words : float;
  steps : int;
  tape_nodes : int;
}

let steps_c = Metrics.counter "dpo.steps"
let tape_nodes_c = Metrics.counter "tape.nodes"

let round ~traced env k =
  let span name f = if traced then Trace.with_span ~cat:Spans.cat name f else f () in
  let unit_ = k mod units in
  let w0 = Gc.minor_words () in
  let t0 = Stat.now () in
  let pairs =
    span "pipeline.collect" (fun () ->
        let rng = Rng.create ((env.seed * 13) + 1 + (8 * unit_)) in
        Dpoaf.collect_pairs ~jobs:1 env.corpus env.feedback env.reference rng
          ~m D.Training
        |> Rng.shuffle_list rng
        |> List.filteri (fun i _ -> i < train_pairs))
  in
  let s0 = Metrics.value steps_c and n0 = Metrics.value tape_nodes_c in
  let tw0 = Gc.minor_words () in
  let t1 = Stat.now () in
  (* per-epoch step times for [ms_per_round]; with a sink attached the
     trainer also computes gradient and update norms, a small extra pass
     over the adapters that every timed round includes *)
  let epoch_s = Array.make trainer.Trainer.epochs 0.0 in
  let sink (r : Trainer.step_record) =
    epoch_s.(r.Trainer.epoch - 1) <- epoch_s.(r.Trainer.epoch - 1) +. r.Trainer.seconds
  in
  let run =
    span "dpo.train" (fun () ->
        Trainer.train ~sink ~reference:env.reference ~pairs trainer
          ~seed:((env.seed * 13) + 2 + (8 * unit_)))
  in
  let t2 = Stat.now () in
  let train_words = Gc.minor_words () -. tw0 in
  let steps = Metrics.value steps_c - s0 and tape_nodes = Metrics.value tape_nodes_c - n0 in
  let post = span "pipeline.eval" (fun () -> evaluate env run.Trainer.final) in
  let t3 = Stat.now () in
  {
    unit_; pairs; run; post;
    wall = t3 -. t0;
    words = Gc.minor_words () -. w0;
    collect_s = t1 -. t0; eval_s = t3 -. t2; train_s = t2 -. t1; epoch_s;
    train_words; steps; tape_nodes;
  }

(* Whole cycles over the units until [seconds] have passed. *)
let loop ~traced env ~seconds =
  let deadline = Stat.now () +. seconds in
  let rec go k acc =
    if k > 0 && k mod units = 0 && Stat.now () >= deadline then List.rev acc
    else go (k + 1) (round ~traced env k :: acc)
  in
  go 0 []

(* ---------------- checking ---------------- *)

let key (p : Pref_data.pair) =
  (p.Pref_data.task_id, p.Pref_data.chosen, p.Pref_data.rejected)

let check env rounds =
  let memo = Hashtbl.create 256 in
  let score tokens =
    match Hashtbl.find_opt memo tokens with
    | Some s -> s
    | None ->
        let s = Check.verified_score env.dom (Corpus.steps_of_tokens env.corpus tokens) in
        Hashtbl.add memo tokens s;
        s
  in
  let pre = evaluate env env.reference in
  let first = Hashtbl.create 2 in
  let problems =
    List.concat_map
      (fun r ->
        match Hashtbl.find_opt first r.unit_ with
        | None ->
            Hashtbl.add first r.unit_ r;
            List.filter_map
              (function Ok () -> None | Error e -> Some e)
              [
                Check.pairs ~score r.pairs;
                Check.training r.run.Trainer.stats;
                Check.improvement ~pre ~post:r.post;
              ]
        | Some f ->
            if List.map key f.pairs <> List.map key r.pairs || f.post <> r.post
            then [ "a repeated round gave a different result" ]
            else [])
      rounds
  in
  let gain =
    match Check.mean_gain ~pre ~posts:(Hashtbl.fold (fun _ r acc -> r.post :: acc) first []) with
    | Ok () -> []
    | Error e -> [ e ]
  in
  (* each check must reject a corrupted copy of what it accepted *)
  let self_test =
    match rounds with
    | { pairs = p :: _; run; post; _ } :: _ ->
        let swapped = { p with Pref_data.chosen = p.Pref_data.rejected; rejected = p.Pref_data.chosen } in
        List.filter_map
          (fun (what, v) -> if Result.is_ok v then Some ("self-test: " ^ what ^ " accepted") else None)
          [
            ("swapped pair", Check.pairs ~score [ swapped ]);
            ("rising loss", Check.training (List.rev run.Trainer.stats));
            ("no improvement", Check.improvement ~pre:post ~post:pre);
            ("too small a gain", Check.mean_gain ~pre ~posts:[ pre +. (Check.min_gain /. 2.0) ]);
          ]
    | _ -> [ "self-test: no round with pairs" ]
  in
  Printf.eprintf "finetune: pre %.4f, post %s; %d responses re-verified\n%!" pre
    (String.concat ", "
       (List.map (fun r -> Printf.sprintf "%.4f" r.post)
          (List.filteri (fun i _ -> i < units) rounds)))
    (Hashtbl.length memo);
  problems @ gain @ self_test

(* ---------------- the runs ---------------- *)

(* The wall time of a unit's round, rebuilt from the fastest repeat of
   each of its fixed parts: collecting pairs, the training outside its
   optimizer steps (cloning, reference log-probabilities), one epoch of
   steps (every epoch steps over the same pairs) times the epoch count,
   and the evaluation.  A round lasts about 0.6 s, so a unit repeats only
   some seven times in a run; an epoch lasts about 20 ms and repeats some
   two hundred times, so its fastest repeat is found even when the host
   slows for seconds at a time. *)
let ms_per_unit_round rounds =
  let low f = Stat.low_time (List.map f rounds) in
  let epochs = List.concat_map (fun r -> Array.to_list r.epoch_s) rounds in
  let outside_steps r = r.train_s -. Array.fold_left ( +. ) 0.0 r.epoch_s in
  1000.0
  *. (low (fun r -> r.collect_s)
     +. low outside_steps
     +. (float_of_int trainer.Trainer.epochs *. Stat.low_time epochs)
     +. low (fun r -> r.eval_s))

(* The mean over the units of a statistic of each unit's rounds. *)
let per_unit f rounds =
  Stat.mean (List.init units (fun u -> f (List.filter (fun r -> r.unit_ = u) rounds)))

let ms_per_round rounds =
  Stat.describe "ms per round" (List.map (fun r -> 1000.0 *. r.wall) rounds);
  Stat.describe "ms per epoch"
    (List.concat_map (fun r -> Array.to_list (Array.map (( *. ) 1000.0) r.epoch_s)) rounds);
  per_unit ms_per_unit_round rounds

let run env ~seconds ~setup_s =
  let rounds = loop ~traced:false env ~seconds in
  let rss = Stat.peak_rss_mb () in
  let problems = check env rounds in
  {
    Report.correct = problems = [];
    attempted = List.length rounds;
    failed = 0;
    problems;
    metrics =
      [
        Report.metric "setup_s" "s" setup_s;
        Report.metric "ms_per_op" "ms" (ms_per_round rounds);
        Report.metric "alloc_kw_per_op" "kw"
          (per_unit (fun rs -> Stat.median (List.map (fun r -> r.words /. 1000.0) rs)) rounds);
        Report.metric "peak_rss_mb" "MiB" rss;
        Report.metric "spec_sat" "fraction" (Stat.mean (List.map (fun r -> r.post) rounds));
      ];
  }

let traced env ~seconds =
  let gc0 = Stat.collections () in
  let plain = loop ~traced:false env ~seconds:(seconds /. 2.0) in
  let gc1 = Stat.collections () in
  let fb0 = Feedback.cache_stats env.feedback and nba0 = Serving.nba_stats () in
  let pretrain_s = Spans.pretrain_s () in
  Spans.start ();
  let rounds = loop ~traced:true env ~seconds:(seconds /. 2.0) in
  Trace.disable ();
  let fb1 = Feedback.cache_stats env.feedback in
  let s = Spans.summarize (Spans.collect ()) in
  let ms us = us /. 1000.0 in
  let wall_us = 1e6 *. List.fold_left (fun acc r -> acc +. r.wall) 0.0 rounds in
  Spans.print_self_table s ~ops:(List.length rounds) ~wall_us;
  let sumi f = List.fold_left (fun acc r -> acc + f r) 0 rounds in
  let traced_ms = ms_per_round rounds and plain_ms = ms_per_round plain in
  let per_plain n = float_of_int n /. float_of_int (List.length plain) in
  let layer =
    [
      ("lm.pretrain_s", pretrain_s);
      ("pipeline.collect_ms", ms (Spans.median_us s "pipeline.collect"));
      ("pipeline.pairs", Stat.mean (List.map (fun r -> float_of_int (List.length r.pairs)) rounds));
      ("pipeline.eval_ms", ms (Spans.median_us s "pipeline.eval"));
      ( "feedback.hit_rate",
        Serving.hit_rate (fb0.Cache.hits, fb0.Cache.misses) (fb1.Cache.hits, fb1.Cache.misses) );
      ("dpo.train_ms", ms (Spans.median_us s "dpo.train"));
      ( "dpo.step_ms",
        1000.0 *. Stat.median (List.map (fun r -> r.train_s /. float_of_int r.steps) rounds) );
      ( "dpo.step_alloc_kw",
        Stat.median (List.map (fun r -> r.train_words /. 1000.0 /. float_of_int r.steps) rounds) );
      ( "tensor.tape_nodes_per_step",
        Stat.ratio (float_of_int (sumi (fun r -> r.tape_nodes))) (float_of_int (sumi (fun r -> r.steps))) );
      ("automata.nba_hit_rate", Serving.hit_rate nba0 (Serving.nba_stats ()));
      ("gc.minor_per_op", per_plain (fst gc1 - fst gc0));
      ("gc.major_per_op", per_plain (snd gc1 - snd gc0));
      ("trace.ms_per_op", traced_ms);
      ("trace.untraced_ms_per_op", plain_ms);
      ("trace.overhead_pct", 100.0 *. Stat.ratio (traced_ms -. plain_ms) plain_ms);
      ("trace.accounted_frac", Stat.ratio (Spans.self_total_us s) wall_us);
    ]
  in
  Trace.write_chrome (Output.path "finetune");
  let all = plain @ rounds in
  let problems = check env all in
  (List.length all, 0, problems, layer)
