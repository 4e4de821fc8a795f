(* Paper benchmark: regenerates every figure of the paper's evaluation
   (§5), its ablations and extensions, and the domain-pack and
   refinement studies.  Performance is measured by perfbench/ (see
   perfbench/README.md), not here.

     dune exec bench/main.exe            full reproduction (several minutes)
     dune exec bench/main.exe -- --fast  scaled-down run (~2 minutes)
     dune exec bench/main.exe -- --only fig9,fig11
     dune exec bench/main.exe -- --jobs 4   domain-parallel scoring/rollouts

   With --csv DIR, each printed table is also written as DIR/<name>.csv.
   With --trace FILE, spans and metrics are recorded to FILE (JSONL, plus
   FILE.perfetto.json for chrome://tracing); --metrics-json FILE writes the
   final metrics summary as JSON; --section-metrics prints each section's
   own metric delta (Metrics.delta of summary snapshots — process-lifetime
   totals are never reset).

   Sections:
     fig7   §5.1 right-turn worked example (before/after, Φ5 counterexample)
     fig18  Appendix C left-turn worked example (Φ12)
     fig8   DPO loss / accuracy / marginal preference over epochs (seeds)
     fig9   specifications satisfied vs DPO epoch (training + validation)
     fig11  empirical P_Φ in the simulator, before vs after fine-tuning
     fig12  vision confidence→accuracy mapping, sim vs real
     fig13  detection accuracy by weather/light condition
     shield     extension: runtime safety shield under perception noise
     abl-rank   ablation: LoRA rank
     abl-decode ablation: grammar-constrained vs unconstrained decoding
     abl-repair baseline: specification-guided repair vs fine-tuning
     abl-rl     baseline: REINFORCE with verifier reward vs DPO
     abl-arch   ablation: bag-of-words vs GRU conditioner
     iter-dpo   extension: iterative DPO-AF
     domains    every registered domain pack through the DPO loop + one
                serve batch (writes BENCH_domains.json)
     analysis   whole-suite static analysis + explanations per pack
     refine     counterexample-guided refinement over each pack's seeded
                defect pool (writes BENCH_refine.json)

   Unknown --only names are rejected with the list of valid sections. *)

open Dpoaf_driving
module Dom = Dpoaf_domain.Domain
module Driving = (val Dpoaf_domain.Pack_driving.pack : Dom.S)
module Pipeline = Dpoaf_pipeline
module Trainer = Dpoaf_dpo.Trainer
module MC = Dpoaf_automata.Model_checker
module Rng = Dpoaf_util.Rng
module Stats = Dpoaf_util.Stats
module Table = Dpoaf_util.Table

let fast = Array.exists (( = ) "--fast") Sys.argv

(* --jobs N sets the worker count of the shared Dpoaf_exec pool; every
   parallel stage (scoring, rollouts, multi-seed training) inherits it. *)
let jobs =
  let rec find i =
    if i >= Array.length Sys.argv - 1 then 1
    else if Sys.argv.(i) = "--jobs" then
      match int_of_string_opt Sys.argv.(i + 1) with
      | Some n when n >= 1 -> n
      | _ -> failwith "--jobs expects a positive integer"
    else find (i + 1)
  in
  find 1

let () = Dpoaf_exec.Pool.set_default_jobs jobs

let only =
  let rec find i =
    if i >= Array.length Sys.argv - 1 then None
    else if Sys.argv.(i) = "--only" then
      Some (String.split_on_char ',' Sys.argv.(i + 1))
    else find (i + 1)
  in
  find 1

let enabled name = match only with None -> true | Some l -> List.mem name l

let string_opt flag =
  let rec find i =
    if i >= Array.length Sys.argv - 1 then None
    else if Sys.argv.(i) = flag then Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let csv_dir = string_opt "--csv"
let trace_file = string_opt "--trace"
let metrics_json_file = string_opt "--metrics-json"
let section_metrics = Array.exists (( = ) "--section-metrics") Sys.argv

let () = if trace_file <> None then Dpoaf_exec.Trace.enable ()

(* print a table and, with --csv DIR, also write DIR/<name>.csv *)
let emit name table =
  Table.print table;
  match csv_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (name ^ ".csv") in
      Dpoaf_util.Csv.write path ~header:(Table.header table) (Table.rows table);
      Printf.printf "(wrote %s)\n" path

let section name title =
  if enabled name then begin
    Printf.printf "\n%s\n=== [%s] %s%s\n%s\n%!" (String.make 72 '=') name title
      (if fast then "  (--fast)" else "")
      (String.make 72 '=');
    true
  end
  else false

let wallclock f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

(* write a section's artifact: a [config] member recording the run that
   produced it, then one member per pack *)
let write_artifact path ~config entries =
  let module Json = Dpoaf_util.Json in
  let oc = open_out path in
  output_string oc
    (Json.to_string
       (Json.obj
          (("config", Json.obj (("fast", Json.Bool fast) :: config))
          :: entries)));
  output_char oc '\n';
  close_out oc;
  Printf.printf "(wrote %s)\n" path

(* ------------------------------------------------------------------ *)
(* Fig 7 / §5.1 and Fig 18 / Appendix C: worked examples               *)

let worked_example name title scenario before after highlight =
  if section name title then begin
    let table =
      Table.create [ "response"; "scenario"; "universal"; "failing (scenario)" ]
    in
    let row label steps =
      let controller, _ = Driving.controller_of_steps ~name:label steps in
      let verdicts = MC.verify_all ~model:(Models.model scenario) ~controller ~specs:Specs.all in
      let failing =
        List.filter_map
          (fun (n, _, v) -> if MC.is_holds v then None else Some n)
          verdicts
      in
      Table.add_row table
        [
          label;
          Printf.sprintf "%d/15" (15 - List.length failing);
          Printf.sprintf "%d/15" (MC.count_satisfied ~model:(Models.universal ()) ~controller ~specs:Specs.all);
          (if failing = [] then "-" else String.concat " " failing);
        ];
      controller
    in
    let ctrl_before = row "before fine-tuning" before in
    let _ = row "after fine-tuning" after in
    emit name table;
    Printf.printf "\ncounterexample for %s (before fine-tuning):\n" highlight;
    match
      MC.check ~model:(Models.model scenario) ~controller:ctrl_before
        (List.assoc highlight Specs.all)
    with
    | MC.Holds -> print_endline "  unexpectedly holds"
    | MC.Fails cex ->
        List.iter (Printf.printf "  %s\n") cex.MC.prefix_descr;
        print_endline "  -- cycle --";
        List.iter (Printf.printf "  %s\n") cex.MC.cycle_descr
  end

let fig7 () =
  worked_example "fig7" "Right-turn controllers before/after fine-tuning (§5.1)"
    Models.Traffic_light Responses.right_turn_before_ft Responses.right_turn_after_ft
    "phi_5"

let fig18 () =
  worked_example "fig18" "Left-turn controllers before/after fine-tuning (App. C)"
    Models.Left_turn_light Responses.left_turn_before_ft Responses.left_turn_after_ft
    "phi_12"

(* ------------------------------------------------------------------ *)
(* Fig 8 + Fig 9: the DPO-AF training experiment                       *)

type training_artifacts = {
  corpus : Pipeline.Corpus.t;
  reference : Dpoaf_lm.Model.t;
  result : Pipeline.Dpoaf.result;
  epochs : int;
  checkpoint_every : int;
}

let artifacts = ref None

let train_artifacts () =
  match !artifacts with
  | Some a -> a
  | None ->
      let seeds = if fast then [ 1; 2 ] else [ 1; 2; 3; 4; 5 ] in
      let epochs = if fast then 60 else 200 in
      let checkpoint_every = if fast then 10 else 20 in
      let corpus = Pipeline.Corpus.build () in
      let rng = Rng.create 2024 in
      Printf.printf "pre-training the language model...\n%!";
      let reference, t_pre =
        wallclock (fun () -> Pipeline.Corpus.pretrained_model rng corpus)
      in
      Printf.printf "  done in %.1fs\n%!" t_pre;
      let feedback = Pipeline.Feedback.create () in
      let config =
        {
          Pipeline.Dpoaf.responses_per_task = (if fast then 16 else 24);
          temperature = 1.0;
          eval_samples = (if fast then 8 else 16);
          trainer =
            { Trainer.default_config with epochs; checkpoint_every; lr = 2e-3 };
        }
      in
      Printf.printf
        "collecting verification-ranked pairs and training %d seed(s)...\n%!"
        (List.length seeds);
      let result, t_train =
        wallclock (fun () ->
            Pipeline.Dpoaf.run ~config ~corpus ~feedback ~reference ~seeds rng)
      in
      let stats = Pipeline.Feedback.cache_stats feedback in
      Printf.printf
        "  done in %.1fs — %d preference pairs, %d verifier calls (%d cached)\n%!"
        t_train result.Pipeline.Dpoaf.pairs_used stats.Dpoaf_exec.Cache.misses
        stats.Dpoaf_exec.Cache.hits;
      let a = { corpus; reference; result; epochs; checkpoint_every } in
      artifacts := Some a;
      a

let fig8 () =
  if section "fig8" "DPO loss, accuracy and marginal preference (Figure 8)" then begin
    let a = train_artifacts () in
    let runs = a.result.Pipeline.Dpoaf.runs in
    let stat_at epoch f =
      List.map
        (fun run ->
          let s =
            List.find
              (fun (s : Trainer.epoch_stats) -> s.Trainer.epoch = epoch)
              run.Trainer.stats
          in
          f s)
        runs
    in
    let table =
      Table.create
        [ "epoch"; "loss mean"; "loss [min,max]"; "accuracy"; "acc [min,max]";
          "margin"; "margin [min,max]" ]
    in
    let epochs_to_show =
      List.filter (fun e -> e > 0)
        (List.init
           ((a.epochs / a.checkpoint_every) + 1)
           (fun i -> i * a.checkpoint_every))
    in
    List.iter
      (fun epoch ->
        let range f =
          let xs = stat_at epoch f in
          let lo, hi = Stats.min_max xs in
          (Stats.mean xs, lo, hi)
        in
        let lm, ll, lh = range (fun s -> s.Trainer.loss) in
        let am, al, ah = range (fun s -> s.Trainer.accuracy) in
        let mm, ml, mh = range (fun s -> s.Trainer.margin) in
        Table.add_row table
          [
            string_of_int epoch;
            Printf.sprintf "%.4f" lm;
            Printf.sprintf "[%.4f, %.4f]" ll lh;
            Printf.sprintf "%.3f" am;
            Printf.sprintf "[%.3f, %.3f]" al ah;
            Printf.sprintf "%.2f" mm;
            Printf.sprintf "[%.2f, %.2f]" ml mh;
          ])
      epochs_to_show;
    emit "fig8" table;
    Printf.printf
      "\nexpected shape (paper Fig 8): loss decreases toward 0, accuracy rises\n\
       toward 1, marginal preference grows from 0; seed bands stay narrow.\n"
  end

let fig9 () =
  if section "fig9" "Specifications satisfied vs DPO epoch (Figure 9)" then begin
    let a = train_artifacts () in
    let total =
      float_of_int (Dom.spec_count a.corpus.Pipeline.Corpus.domain)
    in
    let table =
      Table.create
        [
          "epoch";
          Printf.sprintf "training /%.0f" total;
          "training %";
          Printf.sprintf "validation /%.0f" total;
          "validation %";
        ]
    in
    List.iter
      (fun c ->
        Table.add_row table
          [
            string_of_int c.Pipeline.Dpoaf.epoch;
            Printf.sprintf "%.2f" c.Pipeline.Dpoaf.training_score;
            Printf.sprintf "%.0f%%" (100.0 *. c.Pipeline.Dpoaf.training_score /. total);
            Printf.sprintf "%.2f" c.Pipeline.Dpoaf.validation_score;
            Printf.sprintf "%.0f%%" (100.0 *. c.Pipeline.Dpoaf.validation_score /. total);
          ])
      a.result.Pipeline.Dpoaf.curve;
    emit "fig9" table;
    Printf.printf
      "\nexpected shape (paper Fig 9): both curves rise from ≈60-70%% toward\n\
       ≥90%% as fine-tuning progresses, validation tracking training.\n"
  end

(* ------------------------------------------------------------------ *)
(* Fig 11: empirical satisfaction rates in the simulator               *)

let fig11 () =
  if section "fig11" "Empirical P_Φ before vs after fine-tuning (Figure 11)" then begin
    let rollouts = if fast then 150 else 500 in
    let model = Models.model Models.Traffic_light in
    let mk name steps = fst (Driving.controller_of_steps ~name steps) in
    let config =
      { Dpoaf_sim.Empirical.rollouts; steps = 40;
        noise = { Dpoaf_sim.World.miss_rate = 0.02; false_rate = 0.01 }; seed = 7 }
    in
    let eval c =
      Dpoaf_sim.Empirical.evaluate ~model ~controller:c ~specs:Specs.first_five config
    in
    let before = eval (mk "before" Responses.right_turn_before_ft) in
    let after = eval (mk "after" Responses.right_turn_after_ft) in
    let table = Table.create [ "spec"; "before FT"; "after FT"; "delta" ] in
    List.iter2
      (fun (name, b) (_, a) ->
        Table.add_row table
          [ name; Printf.sprintf "%.3f" b; Printf.sprintf "%.3f" a;
            Printf.sprintf "%+.3f" (a -. b) ])
      before after;
    emit "fig11" table;
    Printf.printf
      "\nexpected shape (paper Fig 11): every specification's satisfaction\n\
       rate is at least as high after fine-tuning (%d rollouts, 2%% missed /\n\
       1%% false detections).\n" rollouts
  end

(* ------------------------------------------------------------------ *)
(* Fig 12 and Fig 13: vision consistency                               *)

let fig12 () =
  if section "fig12" "Vision confidence→accuracy mapping, sim vs real (Figure 12)"
  then begin
    let n = if fast then 20000 else 50000 in
    let sim =
      Dpoaf_vision.Detector.detect_dataset (Rng.create 1) Dpoaf_vision.Detector.Sim
        Dpoaf_vision.Detector.Clear ~n
    in
    let real =
      Dpoaf_vision.Detector.detect_dataset (Rng.create 2) Dpoaf_vision.Detector.Real
        Dpoaf_vision.Detector.Clear ~n
    in
    let sc = Dpoaf_vision.Calibration.curve sim in
    let rc = Dpoaf_vision.Calibration.curve real in
    let table = Table.create [ "confidence"; "sim accuracy"; "real accuracy"; "gap" ] in
    List.iter2
      (fun s r ->
        if s.Dpoaf_vision.Calibration.count >= 30
           && r.Dpoaf_vision.Calibration.count >= 30
        then
          Table.add_row table
            [
              Printf.sprintf "%.1f-%.1f" s.Dpoaf_vision.Calibration.lo
                s.Dpoaf_vision.Calibration.hi;
              Printf.sprintf "%.3f" s.Dpoaf_vision.Calibration.accuracy;
              Printf.sprintf "%.3f" r.Dpoaf_vision.Calibration.accuracy;
              Printf.sprintf "%.3f"
                (abs_float
                   (s.Dpoaf_vision.Calibration.accuracy
                   -. r.Dpoaf_vision.Calibration.accuracy));
            ])
      sc rc;
    emit "fig12" table;
    Printf.printf
      "\nmax gap %.3f — %s (paper Fig 12: the two mappings approximately agree,\n\
       justifying sim-to-real transfer of the verified controllers).\n"
      (Dpoaf_vision.Calibration.max_gap sc rc)
      (if Dpoaf_vision.Calibration.consistent sc rc then "consistent"
       else "NOT consistent")
  end

let fig13 () =
  if section "fig13" "Detection accuracy by condition, sim vs real (Figure 13)"
  then begin
    let n = if fast then 5000 else 20000 in
    let table = Table.create [ "condition"; "sim"; "real" ] in
    List.iter
      (fun cond ->
        let acc domain seed =
          Dpoaf_vision.Detector.accuracy
            (Dpoaf_vision.Detector.detect_dataset (Rng.create seed) domain cond ~n)
        in
        Table.add_row table
          [
            Dpoaf_vision.Detector.condition_name cond;
            Printf.sprintf "%.3f" (acc Dpoaf_vision.Detector.Sim 11);
            Printf.sprintf "%.3f" (acc Dpoaf_vision.Detector.Real 12);
          ])
      Dpoaf_vision.Detector.all_conditions;
    emit "fig13" table;
    Printf.printf
      "\nexpected shape (paper Fig 13): accuracy degrades from clear to rain to\n\
       night, similarly in both domains.\n"
  end

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)

let copy_into_rank corpus reference rank =
  (* clone the pre-trained weights into a model with a different adapter
     rank (the adapter starts at zero either way) *)
  let open Dpoaf_tensor in
  let cfg = reference.Dpoaf_lm.Model.config in
  let m =
    Dpoaf_lm.Model.create (Rng.create 0)
      { cfg with Dpoaf_lm.Model.lora_rank = rank }
      corpus.Pipeline.Corpus.vocab
  in
  let copy dst src =
    for i = 0 to Tensor.numel dst - 1 do
      Tensor.set dst i (Tensor.get src i)
    done
  in
  copy m.Dpoaf_lm.Model.embedding reference.Dpoaf_lm.Model.embedding;
  copy m.Dpoaf_lm.Model.out.Lora.base reference.Dpoaf_lm.Model.out.Lora.base;
  copy m.Dpoaf_lm.Model.bias reference.Dpoaf_lm.Model.bias;
  m

let ablation_rank () =
  if section "abl-rank" "Ablation: LoRA adapter rank" then begin
    let a = train_artifacts () in
    let feedback = Pipeline.Feedback.create () in
    let rng = Rng.create 31 in
    let pairs =
      Pipeline.Dpoaf.collect_pairs a.corpus feedback a.reference rng
        ~m:(if fast then 12 else 16) Dom.Training
    in
    let ranks = if fast then [ 1; 4 ] else [ 1; 2; 4; 8 ] in
    let epochs = if fast then 40 else 80 in
    let table =
      Table.create [ "rank"; "final loss"; "final accuracy"; "training score /15" ]
    in
    List.iter
      (fun rank ->
        let reference = copy_into_rank a.corpus a.reference rank in
        let run =
          Trainer.train ~reference ~pairs
            { Trainer.default_config with epochs; checkpoint_every = 0; lr = 2e-3 }
            ~seed:1
        in
        let last = List.nth run.Trainer.stats (List.length run.Trainer.stats - 1) in
        let score =
          Pipeline.Dpoaf.mean_specs_satisfied a.corpus feedback run.Trainer.final
            (Rng.create 32) ~samples:(if fast then 8 else 16) Dom.Training
        in
        Table.add_row table
          [
            string_of_int rank;
            Printf.sprintf "%.4f" last.Trainer.loss;
            Printf.sprintf "%.3f" last.Trainer.accuracy;
            Printf.sprintf "%.2f" score;
          ])
      ranks;
    emit "shield" table;
    print_endline "\nhigher ranks fit the preferences faster; rank 4 (the default)";
    print_endline "already saturates on this task family."
  end

let ablation_decoding () =
  if section "abl-decode" "Ablation: grammar-constrained vs unconstrained decoding"
  then begin
    let a = train_artifacts () in
    let setup = Pipeline.Corpus.setup_by_id a.corpus "right_turn_tl" in
    let snap = Dpoaf_lm.Sampler.snapshot a.reference in
    let vocab = a.corpus.Pipeline.Corpus.vocab in
    let vocab_size = Dpoaf_lm.Vocab.size vocab in
    let all_tokens = List.init vocab_size Fun.id in
    let rng = Rng.create 33 in
    let n = if fast then 300 else 1000 in
    (* unconstrained: sample from the full softmax until <eos> or length 60 *)
    let unconstrained_valid = ref 0 in
    for _ = 1 to n do
      let rec go prefix len =
        if len >= 60 then List.rev prefix
        else begin
          let context =
            Dpoaf_lm.Model.context_of a.reference ~prompt:setup.Pipeline.Corpus.prompt
              ~prefix:(List.rev prefix)
          in
          let probs =
            Dpoaf_lm.Sampler.step_distribution snap ~context ~allowed:all_tokens
              ~temperature:1.0
          in
          let x = Rng.float rng in
          let tok =
            let acc = ref 0.0 in
            let chosen = ref (-1) in
            Array.iteri
              (fun i p ->
                if !chosen < 0 then begin
                  acc := !acc +. p;
                  if x < !acc then chosen := i
                end)
              probs;
            if !chosen < 0 then vocab_size - 1 else !chosen
          in
          if tok = Dpoaf_lm.Vocab.eos vocab then List.rev (tok :: prefix)
          else go (tok :: prefix) (len + 1)
        end
      in
      let tokens = go [] 0 in
      if
        Dpoaf_lm.Grammar.accepts setup.Pipeline.Corpus.grammar
          ~min_clauses:setup.Pipeline.Corpus.min_clauses
          ~max_clauses:setup.Pipeline.Corpus.max_clauses tokens
      then incr unconstrained_valid
    done;
    Printf.printf
      "unconstrained decoding: %d/%d samples are well-formed step lists (%.1f%%)\n"
      !unconstrained_valid n
      (100.0 *. float_of_int !unconstrained_valid /. float_of_int n);
    print_endline "constrained decoding:   every sample is well-formed by construction";
    print_endline "\n(the paper's pipeline depends on parseable responses; constrained";
    print_endline "decoding moves that burden from rejection sampling to the grammar)"
  end

let shield_section () =
  if section "shield" "Extension: runtime safety shield in the simulator" then begin
    let rollouts = if fast then 150 else 500 in
    let model = Models.model Models.Traffic_light in
    let controller, _ =
      Driving.controller_of_steps ~name:"before" Responses.right_turn_before_ft
    in
    let shield =
      Dpoaf_sim.Shield.create ~specs:(List.map snd Specs.all) ~actions:Vocab.actions
    in
    let config noise =
      { Dpoaf_sim.Empirical.rollouts; steps = 40; noise; seed = 51 }
    in
    let mild = { Dpoaf_sim.World.miss_rate = 0.02; false_rate = 0.01 } in
    let heavy = { Dpoaf_sim.World.miss_rate = 0.15; false_rate = 0.05 } in
    let eval ?shield noise =
      Dpoaf_sim.Empirical.evaluate ?shield ~model ~controller
        ~specs:Specs.first_five (config noise)
    in
    let table =
      Table.create
        [ "spec"; "unshielded (mild)"; "shielded (mild)"; "unshielded (heavy)";
          "shielded (heavy)" ]
    in
    let u_mild = eval mild and s_mild = eval ~shield mild in
    let u_heavy = eval heavy and s_heavy = eval ~shield heavy in
    List.iteri
      (fun i (name, _) ->
        let at rates = Printf.sprintf "%.3f" (snd (List.nth rates i)) in
        Table.add_row table [ name; at u_mild; at s_mild; at u_heavy; at s_heavy ])
      u_mild;
    emit "abl-rank" table;
    print_endline "\nthe shield enforces the invariant rules at runtime even for the";
    print_endline "flawed pre-fine-tuning controller; residual violations under";
    print_endline "heavy noise come from hazards the vehicle never perceived.";
    print_endline "(training-time fine-tuning and runtime shielding compose.)"
  end

let ablation_repair () =
  if section "abl-repair"
       "Baseline: specification-guided controller repair vs fine-tuning"
  then begin
    let a = train_artifacts () in
    let feedback = Pipeline.Feedback.create () in
    let samples = if fast then 10 else 20 in
    let eval ?harden model split =
      Pipeline.Dpoaf.mean_specs_satisfied ?harden a.corpus feedback model
        (Rng.create 41) ~samples split
    in
    let final =
      (List.hd a.result.Pipeline.Dpoaf.runs).Trainer.final
    in
    let table = Table.create [ "policy"; "training /15"; "validation /15" ] in
    let row label model harden =
      Table.add_row table
        [
          label;
          Printf.sprintf "%.2f" (eval ?harden:(Some harden) model Dom.Training);
          Printf.sprintf "%.2f" (eval ?harden:(Some harden) model Dom.Validation);
        ]
    in
    row "pre-trained" a.reference false;
    row "pre-trained + repair" a.reference true;
    row "DPO fine-tuned" final false;
    row "DPO fine-tuned + repair" final true;
    emit "abl-repair" table;
    print_endline "\npost-hoc repair hardens each sampled controller's invariant";
    print_endline "(safety) rules but leaves the generator careless; fine-tuning";
    print_endline "improves the distribution itself, and the two compose."
  end

let ablation_rl () =
  if section "abl-rl" "Baseline: REINFORCE with verifier reward vs DPO" then begin
    let a = train_artifacts () in
    let feedback = Pipeline.Feedback.create () in
    let tasks = Pipeline.Dpoaf.reinforce_tasks a.corpus feedback Dom.Training in
    let epochs = if fast then 60 else 150 in
    let config =
      { Dpoaf_dpo.Reinforce.default_config with epochs; samples_per_task = 8 }
    in
    let run, elapsed =
      wallclock (fun () -> Dpoaf_dpo.Reinforce.train ~reference:a.reference ~tasks config ~seed:1)
    in
    let table = Table.create [ "epoch"; "mean verifier reward" ] in
    List.iter
      (fun s ->
        if s.Dpoaf_dpo.Reinforce.epoch mod (max 1 (epochs / 10)) = 0 then
          Table.add_row table
            [
              string_of_int s.Dpoaf_dpo.Reinforce.epoch;
              Printf.sprintf "%.3f" s.Dpoaf_dpo.Reinforce.mean_reward;
            ])
      run.Dpoaf_dpo.Reinforce.stats;
    emit "abl-rl" table;
    let samples = if fast then 10 else 16 in
    let eval model split =
      Pipeline.Dpoaf.mean_specs_satisfied a.corpus feedback model (Rng.create 43)
        ~samples split
    in
    let dpo_final = (List.hd a.result.Pipeline.Dpoaf.runs).Trainer.final in
    Printf.printf
      "\nfinal sampled scores (training / validation):\n\
      \  REINFORCE   %.2f / %.2f   (%.0fs)\n\
      \  DPO         %.2f / %.2f\n"
      (eval run.Dpoaf_dpo.Reinforce.final Dom.Training)
      (eval run.Dpoaf_dpo.Reinforce.final Dom.Validation)
      elapsed
      (eval dpo_final Dom.Training)
      (eval dpo_final Dom.Validation);
    print_endline "\nboth automated-feedback strategies lift specification";
    print_endline "satisfaction; DPO gets there offline from a fixed pair set,";
    print_endline "REINFORCE needs fresh on-policy verification every epoch."
  end

let ablation_arch () =
  if section "abl-arch" "Ablation: bag-of-words vs GRU conditioner" then begin
    let corpus = Pipeline.Corpus.build () in
    let per_task = if fast then 25 else 40 in
    let pre_epochs = if fast then 15 else 30 in
    let dpo_epochs = if fast then 30 else 60 in
    let table =
      Table.create
        [ "arch"; "pre-train s"; "pre-FT /15"; "DPO s"; "post-FT /15" ]
    in
    List.iter
      (fun (label, arch) ->
        let feedback = Pipeline.Feedback.create () in
        let rng = Rng.create 61 in
        let config_lm =
          { Dpoaf_lm.Model.default_config with Dpoaf_lm.Model.arch }
        in
        let reference, t_pre =
          wallclock (fun () ->
              Pipeline.Corpus.pretrained_model ~config:config_lm ~per_task
                ~epochs:pre_epochs rng corpus)
        in
        let pre =
          Pipeline.Dpoaf.mean_specs_satisfied corpus feedback reference
            (Rng.create 62) ~samples:10 Dom.Training
        in
        let config =
          {
            Pipeline.Dpoaf.responses_per_task = 12;
            temperature = 1.0;
            eval_samples = 10;
            trainer =
              { Trainer.default_config with epochs = dpo_epochs;
                checkpoint_every = 0; lr = 2e-3 };
          }
        in
        let result, t_dpo =
          wallclock (fun () ->
              Pipeline.Dpoaf.run ~config ~corpus ~feedback ~reference ~seeds:[ 1 ]
                (Rng.create 63))
        in
        let post =
          Pipeline.Dpoaf.mean_specs_satisfied corpus feedback
            (List.hd result.Pipeline.Dpoaf.runs).Trainer.final (Rng.create 64)
            ~samples:10 Dom.Training
        in
        Table.add_row table
          [
            label;
            Printf.sprintf "%.1f" t_pre;
            Printf.sprintf "%.2f" pre;
            Printf.sprintf "%.1f" t_dpo;
            Printf.sprintf "%.2f" post;
          ])
      [ ("bow (default)", Dpoaf_lm.Model.Bow); ("gru", Dpoaf_lm.Model.Gru) ];
    emit "abl-arch" table;
    print_endline "\nthe order-aware GRU conditioner reaches comparable specification";
    print_endline "satisfaction at roughly an order of magnitude more compute; the";
    print_endline "windowed mean-embedding default is the better trade-off at this";
    print_endline "scale, which is why it is the pipeline default."
  end

let iterative_dpo () =
  if section "iter-dpo" "Extension: iterative DPO-AF (resample each round)" then begin
    let a = train_artifacts () in
    let feedback = Pipeline.Feedback.create () in
    let config =
      {
        Pipeline.Dpoaf.responses_per_task = (if fast then 12 else 16);
        temperature = 1.0;
        eval_samples = (if fast then 8 else 12);
        trainer =
          { Trainer.default_config with epochs = (if fast then 30 else 60);
            checkpoint_every = 0; lr = 2e-3 };
      }
    in
    let rounds, _final =
      Pipeline.Dpoaf.run_iterative ~config ~rounds:3 ~corpus:a.corpus ~feedback
        ~reference:a.reference (Rng.create 44)
    in
    let table =
      Table.create [ "round"; "new pairs"; "training /15"; "validation /15" ]
    in
    List.iter
      (fun r ->
        Table.add_row table
          [
            string_of_int r.Pipeline.Dpoaf.round;
            string_of_int r.Pipeline.Dpoaf.pairs;
            Printf.sprintf "%.2f" r.Pipeline.Dpoaf.training_score;
            Printf.sprintf "%.2f" r.Pipeline.Dpoaf.validation_score;
          ])
      rounds;
    emit "iter-dpo" table;
    print_endline "\nresampling from the updated policy keeps mining informative";
    print_endline "pairs round after round — the paper's \"unlimited data points\"";
    print_endline "argument (§4.3) realized as a closed loop."
  end

(* ------------------------------------------------------------------ *)
(* Domain packs: the whole loop, once per registered pack              *)

let domains_section () =
  if
    section "domains"
      "Every registered pack through a Fig-8-style DPO loop and one serve \
       batch (writes BENCH_domains.json)"
  then begin
    let module Json = Dpoaf_util.Json in
    let module Serve = Dpoaf_serve in
    let module SP = Dpoaf_serve.Protocol in
    let table =
      Table.create
        [ "domain"; "tasks"; "specs"; "pairs"; "pre"; "post"; "margin";
          "train s"; "serve ok"; "serve s" ]
    in
    let config =
      {
        Pipeline.Dpoaf.responses_per_task = (if fast then 8 else 12);
        temperature = 1.0;
        eval_samples = (if fast then 6 else 24);
        trainer =
          (* checkpoint only at the start and the end: the curve's
             first/last entries are exactly the pre/post scores *)
          (let epochs = if fast then 10 else 60 in
           { Trainer.default_config with
             epochs; checkpoint_every = epochs; lr = 2e-3 });
      }
    in
    let seeds = [ 1 ] in
    let entries =
      List.map
        (fun domain ->
          let (module D : Dpoaf_domain.Domain.S) = domain in
          Printf.printf "[%s] pre-training + DPO...\n%!" D.name;
          let corpus = Pipeline.Corpus.build ~domain () in
          let feedback = Pipeline.Feedback.create ~domain () in
          let rng = Rng.create 71 in
          let reference =
            Pipeline.Corpus.pretrained_model
              ~config:
                { Dpoaf_lm.Model.dim = 12; context = 10; lora_rank = 2;
                  arch = Dpoaf_lm.Model.Bow }
              ~per_task:20 ~epochs:10 rng corpus
          in
          let result, t_train =
            wallclock (fun () ->
                Pipeline.Dpoaf.run ~config ~corpus ~feedback ~reference
                  ~seeds rng)
          in
          let curve = result.Pipeline.Dpoaf.curve in
          let pre, post =
            match curve with
            | [] -> (0.0, 0.0)
            | first :: _ ->
                ( first.Pipeline.Dpoaf.training_score,
                  (List.nth curve (List.length curve - 1))
                    .Pipeline.Dpoaf.training_score )
          in
          (* one serve batch: verification-only engine, every request
             tagged with the pack's wire-protocol domain field *)
          let engine = Serve.Engine.create ~corpus () in
          let server =
            Serve.Server.create ~handler:(Serve.Engine.handle engine) ()
          in
          let rng_req = Rng.create 72 in
          let requests =
            List.init (if fast then 30 else 90) (fun i ->
                let task = Rng.choice_list rng_req D.tasks in
                let steps () =
                  let pool =
                    Rng.shuffle_list rng_req
                      (Dpoaf_domain.Domain.candidate_steps domain task)
                  in
                  List.filteri (fun j _ -> j < 2 + Rng.int rng_req 3) pool
                in
                let kind =
                  if i mod 3 = 2 then
                    SP.Score_pair
                      { steps_a = steps (); steps_b = steps ();
                        scenario = None; domain = Some D.name;
                        explain = false }
                  else
                    SP.Verify
                      { steps = steps (); scenario = None;
                        domain = Some D.name; explain = false }
                in
                { SP.id = Printf.sprintf "%s-%d" D.name i;
                  kind; deadline_ms = None })
          in
          let responses, t_serve =
            wallclock (fun () ->
                let tickets =
                  List.map (Serve.Server.submit_async server) requests
                in
                List.map Serve.Server.await tickets)
          in
          Serve.Server.drain server;
          let ok =
            List.length
              (List.filter
                 (fun r -> SP.status_of_body r.SP.rbody = "ok")
                 responses)
          in
          let specs = Dpoaf_domain.Domain.spec_count domain in
          Table.add_row table
            [
              D.name;
              string_of_int (List.length D.tasks);
              string_of_int specs;
              string_of_int result.Pipeline.Dpoaf.pairs_used;
              Printf.sprintf "%.2f/%d" pre specs;
              Printf.sprintf "%.2f/%d" post specs;
              (* the paper's claim per pack is post > pre; a margin a
                 fraction of one spec wide can flip under a float-order
                 change *)
              Printf.sprintf "%+.2f" (post -. pre);
              Printf.sprintf "%.1f" t_train;
              Printf.sprintf "%d/%d" ok (List.length requests);
              Printf.sprintf "%.2f" t_serve;
            ];
          ( D.name,
            Json.obj
              [
                ("tasks", Json.num (float_of_int (List.length D.tasks)));
                ("specs", Json.num (float_of_int specs));
                ( "pairs",
                  Json.num (float_of_int result.Pipeline.Dpoaf.pairs_used) );
                ("pre_training_score", Json.num pre);
                ("post_training_score", Json.num post);
                ("train_s", Json.num t_train);
                ("serve_requests", Json.num (float_of_int (List.length requests)));
                ("serve_ok", Json.num (float_of_int ok));
                ("serve_s", Json.num t_serve);
              ] ))
        (Dpoaf_domain.all ())
    in
    emit "domains" table;
    write_artifact "BENCH_domains.json"
      ~config:
        [
          ("pretrain_epochs", Json.num 10.0);
          ( "responses_per_task",
            Json.num (float_of_int config.Pipeline.Dpoaf.responses_per_task) );
          ( "epochs",
            Json.num (float_of_int config.Pipeline.Dpoaf.trainer.Trainer.epochs) );
          ( "eval_samples",
            Json.num (float_of_int config.Pipeline.Dpoaf.eval_samples) );
          ("seeds", Json.arr (List.map (fun s -> Json.num (float_of_int s)) seeds));
        ]
      entries;
    print_endline "\nevery pack runs the same loop the paper runs for driving:";
    print_endline "pre-train, mine verification-ranked pairs, DPO, then serve a";
    print_endline "batch of domain-tagged verification requests."
  end

(* ------------------------------------------------------------------ *)
(* Static analysis: the whole-suite pass and the counterexample        *)
(* explainer per registered pack.  Both are cold paths by design (run  *)
(* at gate time, not inside the serving loop).                          *)

let analysis_section () =
  if
    section "analysis"
      "Whole-suite static analysis + counterexample explanation per pack"
  then begin
    let module Suite = Dpoaf_analysis.Suite_sanity in
    let table =
      Table.create
        [ "domain"; "specs"; "models"; "suite diags"; "suite ms";
          "explained"; "explain ms" ]
    in
    List.iter
      (fun domain ->
        let (module D : Dpoaf_domain.Domain.S) = domain in
        let specs = D.specs () in
        let models =
          ("universal", D.universal ())
          :: List.filter_map
               (fun sc -> Option.map (fun m -> (sc, m)) (D.model sc))
               D.scenarios
        in
        let pool =
          List.map
            (fun (name, steps) ->
              (name, (D.profile_of_steps steps).Dom.satisfied))
            D.demo_responses
        in
        (* --fast trims the conflict-core search to pair cores (the
           size-3 sweep over a 15-spec book is ~25x more tableaux) *)
        let max_core = if fast then 2 else 3 in
        let diags, t_suite =
          wallclock (fun () ->
              Suite.check ~suite:D.name ~max_core
                ~propositions:D.propositions ~actions:D.actions ~models ~pool
                specs)
        in
        let explanations, t_explain =
          wallclock (fun () ->
              List.concat_map
                (fun (_, steps) -> Dom.explain_steps domain steps)
                D.demo_responses)
        in
        (* every explanation is replay-validated by construction; an
           empty result on a pack whose demo pool contains violating
           responses would mean the explainer lost coverage *)
        if
          List.exists
            (fun (_, steps) ->
              List.length (D.profile_of_steps steps).Dom.satisfied
              < List.length specs)
            D.demo_responses
          && explanations = []
        then failwith (D.name ^ ": violating demos but no explanations");
        Table.add_row table
          [
            D.name;
            string_of_int (List.length specs);
            string_of_int (List.length models);
            string_of_int (List.length diags);
            Printf.sprintf "%.1f" (t_suite *. 1e3);
            string_of_int (List.length explanations);
            Printf.sprintf "%.2f" (t_explain *. 1e3);
          ])
      (Dpoaf_domain.all ());
    emit "analysis" table
  end

(* ------------------------------------------------------------------ *)
(* Counterexample-guided refinement: every pack's seeded repairable     *)
(* defect pool through the lib/refine loop under the default 3-round    *)
(* budget.                                                             *)

let refine_section () =
  if
    section "refine"
      "Counterexample-guided refinement over each pack's seeded defect pool \
       (writes BENCH_refine.json)"
  then begin
    let module Json = Dpoaf_util.Json in
    let module R = Dpoaf_refine.Refine in
    let table =
      Table.create
        [ "domain"; "defects"; "improved"; "clean"; "rounds";
          "rounds-to-clean"; "ms/round" ]
    in
    let per_task = if fast then 1 else 2 in
    let seed = 2024 in
    let entries =
      List.map
        (fun domain ->
          let (module D : Dpoaf_domain.Domain.S) = domain in
          Printf.printf "[%s] pre-training + refining the defect pool...\n%!"
            D.name;
          let corpus = Pipeline.Corpus.build ~domain () in
          let rng = Rng.create 73 in
          let model =
            Pipeline.Corpus.pretrained_model
              ~config:
                { Dpoaf_lm.Model.dim = 12; context = 10; lora_rank = 2;
                  arch = Dpoaf_lm.Model.Bow }
              ~per_task:20 ~epochs:10 rng corpus
          in
          let snapshot = Dpoaf_lm.Sampler.snapshot model in
          let vocab = corpus.Pipeline.Corpus.vocab in
          let pool = R.defect_pool domain ~seed ~per_task in
          if pool = [] then
            failwith (D.name ^ ": the seeded defect pool is empty");
          (* one rendering cache per pack, shared across the pool so
             repeated lassos hit instead of re-rendering *)
          let cache = R.explain_cache ~name:("bench.refine." ^ D.name) in
          let outcomes, t =
            wallclock (fun () ->
                List.map
                  (fun ((task : Dom.task), response) ->
                    let setup = Pipeline.Corpus.setup corpus task in
                    let sample =
                      R.conditioned_sampler ~snapshot
                        ~encode:(Dpoaf_lm.Vocab.encode vocab)
                        ~decode:(Pipeline.Corpus.steps_of_tokens corpus)
                        ~prompt:setup.Pipeline.Corpus.prompt
                        ~grammar:setup.Pipeline.Corpus.grammar
                        ~min_clauses:setup.Pipeline.Corpus.min_clauses
                        ~max_clauses:setup.Pipeline.Corpus.max_clauses
                        ~sep:(Dpoaf_lm.Vocab.sep vocab) ~seed ()
                    in
                    let refiner = R.create ~domain ~cache ~sample () in
                    R.run refiner response)
                  pool)
          in
          let count p = List.length (List.filter p outcomes) in
          let clean = count (fun o -> o.R.status = R.Clean) in
          let improved = count (fun o -> o.R.status <> R.Unchanged) in
          let rounds =
            List.fold_left
              (fun acc o -> acc + List.length o.R.rounds)
              0 outcomes
          in
          (* rounds-to-clean averages only over responses the loop fully
             repaired — the paper's headline repair-depth statistic *)
          let rounds_to_clean =
            let cleans =
              List.filter_map
                (fun o ->
                  if o.R.status = R.Clean then
                    Some (float_of_int (List.length o.R.rounds))
                  else None)
                outcomes
            in
            match cleans with
            | [] -> 0.0
            | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
          in
          let ms_per_round =
            if rounds = 0 then 0.0 else t *. 1e3 /. float_of_int rounds
          in
          Table.add_row table
            [
              D.name;
              string_of_int (List.length pool);
              Printf.sprintf "%d/%d" improved (List.length pool);
              string_of_int clean;
              string_of_int rounds;
              Printf.sprintf "%.1f" rounds_to_clean;
              Printf.sprintf "%.2f" ms_per_round;
            ];
          ( D.name,
            Json.obj
              [
                ("defects", Json.num (float_of_int (List.length pool)));
                ("improved", Json.num (float_of_int improved));
                ("clean", Json.num (float_of_int clean));
                ( "repaired_fraction",
                  Json.num
                    (float_of_int improved
                    /. float_of_int (List.length pool)) );
                ("rounds", Json.num (float_of_int rounds));
                ("rounds_to_clean", Json.num rounds_to_clean);
                ("round_ms", Json.num ms_per_round);
              ] ))
        (Dpoaf_domain.all ())
    in
    emit "refine" table;
    write_artifact "BENCH_refine.json"
      ~config:
        [
          ("pretrain_epochs", Json.num 10.0);
          ("defects_per_task", Json.num (float_of_int per_task));
          ("max_rounds", Json.num (float_of_int R.default_budget.R.max_rounds));
          ("seeds", Json.arr [ Json.num (float_of_int seed) ]);
        ]
      entries
  end

let sections =
  [
    ("fig7", fig7);
    ("fig18", fig18);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("shield", shield_section);
    ("abl-rank", ablation_rank);
    ("abl-decode", ablation_decoding);
    ("abl-repair", ablation_repair);
    ("abl-rl", ablation_rl);
    ("abl-arch", ablation_arch);
    ("iter-dpo", iterative_dpo);
    ("domains", domains_section);
    ("analysis", analysis_section);
    ("refine", refine_section);
  ]

(* strict --only: a typo'd section name is an error, not a silent no-op
   (same convention as the CLI's scenario/section arguments) *)
let () =
  match only with
  | None -> ()
  | Some names ->
      let valid = List.map fst sections in
      let unknown = List.filter (fun n -> not (List.mem n valid)) names in
      if unknown <> [] then begin
        Printf.eprintf "bench: unknown section%s %s (valid: %s)\n"
          (if List.length unknown > 1 then "s" else "")
          (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
          (String.concat ", " valid);
        exit 2
      end

(* Scope each section's metrics with delta snapshots rather than resets —
   the final summary still covers the whole process, and the trace's
   terminating metrics line stays a lifetime total. *)
let run_section (name, f) =
  if not (enabled name) then f ()
  else begin
    let before = Dpoaf_exec.Metrics.summary () in
    Dpoaf_exec.Trace.with_span ~cat:"bench" name f;
    if section_metrics then
      let d = Dpoaf_exec.Metrics.delta before (Dpoaf_exec.Metrics.summary ()) in
      Printf.printf "\n[%s] section metrics: %s\n" name
        (Dpoaf_exec.Metrics.json_of_items
           (List.filter (fun (_, v) -> v <> 0.0) d))
  end

let () =
  let (), elapsed = wallclock (fun () -> List.iter run_section sections) in
  Printf.printf "\nall requested sections completed in %.1fs (--jobs %d)\n" elapsed
    jobs;
  (match trace_file with
  | None -> ()
  | Some path ->
      Dpoaf_exec.Trace.write_jsonl path;
      Dpoaf_exec.Trace.write_chrome (path ^ ".perfetto.json");
      Printf.printf "trace written to %s (and %s.perfetto.json)\n" path path);
  (match metrics_json_file with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Dpoaf_exec.Metrics.to_json ());
      output_char oc '\n';
      close_out oc;
      Printf.printf "metrics written to %s\n" path);
  Printf.printf "\nexecution metrics: %s\n" (Dpoaf_exec.Metrics.to_json ())
