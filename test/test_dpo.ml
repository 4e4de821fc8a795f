open Dpoaf_dpo
open Dpoaf_lm
module Rng = Dpoaf_util.Rng

let clauses =
  [ "observe the light"; "if green go"; "if red stop"; "turn right"; "go now" ]

let vocab = Vocab.of_texts ("steps for the task" :: clauses)
let grammar = Grammar.of_clauses vocab clauses
let prompt = Vocab.encode vocab "steps for the task"

let make_model seed =
  Model.create (Rng.create seed) { Model.dim = 8; context = 6; lora_rank = 2; arch = Model.Bow } vocab

let tokens steps = Grammar.tokens_of_steps vocab steps

let phis n = List.init n (fun i -> Printf.sprintf "phi_%d" (i + 1))

let mk_pair ?(task_id = "t") chosen rejected =
  {
    Pref_data.task_id;
    prompt;
    chosen = tokens chosen;
    rejected = tokens rejected;
    chosen_score = 15;
    rejected_score = 9;
    chosen_satisfied = phis 15;
    rejected_satisfied = phis 9;
    chosen_vacuous = [];
    rejected_explanations = [];
    grammar;
    min_clauses = 1;
    max_clauses = 3;
  }

(* ---------------- preference data ---------------- *)

let test_pairs_of_scored () =
  let scored =
    [
      { Pref_data.tokens = tokens [ "turn right" ]; score = 10; satisfied = phis 10;
        vacuous = [] };
      { Pref_data.tokens = tokens [ "go now" ]; score = 12; satisfied = phis 12;
        vacuous = [] };
      { Pref_data.tokens = tokens [ "if red stop" ]; score = 10; satisfied = phis 10;
        vacuous = [] };
    ]
  in
  let pairs =
    Pref_data.pairs_of_scored ~task_id:"t" ~prompt ~grammar ~min_clauses:1
      ~max_clauses:3 scored
  in
  (* (turn right, go now) and (go now, if red stop) have distinct scores;
     (turn right, if red stop) ties and is dropped. *)
  Alcotest.(check int) "two pairs" 2 (List.length pairs);
  List.iter
    (fun p ->
      Alcotest.(check bool) "chosen beats rejected" true
        (p.Pref_data.chosen_score > p.Pref_data.rejected_score);
      Alcotest.(check bool) "chosen is 'go now'" true
        (p.Pref_data.chosen = tokens [ "go now" ]))
    pairs

let test_pairs_dedup () =
  let s =
    { Pref_data.tokens = tokens [ "turn right" ]; score = 10; satisfied = phis 10;
      vacuous = [] }
  in
  let s' =
    { Pref_data.tokens = tokens [ "go now" ]; score = 5; satisfied = phis 5;
      vacuous = [] }
  in
  let pairs =
    Pref_data.pairs_of_scored ~task_id:"t" ~prompt ~grammar ~min_clauses:1
      ~max_clauses:3 [ s; s; s; s' ]
  in
  Alcotest.(check int) "duplicates collapse" 1 (List.length pairs)

let test_count_possible () =
  Alcotest.(check int) "C2(8)" 28 (Pref_data.count_possible 8);
  Alcotest.(check int) "C2(1)" 0 (Pref_data.count_possible 1)

let test_pair_provenance () =
  (* pairs carry each side's satisfied-spec names; margin_specs is their
     set difference *)
  let a =
    { Pref_data.tokens = tokens [ "turn right" ]; score = 3;
      satisfied = [ "phi_1"; "phi_4"; "phi_7" ]; vacuous = [ "phi_7" ] }
  in
  let b =
    { Pref_data.tokens = tokens [ "go now" ]; score = 1; satisfied = [ "phi_4" ];
      vacuous = [] }
  in
  match
    Pref_data.pairs_of_scored ~task_id:"t" ~prompt ~grammar ~min_clauses:1
      ~max_clauses:3 [ a; b ]
  with
  | [ p ] ->
      Alcotest.(check (list string)) "chosen satisfied"
        [ "phi_1"; "phi_4"; "phi_7" ] p.Pref_data.chosen_satisfied;
      Alcotest.(check (list string)) "rejected satisfied" [ "phi_4" ]
        p.Pref_data.rejected_satisfied;
      Alcotest.(check (list string)) "margin specs" [ "phi_1"; "phi_7" ]
        (Pref_data.margin_specs p);
      Alcotest.(check (list string)) "chosen vacuous" [ "phi_7" ]
        p.Pref_data.chosen_vacuous;
      (* phi_1 in the margin is genuinely satisfied, so the margin stands *)
      Alcotest.(check bool) "margin not fully vacuous" false
        (Pref_data.vacuous_margin p);
      let json = Dpoaf_util.Json.to_string (Pref_data.json_of_pair p) in
      let parsed = Dpoaf_util.Json.parse_exn json in
      Alcotest.(check (option string)) "task round-trips" (Some "t")
        Dpoaf_util.Json.(Option.bind (member "task" parsed) to_str);
      Alcotest.(check (option bool)) "vacuous_margin round-trips" (Some false)
        Dpoaf_util.Json.(
          Option.bind (member "vacuous_margin" parsed) (function
            | Bool b -> Some b
            | _ -> None))
  | pairs -> Alcotest.failf "expected one pair, got %d" (List.length pairs)

let test_vacuous_margin () =
  (* every spec separating chosen from rejected holds only vacuously: the
     pair's formal justification is hollow *)
  let a =
    { Pref_data.tokens = tokens [ "turn right" ]; score = 2;
      satisfied = [ "phi_1"; "phi_7" ]; vacuous = [ "phi_7" ] }
  in
  let b =
    { Pref_data.tokens = tokens [ "go now" ]; score = 1; satisfied = [ "phi_1" ];
      vacuous = [] }
  in
  match
    Pref_data.pairs_of_scored ~task_id:"t" ~prompt ~grammar ~min_clauses:1
      ~max_clauses:3 [ a; b ]
  with
  | [ p ] ->
      Alcotest.(check (list string)) "margin is phi_7" [ "phi_7" ]
        (Pref_data.margin_specs p);
      Alcotest.(check bool) "flagged" true (Pref_data.vacuous_margin p)
  | pairs -> Alcotest.failf "expected one pair, got %d" (List.length pairs)

(* ---------------- the tape oracles ---------------- *)

(* The tape DPO and REINFORCE steps, the tape scoring path and DPO
   evaluation live in test/oracle. *)
module Tape_model = Dpoaf_oracle.Tape_model
module Tape_dpo = Dpoaf_oracle.Tape_dpo
module Tape_reinforce = Dpoaf_oracle.Tape_reinforce

(* Everything a run computes, as bits: per-epoch stats, step records
   without their wall time, and each checkpoint's and the final adapter. *)
let run_bits ?(records = []) (run : Trainer.run) =
  let b = Int64.bits_of_float in
  let adapter m =
    Array.map b
      (Array.append m.Model.out.Dpoaf_tensor.Lora.a.Dpoaf_tensor.Tensor.data
         m.Model.out.Dpoaf_tensor.Lora.b.Dpoaf_tensor.Tensor.data)
  in
  ( List.map
      (fun (s : Trainer.epoch_stats) ->
        (s.Trainer.epoch, b s.Trainer.loss, b s.Trainer.accuracy, b s.Trainer.margin))
      run.Trainer.stats,
    List.map
      (fun (r : Trainer.step_record) ->
        ( (r.Trainer.epoch, r.Trainer.step),
          List.map b
            [ r.Trainer.loss; r.Trainer.accuracy; r.Trainer.margin; r.Trainer.logp_gap;
              r.Trainer.grad_norm; r.Trainer.update_norm ] ))
      records,
    List.map (fun (e, m) -> (e, adapter m)) run.Trainer.checkpoints,
    adapter run.Trainer.final )

(* Trains with [train], recording every step, and returns {!run_bits}. *)
let recorded_bits train =
  let records = ref [] in
  let run = train (fun r -> records := r :: !records) in
  run_bits ~records:(List.rev !records) run

let production ~reference ~pairs config ~seed =
  recorded_bits (fun sink -> Trainer.train ~sink ~reference ~pairs config ~seed)

let oracle ~reference ~pairs config ~seed =
  recorded_bits (fun sink -> Tape_dpo.train ~sink ~reference ~pairs config ~seed)

(* ---------------- loss and metrics ---------------- *)

let test_initial_margin_zero () =
  (* Policy = reference at initialization: margin 0, loss = log 2. *)
  let reference = make_model 5 in
  let policy = Model.clone reference in
  let pair = mk_pair [ "if green go" ] [ "turn right" ] in
  let stats = Tape_dpo.evaluate ~policy ~reference ~beta:0.5 [ pair ] in
  Alcotest.(check (float 1e-9)) "margin 0" 0.0 stats.Tape_dpo.margin;
  Alcotest.(check (float 1e-9)) "loss log 2" (log 2.0) stats.Tape_dpo.loss

let test_loss_node_matches_evaluate () =
  let reference = make_model 6 in
  let policy = make_model 7 in
  let pair = mk_pair [ "if green go" ] [ "turn right" ] in
  let refs = Tape_dpo.reference_logprobs reference pair in
  let tape = Dpoaf_oracle.Autodiff.Tape.create () in
  let bound = Tape_model.bind policy tape in
  let loss_node, _, _ = Tape_dpo.pair_loss_node ~policy ~bound ~beta:0.5 refs pair in
  let stats = Tape_dpo.evaluate ~policy ~reference ~beta:0.5 [ pair ] in
  Alcotest.(check (float 1e-9)) "node = eval"
    stats.Tape_dpo.loss
    (Dpoaf_tensor.Tensor.get (Dpoaf_oracle.Autodiff.value loss_node) 0)

let test_evaluate_empty () =
  let m = make_model 1 in
  let stats = Tape_dpo.evaluate ~policy:m ~reference:m ~beta:0.5 [] in
  Alcotest.(check (float 0.0)) "zero" 0.0 stats.Tape_dpo.loss

(* ---------------- training ---------------- *)

let quick_config epochs =
  {
    Trainer.beta = 0.5;
    lr = 0.05;
    epochs;
    batch = 8;
    checkpoint_every = 5;
    shuffle_each_epoch = true;
  }

let training_pairs () =
  [
    mk_pair [ "observe the light"; "if green go" ] [ "observe the light"; "go now" ];
    mk_pair [ "if red stop"; "if green go" ] [ "go now" ];
    mk_pair [ "observe the light"; "if red stop" ] [ "turn right" ];
  ]

let test_training_improves_metrics () =
  let reference = make_model 11 in
  let pairs = training_pairs () in
  let run = Trainer.train ~reference ~pairs (quick_config 40) ~seed:1 in
  let first = List.hd run.Trainer.stats in
  let last = List.nth run.Trainer.stats (List.length run.Trainer.stats - 1) in
  Alcotest.(check bool)
    (Printf.sprintf "loss decreased %.3f -> %.3f" first.Trainer.loss last.Trainer.loss)
    true
    (last.Trainer.loss < first.Trainer.loss);
  Alcotest.(check bool) "accuracy reaches 1" true (last.Trainer.accuracy >= 0.99);
  Alcotest.(check bool) "margin positive" true (last.Trainer.margin > 0.0);
  (* fine-tuned policy prefers all chosen responses *)
  let stats =
    Tape_dpo.evaluate ~policy:run.Trainer.final ~reference ~beta:0.5 pairs
  in
  Alcotest.(check bool) "final accuracy 1" true (stats.Tape_dpo.accuracy >= 0.99)

let test_training_only_updates_lora () =
  let reference = make_model 13 in
  let run = Trainer.train ~reference ~pairs:(training_pairs ()) (quick_config 5) ~seed:2 in
  let policy = run.Trainer.final in
  Alcotest.(check bool) "embedding frozen" true
    (Dpoaf_tensor.Tensor.approx_equal policy.Model.embedding reference.Model.embedding);
  Alcotest.(check bool) "base frozen" true
    (Dpoaf_tensor.Tensor.approx_equal policy.Model.out.Dpoaf_tensor.Lora.base
       reference.Model.out.Dpoaf_tensor.Lora.base);
  Alcotest.(check bool) "adapter moved" true
    (not
       (Dpoaf_tensor.Tensor.approx_equal policy.Model.out.Dpoaf_tensor.Lora.a
          reference.Model.out.Dpoaf_tensor.Lora.a))

let test_checkpoints_present () =
  let reference = make_model 17 in
  let run = Trainer.train ~reference ~pairs:(training_pairs ()) (quick_config 10) ~seed:3 in
  let epochs = List.map fst run.Trainer.checkpoints in
  Alcotest.(check (list int)) "epochs" [ 0; 5; 10 ] epochs

let test_seeds_same_start_different_order () =
  let reference = make_model 19 in
  let runs =
    Trainer.train_seeds ~reference ~pairs:(training_pairs ()) (quick_config 40)
      ~seeds:[ 1; 2; 3 ]
  in
  Alcotest.(check int) "three runs" 3 (List.length runs);
  (* all runs end with high accuracy; exact trajectories may differ *)
  List.iter
    (fun run ->
      let last = List.nth run.Trainer.stats (List.length run.Trainer.stats - 1) in
      Alcotest.(check bool) "accuracy high" true (last.Trainer.accuracy >= 0.9))
    runs

(* stats, step records, checkpoints and final adapter *)
let trainer_equals_tape ~model_seed ~seed () =
  let pairs = training_pairs () in
  let reference = make_model model_seed in
  let run f = f ~reference ~pairs (quick_config 8) ~seed in
  Alcotest.(check bool) "trainer = oracle on fresh tapes" true (run production = run oracle)

(* Random pairs on Bow and GRU models, batch sizes that do not divide the
   pair count, shuffling on and off: the trainer and the tape oracle
   agree bit for bit. *)
let prop_trainer_matches_oracle =
  QCheck.Test.make ~count:100 ~name:"trainer = tape oracle bit for bit" QCheck.small_nat
    (fun seed ->
      let rng = Rng.create (seed + 1) in
      let arch = if Rng.int rng 2 = 0 then Model.Bow else Model.Gru in
      let reference =
        Model.create (Rng.create (Rng.int rng 1000))
          { Model.dim = 6; context = 1 + Rng.int rng 6; lora_rank = 1 + Rng.int rng 3; arch }
          vocab
      in
      let batch = 2 + Rng.int rng 4 in
      let n = batch + 1 + Rng.int rng (2 * batch) in
      let n = if n mod batch = 0 then n + 1 else n in
      let response () =
        List.init (1 + Rng.int rng 3) (fun _ -> List.nth clauses (Rng.int rng (List.length clauses)))
      in
      let pairs = List.init n (fun _ -> mk_pair (response ()) (response ())) in
      let config =
        { Trainer.beta = 0.5; lr = 0.05; epochs = 1 + Rng.int rng 3; batch;
          checkpoint_every = 1 + Rng.int rng 2; shuffle_each_epoch = Rng.int rng 2 = 0 }
      in
      let seed = Rng.int rng 1000 in
      production ~reference ~pairs config ~seed
      = oracle ~reference ~pairs config ~seed)

let test_reference_safety () =
  (* a GRU reference, so every kind of frozen tensor is covered *)
  let reference =
    Model.create (Rng.create 41) { Model.dim = 8; context = 6; lora_rank = 2; arch = Model.Gru }
      vocab
  in
  let module T = Dpoaf_tensor.Tensor in
  let module L = Dpoaf_tensor.Lora in
  let frozen m =
    [ m.Model.embedding; m.Model.out.L.base; m.Model.bias ]
    @
    match m.Model.gru with
    | None -> []
    | Some g -> Model.[ g.wz; g.uz; g.bz; g.wr; g.ur; g.br; g.wh; g.uh; g.bh ]
  in
  let adapter m = [ m.Model.out.L.a; m.Model.out.L.b ] in
  let all m = frozen m @ adapter m in
  let bits t = Array.map Int64.bits_of_float t.T.data in
  let snapshot = List.map (fun t -> bits (T.copy t)) (all reference) in
  let unchanged what =
    Alcotest.(check bool) (what ^ ": reference bitwise unchanged") true
      (List.map bits (all reference) = snapshot)
  in
  let owns_adapter what m =
    Alcotest.(check bool) (what ^ " shares the frozen tensors") true
      (List.for_all2 ( == ) (frozen m) (frozen reference));
    Alcotest.(check bool) (what ^ " owns its adapter") true
      (List.for_all2 ( != ) (adapter m) (adapter reference))
  in
  let check_run what (run : Trainer.run) =
    owns_adapter (what ^ " policy") run.Trainer.final;
    List.iter
      (fun (epoch, m) ->
        if epoch = 0 then
          Alcotest.(check bool) (what ^ " epoch 0 is the reference") true (m == reference)
        else owns_adapter (Printf.sprintf "%s checkpoint %d" what epoch) m)
      run.Trainer.checkpoints
  in
  let pairs = training_pairs () in
  check_run "train" (Trainer.train ~reference ~pairs (quick_config 5) ~seed:1);
  unchanged "train";
  List.iter (check_run "train_seeds")
    (Trainer.train_seeds ~jobs:2 ~reference ~pairs (quick_config 5) ~seeds:[ 1; 2 ]);
  unchanged "train_seeds";
  let task =
    { Reinforce.prompt; grammar; min_clauses = 1; max_clauses = 2;
      reward = (fun tokens -> float_of_int (List.length tokens)) }
  in
  let config = { Reinforce.lr = 0.05; epochs = 5; samples_per_task = 4; temperature = 1.0 } in
  owns_adapter "reinforce policy"
    (Reinforce.train ~reference ~tasks:[ task ] config ~seed:3).Reinforce.final;
  unchanged "reinforce"

let test_epoch0_checkpoint_is_reference () =
  let reference = make_model 23 in
  let run = Trainer.train ~reference ~pairs:(training_pairs ()) (quick_config 5) ~seed:4 in
  match run.Trainer.checkpoints with
  | (0, m0) :: _ ->
      let pair = mk_pair [ "if green go" ] [ "turn right" ] in
      let stats = Tape_dpo.evaluate ~policy:m0 ~reference ~beta:0.5 [ pair ] in
      Alcotest.(check (float 1e-9)) "identical to reference" 0.0 stats.Tape_dpo.margin
  | _ -> Alcotest.fail "missing epoch-0 checkpoint"

let test_step_records_stream () =
  let reference = make_model 37 in
  let records = ref [] in
  let sink r = records := r :: !records in
  let run =
    Trainer.train ~sink ~reference ~pairs:(training_pairs ()) (quick_config 4)
      ~seed:9
  in
  ignore run;
  let rs = List.rev !records in
  Alcotest.(check bool) "records emitted" true (List.length rs > 0);
  List.iteri
    (fun i (r : Trainer.step_record) ->
      Alcotest.(check int) "steps numbered consecutively" (i + 1) r.Trainer.step;
      Alcotest.(check bool) "positive step time" true (r.Trainer.seconds >= 0.0);
      Alcotest.(check bool) "norms populated when sink attached" true
        (r.Trainer.grad_norm > 0.0 && r.Trainer.update_norm > 0.0))
    rs;
  (* csv/jsonl renderings agree with the record *)
  let r = List.hd rs in
  let csv = Trainer.csv_line r in
  Alcotest.(check int) "csv arity"
    (List.length (String.split_on_char ',' Trainer.csv_header))
    (List.length (String.split_on_char ',' csv));
  let json = Dpoaf_util.Json.parse_exn (Trainer.jsonl_line r) in
  Alcotest.(check (option (float 0.0))) "jsonl step"
    (Some (float_of_int r.Trainer.step))
    Dpoaf_util.Json.(Option.bind (member "step" json) to_float)

(* ---------------- REINFORCE baseline ---------------- *)

let test_reinforce_improves_reward () =
  let reference = make_model 29 in
  (* reward 1 for responses containing the "if green go" clause, 0 otherwise *)
  let target = Vocab.encode vocab "if green go" in
  let contains_target tokens =
    let rec sub l =
      match l with
      | [] -> false
      | _ :: rest ->
          (List.filteri (fun i _ -> i < List.length target) l = target) || sub rest
    in
    sub tokens
  in
  let task =
    {
      Reinforce.prompt;
      grammar;
      min_clauses = 1;
      max_clauses = 2;
      reward = (fun tokens -> if contains_target tokens then 1.0 else 0.0);
    }
  in
  let config =
    { Reinforce.lr = 0.05; epochs = 60; samples_per_task = 8; temperature = 1.0 }
  in
  let run = Reinforce.train ~reference ~tasks:[ task ] config ~seed:1 in
  let first =
    Dpoaf_util.Stats.mean
      (List.filteri (fun i _ -> i < 5) run.Reinforce.stats
      |> List.map (fun s -> s.Reinforce.mean_reward))
  in
  let last =
    Dpoaf_util.Stats.mean
      (List.filteri
         (fun i _ -> i >= List.length run.Reinforce.stats - 5)
         run.Reinforce.stats
      |> List.map (fun s -> s.Reinforce.mean_reward))
  in
  Alcotest.(check bool)
    (Printf.sprintf "reward improved %.2f -> %.2f" first last)
    true (last > first +. 0.2);
  (* only the adapter moved *)
  Alcotest.(check bool) "base frozen" true
    (Dpoaf_tensor.Tensor.approx_equal run.Reinforce.final.Model.out.Dpoaf_tensor.Lora.base
       reference.Model.out.Dpoaf_tensor.Lora.base)

let test_reinforce_reference_untouched () =
  let reference = make_model 30 in
  let module T = Dpoaf_tensor.Tensor in
  let tensors (m : Model.t) =
    Dpoaf_tensor.Lora.[ m.Model.out.a; m.Model.out.b; m.Model.out.base ]
    @ [ m.Model.embedding; m.Model.bias ]
  in
  (* copies, not a clone: a clone shares the frozen tensors *)
  let before = List.map T.copy (tensors reference) in
  let task =
    { Reinforce.prompt; grammar; min_clauses = 1; max_clauses = 2;
      reward = (fun _ -> 1.0) }
  in
  let config =
    { Reinforce.lr = 0.05; epochs = 5; samples_per_task = 4; temperature = 1.0 }
  in
  let _ = Reinforce.train ~reference ~tasks:[ task ] config ~seed:2 in
  Alcotest.(check bool) "reference tensors unchanged" true
    (List.for_all2 (fun a b -> a.T.data = b.T.data) (tensors reference) before)

(* Random tasks on Bow and GRU models, rewards of which some give a task
   all-zero advantages, and temperatures other than 1:
   the frozen-feature REINFORCE step equals the tape oracle bit for bit,
   in every epoch's mean reward and in the final adapter. *)
let prop_reinforce_matches_oracle =
  QCheck.Test.make ~count:100 ~name:"reinforce = tape oracle bit for bit" QCheck.small_nat
    (fun seed ->
      let rng = Rng.create (seed + 1) in
      let arch = if Rng.int rng 2 = 0 then Model.Bow else Model.Gru in
      let reference =
        Model.create (Rng.create (Rng.int rng 1000))
          { Model.dim = 6; context = 1 + Rng.int rng 6; lora_rank = 1 + Rng.int rng 3; arch }
          vocab
      in
      let rewards =
        [|
          (fun _ -> 0.5);
          (fun tokens -> float_of_int (List.length tokens mod 3) /. 2.0);
          (fun tokens -> if List.mem (Vocab.id vocab "red") tokens then 1.0 else 0.0);
          (fun tokens -> float_of_int (List.fold_left ( + ) 0 tokens mod 7) /. 6.0);
        |]
      in
      let prompts = [| prompt; Vocab.encode vocab "observe the light" |] in
      let tasks =
        List.init (1 + Rng.int rng 3) (fun _ ->
            { Reinforce.prompt = prompts.(Rng.int rng 2); grammar; min_clauses = 1;
              max_clauses = 1 + Rng.int rng 3; reward = rewards.(Rng.int rng 4) })
      in
      let config =
        { Reinforce.lr = 0.05; epochs = 1 + Rng.int rng 4;
          samples_per_task = 2 + Rng.int rng 4;
          temperature = [| 0.5; 0.8; 1.0; 1.5 |].(Rng.int rng 4) }
      in
      let seed = Rng.int rng 1000 in
      let bits (run : Reinforce.run) =
        let out = run.Reinforce.final.Model.out in
        ( List.map
            (fun (s : Reinforce.epoch_stats) ->
              (s.Reinforce.epoch, Int64.bits_of_float s.Reinforce.mean_reward))
            run.Reinforce.stats,
          Array.map Int64.bits_of_float
            (Array.append out.Dpoaf_tensor.Lora.a.Dpoaf_tensor.Tensor.data
               out.Dpoaf_tensor.Lora.b.Dpoaf_tensor.Tensor.data) )
      in
      bits (Reinforce.train ~reference ~tasks config ~seed)
      = bits (Tape_reinforce.train ~reference ~tasks config ~seed))

let () =
  Alcotest.run "dpo"
    [
      ( "pref-data",
        [
          Alcotest.test_case "pairs of scored" `Quick test_pairs_of_scored;
          Alcotest.test_case "dedup" `Quick test_pairs_dedup;
          Alcotest.test_case "count possible" `Quick test_count_possible;
          Alcotest.test_case "provenance" `Quick test_pair_provenance;
          Alcotest.test_case "vacuous margin" `Quick test_vacuous_margin;
        ] );
      ( "loss",
        [
          Alcotest.test_case "initial margin zero" `Quick test_initial_margin_zero;
          Alcotest.test_case "node matches evaluate" `Quick test_loss_node_matches_evaluate;
          Alcotest.test_case "empty" `Quick test_evaluate_empty;
        ] );
      ( "trainer",
        [
          Alcotest.test_case "improves metrics" `Slow test_training_improves_metrics;
          Alcotest.test_case "lora only" `Quick test_training_only_updates_lora;
          Alcotest.test_case "checkpoints" `Quick test_checkpoints_present;
          Alcotest.test_case "seeds" `Slow test_seeds_same_start_different_order;
          Alcotest.test_case "epoch0 = reference" `Quick test_epoch0_checkpoint_is_reference;
          Alcotest.test_case "trainer = fresh tape" `Quick
            (trainer_equals_tape ~model_seed:29 ~seed:5);
          Alcotest.test_case "trainer = unfused tape" `Quick
            (trainer_equals_tape ~model_seed:31 ~seed:7);
          QCheck_alcotest.to_alcotest prop_trainer_matches_oracle;
          Alcotest.test_case "reference safety" `Quick test_reference_safety;
          Alcotest.test_case "step records" `Quick test_step_records_stream;
        ] );
      ( "reinforce",
        [
          Alcotest.test_case "improves reward" `Slow test_reinforce_improves_reward;
          Alcotest.test_case "reference untouched" `Quick test_reinforce_reference_untouched;
          QCheck_alcotest.to_alcotest prop_reinforce_matches_oracle;
        ] );
    ]
