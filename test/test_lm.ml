open Dpoaf_lm
module Rng = Dpoaf_util.Rng
module Tape_model = Dpoaf_oracle.Tape_model
module Autodiff = Dpoaf_oracle.Autodiff

(* Negative log-likelihood of a pre-training example, on the tape. *)
let nll model (ex : Pretrain.example) =
  -.Tape_model.response_logprob model ~prompt:ex.Pretrain.prompt
      ~grammar:ex.Pretrain.grammar ~min_clauses:ex.Pretrain.min_clauses
      ~max_clauses:ex.Pretrain.max_clauses ~tokens:ex.Pretrain.tokens

let clauses = [ "observe the light"; "if green go"; "if red stop"; "turn right" ]

let make_vocab () = Vocab.of_texts ("steps for the task" :: clauses)

let make_grammar vocab = Grammar.of_clauses vocab clauses

let make_model ?(dim = 8) ?(context = 6) ?(rank = 2) seed vocab =
  Model.create (Rng.create seed)
    { Model.dim; context; lora_rank = rank; arch = Model.Bow }
    vocab

(* ---------------- vocab ---------------- *)

let test_vocab_specials () =
  let v = make_vocab () in
  Alcotest.(check string) "bos" "<bos>" (Vocab.word v (Vocab.bos v));
  Alcotest.(check string) "sep" "<sep>" (Vocab.word v (Vocab.sep v));
  Alcotest.(check string) "eos" "<eos>" (Vocab.word v (Vocab.eos v));
  Alcotest.(check string) "unk" "<unk>" (Vocab.word v (Vocab.unk v))

let test_vocab_roundtrip () =
  let v = make_vocab () in
  let ids = Vocab.encode v "observe the light" in
  Alcotest.(check string) "decode" "observe the light" (Vocab.decode v ids)

let test_vocab_unk () =
  let v = make_vocab () in
  Alcotest.(check int) "unknown maps to unk" (Vocab.unk v) (Vocab.id v "zebra")

let test_vocab_dedup () =
  let v = Vocab.of_texts [ "go go go" ] in
  Alcotest.(check int) "4 specials + 1 word" 5 (Vocab.size v)

let test_vocab_import_export () =
  let v = make_vocab () in
  let v' = Vocab.import (Vocab.export v) in
  Alcotest.(check int) "same size" (Vocab.size v) (Vocab.size v');
  Alcotest.(check int) "same ids" (Vocab.id v "light") (Vocab.id v' "light");
  Alcotest.(check bool) "malformed rejected" true
    (try ignore (Vocab.import [ "a"; "b" ]); false with Invalid_argument _ -> true)

(* ---------------- grammar ---------------- *)

let test_grammar_accepts_clauses () =
  let v = make_vocab () in
  let g = make_grammar v in
  let tokens = Grammar.tokens_of_steps v [ "observe the light"; "if green go" ] in
  Alcotest.(check bool) "accepted" true
    (Grammar.accepts g ~min_clauses:1 ~max_clauses:4 tokens)

let test_grammar_rejects_garbage () =
  let v = make_vocab () in
  let g = make_grammar v in
  let tokens = Grammar.tokens_of_steps v [ "go green if" ] in
  Alcotest.(check bool) "rejected" false
    (Grammar.accepts g ~min_clauses:1 ~max_clauses:4 tokens)

let test_grammar_min_clauses () =
  let v = make_vocab () in
  let g = make_grammar v in
  let tokens = Grammar.tokens_of_steps v [ "observe the light" ] in
  Alcotest.(check bool) "too few" false
    (Grammar.accepts g ~min_clauses:2 ~max_clauses:4 tokens);
  Alcotest.(check bool) "enough" true
    (Grammar.accepts g ~min_clauses:1 ~max_clauses:4 tokens)

let test_grammar_max_clauses () =
  let v = make_vocab () in
  let g = make_grammar v in
  let three = [ "turn right"; "turn right"; "turn right" ] in
  Alcotest.(check bool) "too many" false
    (Grammar.accepts g ~min_clauses:1 ~max_clauses:2 (Grammar.tokens_of_steps v three));
  Alcotest.(check bool) "within bound" true
    (Grammar.accepts g ~min_clauses:1 ~max_clauses:3 (Grammar.tokens_of_steps v three))

let test_grammar_steps_roundtrip () =
  let v = make_vocab () in
  let steps = [ "observe the light"; "turn right" ] in
  Alcotest.(check (list string)) "roundtrip" steps
    (Grammar.steps_of_tokens v (Grammar.tokens_of_steps v steps))

let test_grammar_allowed_nonempty_walk () =
  let v = make_vocab () in
  let g = make_grammar v in
  (* Along any reachable non-final state the allowed set is non-empty. *)
  let rec walk state depth =
    if depth > 20 || Grammar.is_final g state then ()
    else begin
      let allowed = Grammar.allowed g ~min_clauses:1 ~max_clauses:3 state in
      Alcotest.(check bool) "allowed non-empty" true (allowed <> []);
      List.iter
        (fun tok ->
          match Grammar.advance g state tok with
          | Some s' -> walk s' (depth + 1)
          | None -> Alcotest.fail "allowed token rejected by advance")
        allowed
    end
  in
  walk (Grammar.start g) 0

let test_grammar_empty_rejected () =
  let v = make_vocab () in
  Alcotest.(check bool) "empty clause list" true
    (try ignore (Grammar.of_clauses v []); false with Invalid_argument _ -> true)

(* ---------------- model scoring and sampling ---------------- *)

(* All complete responses of the grammar up to the clause bound. *)
let enumerate_responses g ~min_clauses ~max_clauses =
  let out = ref [] in
  let rec go state acc =
    if Grammar.is_final g state then out := List.rev acc :: !out
    else
      List.iter
        (fun tok ->
          match Grammar.advance g state tok with
          | Some s' -> go s' (tok :: acc)
          | None -> ())
        (Grammar.allowed g ~min_clauses ~max_clauses state)
  in
  go (Grammar.start g) [];
  !out

let test_model_distribution_normalizes () =
  let v = make_vocab () in
  let g = make_grammar v in
  let model = make_model 42 v in
  let prompt = Vocab.encode v "steps for the task" in
  let responses = enumerate_responses g ~min_clauses:1 ~max_clauses:2 in
  Alcotest.(check bool) "many responses" true (List.length responses > 4);
  let total =
    List.fold_left
      (fun acc tokens ->
        acc
        +. exp
             (Tape_model.response_logprob model ~prompt ~grammar:g ~min_clauses:1
                ~max_clauses:2 ~tokens))
      0.0 responses
  in
  Alcotest.(check bool)
    (Printf.sprintf "probabilities sum to 1 (got %f)" total)
    true
    (abs_float (total -. 1.0) < 1e-6)

let test_sampler_agrees_with_logprob () =
  (* Empirical sampling frequency tracks exp(logprob). *)
  let v = make_vocab () in
  let g = make_grammar v in
  let model = make_model 7 v in
  let prompt = Vocab.encode v "steps for the task" in
  let snap = Sampler.snapshot model in
  let rng = Rng.create 11 in
  let n = 4000 in
  let counts = Hashtbl.create 32 in
  for _ = 1 to n do
    let tokens = Sampler.sample snap rng ~prompt ~grammar:g ~min_clauses:1 ~max_clauses:2 () in
    Hashtbl.replace counts tokens (1 + Option.value ~default:0 (Hashtbl.find_opt counts tokens))
  done;
  (* check the most frequent response *)
  let best, freq =
    Hashtbl.fold (fun k c (bk, bc) -> if c > bc then (k, c) else (bk, bc)) counts ([], 0)
  in
  let p_model =
    exp (Tape_model.response_logprob model ~prompt ~grammar:g ~min_clauses:1 ~max_clauses:2 ~tokens:best)
  in
  let p_emp = float_of_int freq /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "empirical %.3f vs model %.3f" p_emp p_model)
    true
    (abs_float (p_emp -. p_model) < 0.05)

let test_sampler_all_samples_accepted () =
  let v = make_vocab () in
  let g = make_grammar v in
  let model = make_model 3 v in
  let snap = Sampler.snapshot model in
  let rng = Rng.create 5 in
  let prompt = Vocab.encode v "steps for the task" in
  for _ = 1 to 100 do
    let tokens = Sampler.sample snap rng ~prompt ~grammar:g ~min_clauses:2 ~max_clauses:4 () in
    Alcotest.(check bool) "accepted" true
      (Grammar.accepts g ~min_clauses:2 ~max_clauses:4 tokens);
    let steps = Grammar.steps_of_tokens v tokens in
    Alcotest.(check bool) "clause count" true
      (List.length steps >= 2 && List.length steps <= 4)
  done

let test_greedy_deterministic () =
  let v = make_vocab () in
  let g = make_grammar v in
  let model = make_model 9 v in
  let snap = Sampler.snapshot model in
  let prompt = Vocab.encode v "steps for the task" in
  let a = Sampler.greedy snap ~prompt ~grammar:g ~min_clauses:1 ~max_clauses:3 in
  let b = Sampler.greedy snap ~prompt ~grammar:g ~min_clauses:1 ~max_clauses:3 in
  Alcotest.(check bool) "same output" true (a = b)

let test_clone_independent () =
  (* a clone owns its adapter and shares the frozen tensors *)
  let v = make_vocab () in
  let model = make_model 1 v in
  let copy = Model.clone model in
  let module T = Dpoaf_tensor.Tensor in
  let module L = Dpoaf_tensor.Lora in
  Alcotest.(check bool) "frozen tensors shared" true
    (copy.Model.embedding == model.Model.embedding
    && copy.Model.out.L.base == model.Model.out.L.base
    && copy.Model.bias == model.Model.bias);
  Alcotest.(check bool) "adapter copied" true
    (copy.Model.out.L.a.T.data = model.Model.out.L.a.T.data
    && copy.Model.out.L.b.T.data = model.Model.out.L.b.T.data);
  T.set copy.Model.out.L.a 0 99.0;
  T.set copy.Model.out.L.b 0 99.0;
  Alcotest.(check bool) "original adapter unaffected" true
    (T.get model.Model.out.L.a 0 <> 99.0 && T.get model.Model.out.L.b 0 <> 99.0)

(* ---------------- pretraining ---------------- *)

let test_pretrain_reduces_nll_and_shifts_sampling () =
  let v = make_vocab () in
  let g = make_grammar v in
  let model = make_model 21 v in
  let prompt = Vocab.encode v "steps for the task" in
  let target_steps = [ "observe the light"; "if green go" ] in
  let ex =
    {
      Pretrain.prompt;
      tokens = Grammar.tokens_of_steps v target_steps;
      grammar = g;
      min_clauses = 1;
      max_clauses = 3;
    }
  in
  let before = nll model ex in
  let losses = Pretrain.train model [ ex ] ~epochs:60 ~batch:4 ~lr:0.05 (Rng.create 2) in
  let after = nll model ex in
  Alcotest.(check bool)
    (Printf.sprintf "nll decreased (%.3f -> %.3f)" before after)
    true (after < before *. 0.5);
  Alcotest.(check bool) "loss curve decreases" true
    (List.nth losses (List.length losses - 1) < List.hd losses);
  (* the trained model now greedily emits the corpus response *)
  let snap = Sampler.snapshot model in
  let greedy = Sampler.greedy snap ~prompt ~grammar:g ~min_clauses:1 ~max_clauses:3 in
  Alcotest.(check (list string)) "greedy = corpus" target_steps
    (Grammar.steps_of_tokens v greedy)

(* Random Bow and GRU models with a non-zero adapter [A], random
   examples in batches that do not divide their number, random seeds:
   the hand-written gradient trains exactly like the tape oracle, in
   every epoch's loss and every bit of every trained tensor. *)
let prop_pretrain_matches_oracle =
  QCheck.Test.make ~count:60 ~name:"closed-form pretrain = tape oracle bit for bit"
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 1) in
      let v = make_vocab () in
      let g = make_grammar v in
      let config =
        { Model.dim = 2 + Rng.int rng 7; context = 1 + Rng.int rng 6;
          lora_rank = 1 + Rng.int rng 3;
          arch = (if Rng.int rng 2 = 0 then Model.Bow else Model.Gru) }
      in
      let model_seed = Rng.int rng 1000 in
      let a_fill = Array.init 64 (fun _ -> Rng.float rng -. 0.5) in
      let model () =
        let m = Model.create (Rng.create model_seed) config v in
        let a = m.Model.out.Dpoaf_tensor.Lora.a.Dpoaf_tensor.Tensor.data in
        Array.iteri (fun i _ -> a.(i) <- a_fill.(i mod 64)) a;
        m
      in
      let prompts = [| "steps for the task"; "observe the light"; "" |] in
      let batch = 2 + Rng.int rng 3 in
      let n = batch + 1 + Rng.int rng (2 * batch) in
      let n = if n mod batch = 0 then n + 1 else n in
      let examples =
        List.init n (fun _ ->
            let steps =
              List.init (1 + Rng.int rng 3) (fun _ ->
                  List.nth clauses (Rng.int rng (List.length clauses)))
            in
            { Pretrain.prompt = Vocab.encode v prompts.(Rng.int rng 3);
              tokens = Grammar.tokens_of_steps v steps; grammar = g; min_clauses = 1;
              max_clauses = 3 })
      in
      let epochs = 1 + Rng.int rng 3 and train_seed = Rng.int rng 1000 in
      let run train =
        let m = model () in
        let losses = train m examples ~epochs ~batch ~lr:0.05 (Rng.create train_seed) in
        ( List.map Int64.bits_of_float losses,
          List.map
            (fun (p : Dpoaf_tensor.Optim.param) ->
              Array.map Int64.bits_of_float p.Dpoaf_tensor.Optim.tensor.Dpoaf_tensor.Tensor.data)
            (Model.params_pretrain m) )
      in
      run Pretrain.train = run Dpoaf_oracle.Tape_pretrain.train)

(* ---------------- prompt formatting ---------------- *)

let test_prompt_llama2 () =
  let p = Prompt_format.llama2 "turn right at the traffic light" in
  let contains sub =
    let n = String.length p and m = String.length sub in
    let rec go i = i + m <= n && (String.sub p i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "inst" true (contains "[INST]");
  Alcotest.(check bool) "sys" true (contains "<<SYS>>");
  Alcotest.(check bool) "task" true (contains "turn right at the traffic light");
  Alcotest.(check bool) "closes" true (contains "[/INST]")

let test_prompt_alignment_query () =
  let q =
    Prompt_format.alignment_query ~props:[ "green light" ] ~actions:[ "stop" ]
      ~steps:[ "watch the light" ]
  in
  let contains sub =
    let n = String.length q and m = String.length sub in
    let rec go i = i + m <= n && (String.sub q i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "props listed" true (contains "{green light}");
  Alcotest.(check bool) "numbered step" true (contains "1. watch the light")

(* ---------------- GRU architecture ---------------- *)

let make_gru_model ?(dim = 6) seed vocab =
  Model.create (Rng.create seed)
    { Model.dim; context = 8; lora_rank = 2; arch = Model.Gru }
    vocab

let test_gru_distribution_normalizes () =
  let v = make_vocab () in
  let g = make_grammar v in
  let model = make_gru_model 51 v in
  let prompt = Vocab.encode v "steps for the task" in
  let responses = enumerate_responses g ~min_clauses:1 ~max_clauses:2 in
  let total =
    List.fold_left
      (fun acc tokens ->
        acc
        +. exp
             (Tape_model.response_logprob model ~prompt ~grammar:g ~min_clauses:1
                ~max_clauses:2 ~tokens))
      0.0 responses
  in
  Alcotest.(check bool)
    (Printf.sprintf "gru probabilities sum to 1 (got %f)" total)
    true
    (abs_float (total -. 1.0) < 1e-6)

let test_gru_sampler_matches_node_path () =
  (* The sampler's float GRU must agree with the autodiff GRU. *)
  let v = make_vocab () in
  let model = make_gru_model 52 v in
  let context = Vocab.encode v "steps for the task observe the light" in
  let allowed = [ Vocab.id v "go"; Vocab.id v "stop"; Vocab.id v "turn" ] in
  let snap = Sampler.snapshot model in
  let sampler_probs =
    Sampler.step_distribution snap ~context ~allowed ~temperature:1.0
  in
  List.iteri
    (fun k target ->
      let tape = Autodiff.Tape.create () in
      let bound = Tape_model.bind model tape in
      let node = Tape_model.step_logprob model bound ~context ~allowed ~target in
      let p_node = exp (Dpoaf_tensor.Tensor.get (Autodiff.value node) 0) in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "token %d" target)
        p_node sampler_probs.(k))
    allowed

let test_gru_order_sensitive () =
  (* Unlike the bag-of-words conditioner, the GRU distinguishes token
     order. *)
  let v = make_vocab () in
  let model = make_gru_model 53 v in
  let allowed = [ Vocab.id v "go"; Vocab.id v "stop" ] in
  let snap = Sampler.snapshot model in
  let dist ws = Sampler.step_distribution snap ~context:(Vocab.encode v ws) ~allowed ~temperature:1.0 in
  let a = dist "red green" and b = dist "green red" in
  Alcotest.(check bool) "order matters" true (abs_float (a.(0) -. b.(0)) > 1e-9);
  (* and the Bow conditioner does not *)
  let bow = make_model 53 v in
  let snap = Sampler.snapshot bow in
  let dist ws = Sampler.step_distribution snap ~context:(Vocab.encode v ws) ~allowed ~temperature:1.0 in
  let a = dist "red green" and b = dist "green red" in
  Alcotest.(check (float 1e-12)) "bow order-invariant" a.(0) b.(0)

let test_gru_gradients_finite_difference () =
  let v = make_vocab () in
  let g = make_grammar v in
  let model = make_gru_model ~dim:4 54 v in
  let prompt = Vocab.encode v "steps for the task" in
  let tokens = Grammar.tokens_of_steps v [ "if green go" ] in
  let loss () =
    -.Tape_model.response_logprob model ~prompt ~grammar:g ~min_clauses:1 ~max_clauses:2
        ~tokens
  in
  (* analytic gradients *)
  let tape = Autodiff.Tape.create () in
  let bound = Tape_model.bind model tape in
  let lp =
    Tape_model.response_logprob_node model bound ~prompt ~grammar:g ~min_clauses:1
      ~max_clauses:2 ~tokens
  in
  Autodiff.backward tape (Autodiff.neg tape lp);
  let grads = List.combine (Model.params_pretrain model) (Tape_model.pretrain_grads bound) in
  let eps = 1e-5 in
  List.iter
    (fun ((p : Dpoaf_tensor.Optim.param), grad) ->
      (* spot-check a few entries of every parameter tensor *)
      let n = Dpoaf_tensor.Tensor.numel p.Dpoaf_tensor.Optim.tensor in
      List.iter
        (fun i ->
          let i = i mod n in
          let orig = Dpoaf_tensor.Tensor.get p.Dpoaf_tensor.Optim.tensor i in
          Dpoaf_tensor.Tensor.set p.Dpoaf_tensor.Optim.tensor i (orig +. eps);
          let up = loss () in
          Dpoaf_tensor.Tensor.set p.Dpoaf_tensor.Optim.tensor i (orig -. eps);
          let down = loss () in
          Dpoaf_tensor.Tensor.set p.Dpoaf_tensor.Optim.tensor i orig;
          let numeric = (up -. down) /. (2.0 *. eps) in
          let analytic = Dpoaf_tensor.Tensor.get grad i in
          if abs_float (numeric -. analytic) > 1e-3 *. (1.0 +. abs_float numeric) then
            Alcotest.failf "%s[%d]: numeric %.6f vs analytic %.6f"
              p.Dpoaf_tensor.Optim.name i numeric analytic)
        [ 0; 3; 7 ])
    grads

let test_gru_pretrain_reduces_nll () =
  let v = make_vocab () in
  let g = make_grammar v in
  let model = make_gru_model 55 v in
  let prompt = Vocab.encode v "steps for the task" in
  let ex =
    {
      Pretrain.prompt;
      tokens = Grammar.tokens_of_steps v [ "observe the light"; "if red stop" ];
      grammar = g;
      min_clauses = 1;
      max_clauses = 3;
    }
  in
  let before = nll model ex in
  let _ = Pretrain.train model [ ex ] ~epochs:40 ~batch:4 ~lr:0.05 (Rng.create 3) in
  let after = nll model ex in
  Alcotest.(check bool)
    (Printf.sprintf "gru nll %.3f -> %.3f" before after)
    true (after < before *. 0.7)

let test_gru_checkpoint_roundtrip () =
  let v = make_vocab () in
  let g = make_grammar v in
  let model = make_gru_model 56 v in
  let prompt = Vocab.encode v "steps for the task" in
  let tokens = Grammar.tokens_of_steps v [ "turn right" ] in
  let lp m =
    Tape_model.response_logprob m ~prompt ~grammar:g ~min_clauses:1 ~max_clauses:2 ~tokens
  in
  let path = Filename.temp_file "dpoaf_gru" ".ckpt" in
  Checkpoint.save model path;
  let loaded = Checkpoint.load path in
  Sys.remove path;
  Alcotest.(check bool) "arch preserved" true
    (loaded.Model.config.Model.arch = Model.Gru);
  Alcotest.(check (float 1e-12)) "same logprob" (lp model) (lp loaded)

(* ---------------- incremental forward ---------------- *)

module Tensor = Dpoaf_tensor.Tensor

let bits_equal_arrays a b =
  Array.length a = Array.length b
  && begin
       let ok = ref true in
       Array.iteri
         (fun i v ->
           if Int64.bits_of_float v <> Int64.bits_of_float b.(i) then ok := false)
         a;
       !ok
     end

(* The incremental init/extend walk must visit exactly the hidden vectors
   the full-context recomputation produces — for both architectures. *)
let check_incremental_walk model =
  let v = make_vocab () in
  let prompt = Vocab.encode v "steps for the task" in
  let tokens =
    Grammar.tokens_of_steps v [ "observe the light"; "if green go"; "turn right" ]
  in
  let state = ref (Model.Fwd.init model ~prompt) in
  let prefix = ref [] in
  List.iter
    (fun tok ->
      let context = Model.context_of model ~prompt ~prefix:(List.rev !prefix) in
      let full = Model.Fwd.hidden_of_context model context in
      let incr = Model.Fwd.hidden model !state in
      Alcotest.(check bool) "hidden bits" true (bits_equal_arrays full incr);
      state := Model.Fwd.extend model !state tok;
      prefix := tok :: !prefix)
    (tokens @ [ Vocab.eos v ])

let test_incremental_walk_bow () =
  let v = make_vocab () in
  (* context 4 < response length forces the Bow window to roll *)
  check_incremental_walk (make_model ~context:4 61 v)

let test_incremental_walk_gru () =
  let v = make_vocab () in
  check_incremental_walk (make_gru_model 62 v)

(* The forward pass (Fwd, used by the sampler and by training) and the
   tape oracle's forward must agree bit-for-bit. *)
let check_fwd_matches_node model =
  let v = make_vocab () in
  let context =
    Model.context_of model
      ~prompt:(Vocab.encode v "steps for the task")
      ~prefix:(Vocab.encode v "observe the light")
  in
  let float_h = Model.Fwd.hidden_of_context model context in
  let tape = Autodiff.Tape.create () in
  let bound = Tape_model.bind model tape in
  let node_h =
    Autodiff.value (Tape_model.hidden_node model bound ~context)
  in
  Alcotest.(check bool) "fwd = node bits" true
    (bits_equal_arrays float_h node_h.Tensor.data)

let test_fwd_matches_node_bow () =
  let v = make_vocab () in
  check_fwd_matches_node (make_model 63 v)

let test_fwd_matches_node_gru () =
  let v = make_vocab () in
  check_fwd_matches_node (make_gru_model 64 v)

(* A cached prompt state is transparent: sampling from it consumes the rng
   exactly as the one-shot path does. *)
let test_sample_from_state_equals_sample () =
  let v = make_vocab () in
  let g = make_grammar v in
  let model = make_model 67 v in
  let snap = Sampler.snapshot model in
  let prompt = Vocab.encode v "steps for the task" in
  let state = Sampler.prompt_state snap ~prompt in
  for seed = 0 to 19 do
    let direct =
      Sampler.sample snap (Rng.create seed) ~prompt ~grammar:g ~min_clauses:1
        ~max_clauses:3 ()
    in
    let cached =
      Sampler.sample_from snap (Rng.create seed) ~state ~grammar:g
        ~min_clauses:1 ~max_clauses:3 ()
    in
    Alcotest.(check (list int)) "same tokens" direct cached
  done

(* The sampler's incremental states must draw exactly the tokens of a
   from-scratch sampler that rebuilds the context window and the Bow
   hidden state at every token (O(T^2), element access through
   Tensor.get2) and picks from the softmax over the allowed tokens. *)
let test_sample_equals_from_scratch () =
  let v = make_vocab () in
  let g = make_grammar v in
  (* context 4 < response length forces the window to roll *)
  let model = make_model ~context:4 68 v in
  let snap = Sampler.snapshot model in
  let prompt = Vocab.encode v "steps for the task" in
  let eff = Dpoaf_tensor.Lora.effective model.Model.out in
  let d = model.Model.config.Model.dim in
  let distribution ~context ~allowed =
    let h = Array.make d 0.0 in
    let k = float_of_int (max 1 (List.length context)) in
    List.iter
      (fun tok ->
        for j = 0 to d - 1 do
          h.(j) <- h.(j) +. (Tensor.get2 model.Model.embedding tok j /. k)
        done)
      context;
    let h = Array.map tanh h in
    let logits =
      List.map
        (fun tok ->
          let acc = ref (Tensor.get model.Model.bias tok) in
          for j = 0 to d - 1 do
            acc := !acc +. (Tensor.get2 eff tok j *. h.(j))
          done;
          !acc)
        allowed
    in
    let m = List.fold_left Float.max neg_infinity logits in
    let exps = List.map (fun l -> exp (l -. m)) logits in
    let z = List.fold_left ( +. ) 0.0 exps in
    Array.of_list (List.map (fun e -> e /. z) exps)
  in
  let pick rng probs =
    let x = Rng.float rng in
    let n = Array.length probs in
    let rec go i acc =
      if i >= n - 1 then n - 1
      else if x < acc +. probs.(i) then i
      else go (i + 1) (acc +. probs.(i))
    in
    go 0 0.0
  in
  let from_scratch rng =
    let rec go state prefix =
      if Grammar.is_final g state then List.rev prefix
      else
        let allowed = Grammar.allowed g ~min_clauses:1 ~max_clauses:3 state in
        let context = Model.context_of model ~prompt ~prefix:(List.rev prefix) in
        let tok = List.nth allowed (pick rng (distribution ~context ~allowed)) in
        match Grammar.advance g state tok with
        | Some state' -> go state' (tok :: prefix)
        | None -> Alcotest.fail "sampled a token the grammar rejects"
    in
    go (Grammar.start g) []
  in
  for seed = 0 to 59 do
    Alcotest.(check (list int))
      (Printf.sprintf "seed %d" seed)
      (from_scratch (Rng.create seed))
      (Sampler.sample snap (Rng.create seed) ~prompt ~grammar:g ~min_clauses:1
         ~max_clauses:3 ())
  done

(* ---------------- checkpointing ---------------- *)

let test_checkpoint_roundtrip () =
  let v = make_vocab () in
  let g = make_grammar v in
  let model = make_model 33 v in
  let prompt = Vocab.encode v "steps for the task" in
  let tokens = Grammar.tokens_of_steps v [ "turn right" ] in
  let lp model =
    Tape_model.response_logprob model ~prompt ~grammar:g ~min_clauses:1 ~max_clauses:2 ~tokens
  in
  let path = Filename.temp_file "dpoaf" ".ckpt" in
  Checkpoint.save model path;
  let loaded = Checkpoint.load path in
  Sys.remove path;
  Alcotest.(check (float 1e-12)) "same logprob" (lp model) (lp loaded)

let contains hay needle =
  let h = String.length hay and n = String.length needle in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* run [f], expect [Corrupt] naming exactly [path], return the reason *)
let expect_corrupt what path f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Checkpoint.Corrupt" what
  | exception Checkpoint.Corrupt { path = p; reason } ->
      Alcotest.(check string) (what ^ ": path in error") path p;
      reason

let with_bytes bytes f =
  let path = Filename.temp_file "dpoaf_corrupt" ".ckpt" in
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_checkpoint_bad_magic () =
  with_bytes "this is not a checkpoint at all" @@ fun path ->
  let reason = expect_corrupt "bad magic" path (fun () -> Checkpoint.load path) in
  Alcotest.(check bool) "reason names the magic" true (contains reason "magic");
  (* a file shorter than the magic is reported as such, not as a decode
     failure deep inside Marshal *)
  with_bytes "DP" @@ fun short ->
  let reason =
    expect_corrupt "short file" short (fun () -> Checkpoint.load short)
  in
  Alcotest.(check bool) "reason names the length" true
    (contains reason "shorter than")

let test_checkpoint_version_mismatch () =
  let buf = Buffer.create 16 in
  Buffer.add_string buf "DPOAFCKP";
  (* 4-byte big-endian version word, deliberately wrong *)
  List.iter
    (fun shift -> Buffer.add_char buf (Char.chr ((999 lsr shift) land 0xff)))
    [ 24; 16; 8; 0 ];
  Buffer.add_string buf "payload";
  with_bytes (Buffer.contents buf) @@ fun path ->
  let reason =
    expect_corrupt "version skew" path (fun () -> Checkpoint.load path)
  in
  Alcotest.(check bool) "reason has the found version" true
    (contains reason "999");
  Alcotest.(check bool) "reason has the expected version" true
    (contains reason (string_of_int Checkpoint.version))

let test_checkpoint_truncated_payload () =
  let v = make_vocab () in
  let model = make_model 41 v in
  let path = Filename.temp_file "dpoaf_trunc" ".ckpt" in
  Checkpoint.save model path;
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let bytes = really_input_string ic (len - 10) in
  close_in ic;
  Sys.remove path;
  with_bytes bytes @@ fun truncated ->
  let reason =
    expect_corrupt "truncation" truncated (fun () -> Checkpoint.load truncated)
  in
  Alcotest.(check bool) "reason says truncated/corrupt" true
    (contains reason "truncated")

(* A checkpoint cut at any byte is a [Corrupt] naming the file, never
   another exception. *)
let test_checkpoint_truncated_every_offset () =
  let model = make_model ~dim:2 ~rank:1 43 (Vocab.of_texts [ "go now" ]) in
  let path = Filename.temp_file "dpoaf_cut" ".ckpt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Checkpoint.save model path;
  let ic = open_in_bin path in
  let bytes = really_input_string ic (in_channel_length ic) in
  close_in ic;
  for len = 0 to String.length bytes - 1 do
    let oc = open_out_bin path in
    output_string oc (String.sub bytes 0 len);
    close_out oc;
    ignore
      (expect_corrupt (Printf.sprintf "cut at %d" len) path (fun () -> Checkpoint.load path))
  done

(* [save] writes beside the target and renames: no temporary file is left,
   whether the save succeeds or the rename fails. *)
let test_checkpoint_save_leaves_no_temp () =
  let model = make_model 44 (make_vocab ()) in
  let dir = Filename.temp_dir "dpoaf_save" "" in
  let entries () = List.sort compare (Array.to_list (Sys.readdir dir)) in
  let path = Filename.concat dir "m.ckpt" in
  Checkpoint.save model path;
  Checkpoint.save model path;
  Alcotest.(check (list string)) "only the checkpoint" [ "m.ckpt" ] (entries ());
  ignore (Checkpoint.load path);
  (* renaming a file over a directory fails after the write *)
  let blocked = Filename.concat dir "d" in
  Sys.mkdir blocked 0o755;
  (match Checkpoint.save model blocked with
  | () -> Alcotest.fail "save over a directory succeeded"
  | exception Sys_error _ -> ());
  Alcotest.(check (list string)) "temporary file removed" [ "d"; "m.ckpt" ] (entries ());
  Sys.rmdir blocked;
  Sys.remove path;
  Sys.rmdir dir

let () =
  Alcotest.run "lm"
    [
      ( "vocab",
        [
          Alcotest.test_case "specials" `Quick test_vocab_specials;
          Alcotest.test_case "roundtrip" `Quick test_vocab_roundtrip;
          Alcotest.test_case "unk" `Quick test_vocab_unk;
          Alcotest.test_case "dedup" `Quick test_vocab_dedup;
          Alcotest.test_case "import/export" `Quick test_vocab_import_export;
        ] );
      ( "grammar",
        [
          Alcotest.test_case "accepts clauses" `Quick test_grammar_accepts_clauses;
          Alcotest.test_case "rejects garbage" `Quick test_grammar_rejects_garbage;
          Alcotest.test_case "min clauses" `Quick test_grammar_min_clauses;
          Alcotest.test_case "max clauses" `Quick test_grammar_max_clauses;
          Alcotest.test_case "steps roundtrip" `Quick test_grammar_steps_roundtrip;
          Alcotest.test_case "allowed walk" `Quick test_grammar_allowed_nonempty_walk;
          Alcotest.test_case "empty rejected" `Quick test_grammar_empty_rejected;
        ] );
      ( "model",
        [
          Alcotest.test_case "distribution normalizes" `Quick
            test_model_distribution_normalizes;
          Alcotest.test_case "sampler agrees with logprob" `Quick
            test_sampler_agrees_with_logprob;
          Alcotest.test_case "samples accepted" `Quick test_sampler_all_samples_accepted;
          Alcotest.test_case "greedy deterministic" `Quick test_greedy_deterministic;
          Alcotest.test_case "clone independent" `Quick test_clone_independent;
        ] );
      ( "pretrain",
        [
          QCheck_alcotest.to_alcotest prop_pretrain_matches_oracle;
          Alcotest.test_case "reduces nll" `Slow
            test_pretrain_reduces_nll_and_shifts_sampling;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "bad magic" `Quick test_checkpoint_bad_magic;
          Alcotest.test_case "version mismatch" `Quick
            test_checkpoint_version_mismatch;
          Alcotest.test_case "truncated payload" `Quick
            test_checkpoint_truncated_payload;
          Alcotest.test_case "truncated at every offset" `Quick
            test_checkpoint_truncated_every_offset;
          Alcotest.test_case "save leaves no temp file" `Quick
            test_checkpoint_save_leaves_no_temp;
        ] );
      ( "prompt-format",
        [
          Alcotest.test_case "llama2 template" `Quick test_prompt_llama2;
          Alcotest.test_case "alignment query" `Quick test_prompt_alignment_query;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "walk = full context (bow)" `Quick
            test_incremental_walk_bow;
          Alcotest.test_case "walk = full context (gru)" `Quick
            test_incremental_walk_gru;
          Alcotest.test_case "fwd = node (bow)" `Quick test_fwd_matches_node_bow;
          Alcotest.test_case "fwd = node (gru)" `Quick test_fwd_matches_node_gru;
          Alcotest.test_case "state sampling = prompt sampling" `Quick
            test_sample_from_state_equals_sample;
          Alcotest.test_case "sampling = from-scratch sampling" `Quick
            test_sample_equals_from_scratch;
        ] );
      ( "gru",
        [
          Alcotest.test_case "distribution normalizes" `Quick
            test_gru_distribution_normalizes;
          Alcotest.test_case "sampler matches node path" `Quick
            test_gru_sampler_matches_node_path;
          Alcotest.test_case "order sensitive" `Quick test_gru_order_sensitive;
          Alcotest.test_case "gradients" `Quick test_gru_gradients_finite_difference;
          Alcotest.test_case "pretrain" `Slow test_gru_pretrain_reduces_nll;
          Alcotest.test_case "checkpoint" `Quick test_gru_checkpoint_roundtrip;
        ] );
    ]
