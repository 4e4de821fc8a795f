(** Policy-gradient fine-tuning from verifier rewards — the RL-style
    baseline DPO replaces (cf. the paper's §2: RLHF learns a reward model
    from human preferences; here the model checker {e is} the reward).

    Each epoch samples responses on-policy, scores them with the automated
    verifier, and ascends the REINFORCE gradient of the mean reward with a
    per-task mean baseline:

    [∇ J = E[(r − b̄_task) ∇ log π_θ(y|x)]]

    Only the LoRA adapter is trained, as in the DPO path, so the two
    fine-tuning strategies are directly comparable (bench section
    [abl-rl]).  Each epoch steps on the {!Features} of its samples with a
    nonzero advantage, with no autodiff tape; the step is bit-identical to
    back-propagating [-Σ (r − b̄_task) log π_θ(y|x) / N] (N samples in
    all) on a tape. *)

type task = {
  prompt : int list;
  grammar : Dpoaf_lm.Grammar.t;
  min_clauses : int;
  max_clauses : int;
  reward : int list -> float;
      (** e.g. (specifications satisfied)/15 from the verifier *)
}

type config = {
  lr : float;
  epochs : int;
  samples_per_task : int;
  temperature : float;
}

val default_config : config
(** lr 2e-3, 100 epochs, 8 samples per task, temperature 1. *)

type epoch_stats = { epoch : int; mean_reward : float }

type run = { stats : epoch_stats list; final : Dpoaf_lm.Model.t }

val train : reference:Dpoaf_lm.Model.t -> tasks:task list -> config -> seed:int -> run
(** Fine-tune a clone of [reference]; the reference itself is untouched. *)
