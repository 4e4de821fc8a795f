(** Direct preference optimization (Rafailov et al. 2023) of the LoRA
    parameters only (Appendix E), with the paper's metrics (§5.2).

    Per pair, with policy π_θ and frozen reference π_ref:

    [L = -log σ(β((log π_θ(y_w) − log π_ref(y_w)) −
                  (log π_θ(y_l) − log π_ref(y_l))))]

    - {b accuracy} is the fraction of pairs with
      [P(y_w|x,θ) > P(y_l|x,θ)];
    - {b marginal preference} is the mean of the β-free margin
      [(log π_θ(y_w) − log π_ref(y_w)) − (log π_θ(y_l) − log π_ref(y_l))]:
      zero at initialization, positive once the model prefers the chosen
      response more than the reference does.

    Between random seeds only the data order changes — the paper notes this
    is why the variance bands in Figure 8 are small. *)

type config = {
  beta : float;
  lr : float;
  epochs : int;
  batch : int;
  checkpoint_every : int;  (** 0 disables checkpointing *)
  shuffle_each_epoch : bool;
}

val default_config : config
(** β=0.5, lr=5e-3, 200 epochs, batch 16, checkpoint every 20 epochs. *)

type epoch_stats = {
  epoch : int;
  loss : float;
  accuracy : float;
  margin : float;
}

type run = {
  seed : int;
  stats : epoch_stats list;  (** in epoch order, one entry per epoch *)
  checkpoints : (int * Dpoaf_lm.Model.t) list;
      (** (epoch, policy snapshot); epoch 0 is always included, and is the
          reference itself *)
  final : Dpoaf_lm.Model.t;
}

(** {1 Per-step telemetry}

    Every optimizer step can be streamed to a pluggable {!sink}.  Norm
    fields ([grad_norm], [update_norm]) cost an extra pass over the LoRA
    adapter tensors, so they are computed only when a sink is attached
    (they read 0 otherwise).  Independent of any sink, each step's wall
    time feeds the [dpo.step] latency histogram in
    {!Dpoaf_exec.Metrics}. *)

type step_record = {
  seed : int;
  epoch : int;  (** 1-based *)
  step : int;  (** global step within this seed's run, 1-based *)
  loss : float;  (** mean DPO loss over the batch *)
  accuracy : float;  (** fraction of pairs with chosen logp > rejected *)
  margin : float;  (** mean preference margin vs the reference *)
  logp_gap : float;  (** mean (chosen − rejected) policy log-probability *)
  grad_norm : float;  (** L2 norm of the LoRA gradient, all adapters *)
  update_norm : float;  (** L2 norm of the Adam parameter update *)
  seconds : float;  (** wall time of this step *)
}

type sink = step_record -> unit

val file_sink : string -> sink * (unit -> unit)
(** [file_sink path] opens [path] and returns [(sink, close)].  A [.csv]
    suffix selects CSV (with header, see {!csv_header}); anything else
    writes one JSON object per line.  Writes are mutex-serialized, so the
    sink is safe to share across {!train_seeds} workers — rows from
    different seeds interleave. *)

val csv_header : string
val csv_line : step_record -> string
val jsonl_line : step_record -> string

val train :
  ?sink:sink ->
  reference:Dpoaf_lm.Model.t ->
  pairs:Pref_data.pair list ->
  config ->
  seed:int ->
  run
(** Fine-tune a {!Dpoaf_lm.Model.clone} of [reference]: the policy and
    every checkpoint own their adapter and share the reference's frozen
    tensors, which training never writes ([reference] itself is left
    unchanged).  [?sink] receives one {!step_record} per optimizer step.

    Only the adapter trains, so the {!Features} of each pair's two legs
    and its reference log-probabilities are computed once up front.  A
    step computes the adapter logits and closed-form adapter gradients
    from them, with no autodiff tape; it is bit-identical to
    back-propagating the DPO loss through the LoRA head's primitive-op
    composition on the autodiff tape of the test-only reference library
    ([test/oracle], [Tape_dpo]). *)

val train_seeds :
  ?jobs:int ->
  ?sink:sink ->
  reference:Dpoaf_lm.Model.t ->
  pairs:Pref_data.pair list ->
  config ->
  seeds:int list ->
  run list
(** One {!train} per seed, fanned out over [?jobs] workers (default
    {!Dpoaf_exec.Pool.default_jobs}).  Every seed derives its RNG stream
    from its own seed value, so the runs are independent of worker count
    and arrive in input order.  Each seed's run executes inside a
    [dpo.train_seed] span; a shared [?sink] must be domain-safe
    ({!file_sink} is). *)
