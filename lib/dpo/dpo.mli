(** Direct preference optimization (Rafailov et al. 2023) with the paper's
    metrics (§5.2).

    Per pair, with policy π_θ and frozen reference π_ref:

    [L = -log σ(β((log π_θ(y_w) − log π_ref(y_w)) −
                  (log π_θ(y_l) − log π_ref(y_l))))]

    - {b accuracy} is the fraction of pairs with
      [P(y_w|x,θ) > P(y_l|x,θ)];
    - {b marginal preference} is the mean of the β-free margin
      [(log π_θ(y_w) − log π_ref(y_w)) − (log π_θ(y_l) − log π_ref(y_l))]:
      zero at initialization, positive once the model prefers the chosen
      response more than the reference does. *)

type ref_logprobs = { ref_chosen : float; ref_rejected : float }

val reference_logprobs : Dpoaf_lm.Model.t -> Pref_data.pair -> ref_logprobs
(** Precompute the frozen reference terms for a pair. *)

type stats = { loss : float; accuracy : float; margin : float }

val evaluate :
  policy:Dpoaf_lm.Model.t ->
  reference:Dpoaf_lm.Model.t ->
  beta:float ->
  Pref_data.pair list ->
  stats
(** Metrics over a pair set without touching parameters. *)
