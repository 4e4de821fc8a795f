(** Grammar-constrained sampling from the language model.

    Sampling uses a parameter snapshot (the LoRA adapter materialized into
    the output head) so repeated sampling does not rebuild [W + A·B].
    Decoding is incremental: a {!state} carries the rolling context
    (Bow window or GRU hidden vector, via {!Model.Fwd}), so generating a
    response is linear in its length, and a prompt's state can be built
    once and reused across requests (the serving layer caches them). *)

type snapshot

val snapshot : Model.t -> snapshot
(** Capture the model's current effective parameters. *)

type state
(** Immutable decoding state; safe to cache and share across domains. *)

val prompt_state : snapshot -> prompt:int list -> state
(** The state conditioning the first response token. *)

val extend : snapshot -> state -> int -> state
(** Push one generated token. *)

val step_distribution :
  snapshot -> context:int list -> allowed:int list -> temperature:float -> float array
(** Probabilities over [allowed] (renormalized; sums to 1).
    @raise Invalid_argument on an empty allowed set or non-positive
    temperature. *)

val sample_from :
  snapshot ->
  Dpoaf_util.Rng.t ->
  state:state ->
  grammar:Grammar.t ->
  min_clauses:int ->
  max_clauses:int ->
  ?temperature:float ->
  unit ->
  int list
(** One response decoded from a prompt state (as {!sample}, with the
    prompt fold already done). *)

val sample :
  snapshot ->
  Dpoaf_util.Rng.t ->
  prompt:int list ->
  grammar:Grammar.t ->
  min_clauses:int ->
  max_clauses:int ->
  ?temperature:float ->
  unit ->
  int list
(** One response: token ids ending in [<eos>], accepted by the grammar. *)

val greedy :
  snapshot ->
  prompt:int list ->
  grammar:Grammar.t ->
  min_clauses:int ->
  max_clauses:int ->
  int list
(** Most-likely-token decoding (deterministic). *)
