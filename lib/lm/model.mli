(** The language model: a word-level autoregressive log-bilinear model.

    The next-token distribution conditions on the mean embedding of the
    last [context] tokens (prompt included):

    [h = tanh(mean E[w_i]);  logits = (W + A·B) h + bias]

    [W] is the frozen-at-fine-tuning output head carrying the LoRA adapter
    ([A·B]); pre-training trains [E], [W] and [bias] by maximum likelihood,
    DPO fine-tuning trains only [A] and [B] (paper, Appendix E).

    This is the repository's substitute for Llama2-7B: a parametric policy
    with computable sequence log-probabilities and gradients, which is all
    DPO-AF requires of the language model. *)

(** How the context tokens are condensed into the conditioning vector:
    [Bow] is the windowed mean-embedding (log-bilinear) default; [Gru] runs
    a gated recurrent unit over the context — slower but order-aware (see
    the bench's [abl-arch] section). *)
type arch = Bow | Gru

type config = { dim : int; context : int; lora_rank : int; arch : arch }

val default_config : config
(** dim 24, context 12, LoRA rank 4, [Bow]. *)

type gru = private {
  wz : Dpoaf_tensor.Tensor.t;
  uz : Dpoaf_tensor.Tensor.t;
  bz : Dpoaf_tensor.Tensor.t;
  wr : Dpoaf_tensor.Tensor.t;
  ur : Dpoaf_tensor.Tensor.t;
  br : Dpoaf_tensor.Tensor.t;
  wh : Dpoaf_tensor.Tensor.t;
  uh : Dpoaf_tensor.Tensor.t;
  bh : Dpoaf_tensor.Tensor.t;
}

type t = private {
  config : config;
  vocab : Vocab.t;
  embedding : Dpoaf_tensor.Tensor.t;  (** [V×d] *)
  out : Dpoaf_tensor.Lora.t;  (** output head [V×d] with adapter *)
  bias : Dpoaf_tensor.Tensor.t;  (** [V] *)
  gru : gru option;  (** present iff [config.arch = Gru] *)
}

val create : Dpoaf_util.Rng.t -> config -> Vocab.t -> t

val clone : t -> t
(** A copy that owns its adapter [A], [B] and shares every frozen tensor
    (embedding, output base, bias, GRU weights) with the original: a DPO
    policy, a checkpoint and a REINFORCE policy cost one adapter each.
    Only {!Pretrain} writes the frozen tensors, so a clone (and the model
    it was cloned from, once cloned) must never be pretrained. *)

val params_pretrain : t -> Dpoaf_tensor.Optim.param list
(** The tensors pre-training trains: embedding, output base, bias, then
    the GRU weights [wz uz bz wr ur br wh uh bh] (GRU only). *)

val params_lora : t -> Dpoaf_tensor.Optim.param list
(** Adapter matrices only — trained during DPO. *)

val context_of : t -> prompt:int list -> prefix:int list -> int list
(** The (at most [config.context]) token ids conditioning the next token:
    a [<bos>] marker, the prompt, then the response prefix. *)

(** {1 Forward pass}

    The hidden-state path, shared by the sampler, the serving layer,
    pre-training and fine-tuning's frozen features.  It performs the same
    float operations as the primitive-op composition on the autodiff tape
    of the test-only reference library ([test/oracle], [Tape_model]), so
    sampling, scoring and training agree exactly; states are
    immutable and safe to cache across domains.  Extending a state is O(1)
    in the sequence length (rolling Bow window / GRU recurrence), which is
    what makes autoregressive generation O(T·d). *)
module Fwd : sig
  (** The Bow window (the {!context_of} ids) or the GRU hidden state. *)
  type state = private Bow_w of int list | Gru_h of float array

  val init : t -> prompt:int list -> state
  (** The state conditioning the first response token. *)

  val extend : t -> state -> int -> state
  (** Push one generated token. *)

  val hidden : t -> state -> float array
  (** The conditioning vector for the next token.  Read-only: the returned
      array may be shared with the state. *)

  (** One GRU step's activations: the update gate [z], the reset gate
      [r], the candidate and the next hidden state. *)
  type gates = { z : float array; r : float array; candidate : float array; next : float array }

  val gru_gates : t -> float array -> int -> gates
  (** [gru_gates m h tok] steps the GRU from [h] on [tok]; [next] is the
      state {!extend} would reach.
      @raise Invalid_argument on a Bow model. *)

  val hidden_of_context : t -> int list -> float array
  (** The conditioning vector for an explicit context (as produced by
      {!context_of}); the incremental [init]/[extend] walk visits exactly
      these values. *)
end
