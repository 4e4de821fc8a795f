(** The frozen-feature kernel of the LoRA output head, shared by DPO
    ({!Trainer}) and REINFORCE ({!Reinforce}).

    Fine-tuning trains only the adapter of
    [logits = (W + A·B) h + bias] (Appendix E).  At each scored position
    of a response, the grammar's allowed rows, the target, [h] and [W h]
    depend only on the frozen tensors: {!create} computes them once, and
    {!leg_logprob} / {!leg_backward} compute only [u = B h], the adapter
    logits and closed-form gradients for [A] and [B], with no autodiff
    tape.

    Both are bit-identical to scoring the response with the head's
    primitive-op composition on the autodiff tape of the test-only
    reference library ([test/oracle], [Tape_model]) and back-propagating
    through it: the same float operations, the gradients accumulated in
    the tape's reverse order (positions last to first) with its [0.0 +.]
    adds and [<> 0.0] skips.  A caller that backs several legs up must
    call {!leg_backward} in the order the tape would reach them. *)

(** One response to score: a leg of a preference pair, or a REINFORCE
    sample. *)
type leg = {
  prompt : int list;
  grammar : Dpoaf_lm.Grammar.t;
  min_clauses : int;
  max_clauses : int;
  tokens : int list;
}

type t
(** The features of a list of legs, plus per-position scratch that
    {!leg_logprob} fills and {!leg_backward} reads.  Not shareable between
    domains. *)

val create : Dpoaf_lm.Model.t -> leg list -> t
(** The features of [legs] under the model's frozen tensors; leg [i] of
    the list is leg [i] of the result.  Only the frozen tensors are read:
    any model sharing them (a {!Dpoaf_lm.Model.clone}) can then be scored.
    @raise Invalid_argument if the grammar rejects a leg's tokens. *)

val leg_logprob : t -> Dpoaf_lm.Model.t -> int -> float
(** [leg_logprob f model i] is leg [i]'s log-probability under [model]'s
    adapter and bias, summed as the tape does (last position first).  It
    leaves the leg's [u] and log-softmax for {!leg_backward}. *)

val leg_backward :
  t -> Dpoaf_lm.Model.t -> agrad:float array -> bgrad:float array -> int -> float -> unit
(** [leg_backward f model ~agrad ~bgrad i g] adds leg [i]'s adapter
    gradients, for adjoint [g] of its log-probability, into [agrad] and
    [bgrad] (the data of tensors shaped like [A] and [B]).  Reads what the
    last {!leg_logprob} of leg [i] left, which must have been computed
    under the same adapter. *)
