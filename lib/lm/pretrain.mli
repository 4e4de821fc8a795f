(** Maximum-likelihood pre-training.

    The "pre-trained model" of the paper is obtained by MLE on a synthetic
    corpus of instruction responses of mixed specification quality, so that
    before fine-tuning the model emits both careful and careless step
    sequences — the ≈60% starting point of the paper's curves. *)

type example = {
  prompt : int list;
  tokens : int list;  (** grammar-accepted response token sequence *)
  grammar : Grammar.t;
  min_clauses : int;
  max_clauses : int;
}

val train :
  Model.t ->
  example list ->
  epochs:int ->
  batch:int ->
  lr:float ->
  Dpoaf_util.Rng.t ->
  float list
(** Adam training of the pre-training parameters; returns the mean NLL per
    epoch (shuffled minibatches).  The gradient is written by hand (the
    head, the Bow window mean, back-propagation through time for the GRU)
    and is bit for bit the one the autodiff tape of the test-only
    reference library ([test/oracle], [Tape_pretrain]) computes.  It writes the frozen tensors in place,
    and every {!Model.clone} shares them: pretrain only a fresh model,
    before anything clones it. *)
