(** Trace semantics for LTL.

    Two interpretations are provided:

    - {b finite traces} (LTLf-style), used for the paper's empirical
      evaluation (§4.2): the simulator grounding [G(C,S)] produces a finite
      sequence in [(2^P × 2^{P_A})^N] which is checked directly;
    - {b lasso traces} ([prefix · cycle^ω]), used to interpret the
      counterexamples returned by the model checker and to cross-check the
      automata-theoretic model checker in tests. *)

type step = Symbol.t
(** One instant: the set of atoms true at that instant. *)

val eval_finite : Ltl.t -> step array -> bool
(** LTLf evaluation at position 0 with strong [Next] (false at the last
    position) and finite [Until]/[Release].  The empty trace satisfies only
    formulas that are vacuously true ([True], [Always _], [Release _],
    negations thereof). *)

val eval_lasso : Ltl.t -> prefix:step array -> cycle:step array -> bool
(** Evaluation of the infinite word [prefix · cycle^ω] at position 0.
    Until/Release are computed as least/greatest fixpoints on the lasso
    graph.  @raise Invalid_argument if [cycle] is empty. *)
