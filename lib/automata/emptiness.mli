(** Accepting-lasso search in the product of a Kripke structure and a
    state-labeled Büchi automaton.

    Non-emptiness of [K ⊗ A¬φ] yields a counterexample to [K ⊨ φ]: a lasso
    of Kripke states whose label word violates the specification. *)

type lasso = {
  prefix : int list;  (** Kripke state indices before the cycle. *)
  cycle : int list;  (** Kripke state indices of the repeated cycle; non-empty. *)
}

val find_accepting_lasso : Kripke.t -> Buchi.nba -> lasso option
(** [Some lasso] iff the product has a reachable accepting cycle.  The lasso
    projects the product run onto Kripke states; its label word is accepted
    by the automaton.  Labels are matched as bitmasks ({!Kripke.t.masks})
    and the product is searched in per-domain arrays reused across calls.
    Each call adds the product's reachable states to the [mc.product_states]
    counter and its strongly connected components to [mc.sccs]. *)
