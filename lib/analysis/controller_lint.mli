(** Structural lint for FSA controllers, without any rollouts.

    All verdicts are decided by exact DNF reasoning on guards
    ({!Guards}); transitions whose guard is unsatisfiable carry no
    behaviour and are excluded from reachability/cycle analysis (and
    reported on their own).  Diagnostic codes:

    - [CTL001] (warning) unreachable state
    - [CTL002] (error) reachable state where no observation enables any
      transition — the controller freezes
    - [CTL003] (warning) overlapping guards with distinct outcomes —
      nondeterminism, with a witness observation
    - [CTL004] (error) reachable state with no enabled transition for some
      observation — guard incompleteness, with a witness observation
    - [CTL005] (warning) ε-action cycle — the controller can loop forever
      without emitting an action
    - [CTL006] (info) transition with an unsatisfiable guard *)

val incompleteness :
  Dpoaf_automata.Fsa.t ->
  (Dpoaf_automata.Fsa.state * Dpoaf_logic.Symbol.t) list
(** Reachable, non-stuck states with an observation (the witness) enabling
    no transition.  Exact for any atom universe containing the guards'
    atoms — unmentioned atoms are don't-cares. *)

val lint : Dpoaf_automata.Fsa.t -> Diagnostic.t list
(** Every check of the code list above, as sorted diagnostics. *)
