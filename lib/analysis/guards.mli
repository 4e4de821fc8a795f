(** Exact boolean reasoning on controller guards by DNF expansion.

    Guards are small propositional formulas over observation atoms (a few
    literals per transition in GLM2FSA output), so disjunctive normal form
    with contradictory-cube pruning is an exact and cheap decision
    procedure — and every verdict comes with a {e witness symbol} read off
    a cube, which the lint diagnostics surface to the user. *)

type literal = { atom : string; positive : bool }

type cube = literal list
(** Sorted by atom, at most one literal per atom (consistent by
    construction). *)

type dnf = cube list
(** A guard is satisfiable iff its DNF has at least one cube. *)

val of_guard : Dpoaf_automata.Fsa.guard -> dnf
(** Exact DNF: a symbol satisfies the guard iff it satisfies some cube
    (atoms absent from a cube are don't-cares). *)

val eval : dnf -> Dpoaf_logic.Symbol.t -> bool
(** Agrees with {!Dpoaf_automata.Fsa.eval_guard} on the original guard
    (property-tested in [test/test_analysis.ml]). *)

val satisfiable : Dpoaf_automata.Fsa.guard -> bool

val witness : Dpoaf_automata.Fsa.guard -> Dpoaf_logic.Symbol.t option
(** A symbol satisfying the guard, or [None] when unsatisfiable. *)

val disjunction :
  Dpoaf_automata.Fsa.guard list -> Dpoaf_automata.Fsa.guard
(** N-ary [Gor]; the empty list is unsatisfiable ([Gnot Gtrue]). *)

val overlap_witness :
  Dpoaf_automata.Fsa.guard ->
  Dpoaf_automata.Fsa.guard ->
  Dpoaf_logic.Symbol.t option
(** A symbol enabling both guards at once — a nondeterminism witness. *)

val complement_witness :
  Dpoaf_automata.Fsa.guard list -> Dpoaf_logic.Symbol.t option
(** A symbol enabling {e none} of the guards ([None] when their disjunction
    is a tautology) — an incompleteness witness for a state's outgoing
    transitions.  The empty list yields [Some {}]. *)

val satisfiable_under :
  free:Dpoaf_logic.Symbol.t ->
  Dpoaf_logic.Symbol.t ->
  Dpoaf_automata.Fsa.guard ->
  bool
(** [satisfiable_under ~free σ g]: can [g] hold when every atom outside
    [free] is fixed by membership in [σ] and atoms in [free] are
    unconstrained?  Used for antecedent-reachability against world-model
    labels, with the controller's action atoms free. *)
