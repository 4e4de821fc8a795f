(** Per-controller vacuity: specs "satisfied" only because their trigger
    never occurs in the closed loop.

    A specification [□(a ⇒ c)] holds vacuously for controller [C] in model
    [M] when no reachable state of [M ⊗ C] satisfies [a]: the model checker
    reports [Holds], but the verdict says nothing about [C]'s behaviour.
    Preference pairs whose entire margin is vacuous carry a corrupted
    training signal — {!Dpoaf_pipeline.Feedback} flags them through this
    module. *)

val vacuous_in :
  Dpoaf_automata.Kripke.t ->
  specs:(string * Dpoaf_logic.Ltl.t) list ->
  satisfied:string list ->
  string list
(** The subset of [satisfied] whose antecedent no reachable state of the
    product's Kripke encoding ({!Dpoaf_automata.Product.to_kripke})
    triggers — in rule-book order (the order of [satisfied]).  Specs
    without a propositional [□(a ⇒ c)] shape are conservatively counted
    as triggered (never reported vacuous).  Takes the structure the
    model checker already checked, so vacuity costs no second product. *)

val vacuously_satisfied :
  model:Dpoaf_automata.Ts.t ->
  controller:Dpoaf_automata.Fsa.t ->
  specs:(string * Dpoaf_logic.Ltl.t) list ->
  satisfied:string list ->
  string list
(** {!vacuous_in} on a freshly built product [model ⊗ controller]. *)

val diagnostics :
  model:Dpoaf_automata.Ts.t ->
  controller:Dpoaf_automata.Fsa.t ->
  specs:(string * Dpoaf_logic.Ltl.t) list ->
  satisfied:string list ->
  Diagnostic.t list
(** One [VAC001] (info) diagnostic per vacuously satisfied spec, with the
    spec name as witness. *)
