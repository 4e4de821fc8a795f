(** Template-based LTL rule-book generation with a mandatory sanity gate.

    Patterns follow the safety-compliant-LTL template catalogue: a pack
    lists which hazards forbid which actions, which actions require
    which preconditions, which hazards demand a response, and
    {!suite} instantiates and names the formulas ([phi_1], [phi_2], …)
    — then refuses to return them unless the {!Dpoaf_analysis} gates all
    pass on the pack's universal world model. *)

type pattern =
  | Never of { trigger : Dpoaf_logic.Ltl.t; action : string }
      (** [□(trigger ⇒ ¬action)] — a safety invariant. *)
  | Requires of { action : string; condition : Dpoaf_logic.Ltl.t }
      (** [□(action ⇒ condition)] — an action precondition. *)
  | Responds of { trigger : Dpoaf_logic.Ltl.t; action : string }
      (** [□(trigger ⇒ ◇action)] — a response obligation. *)
  | Liveness of { enable : Dpoaf_logic.Ltl.t; hold : string }
      (** [◇enable ⇒ ◇¬hold] — progress: if the enabling condition ever
          occurs, the agent must not [hold] (typically [stop]) forever. *)
  | Coverage of string list
      (** [□(a₁ ∨ … ∨ aₙ)] — some action is always emitted. *)

exception Rejected of { domain : string; diagnostics : string list }
(** Raised by {!suite} when any sanity diagnostic fires; carries the
    rendered diagnostics ([SPEC001] unsatisfiable, [SPEC002] tautology,
    [SPEC003] pairwise redundancy, [SPEC004] model-level vacuity,
    [MDL001] dead model state, [MDL002] uncovered spec atom). *)

val suite :
  domain:string ->
  model:Dpoaf_automata.Ts.t ->
  actions:string list ->
  pattern list ->
  (string * Dpoaf_logic.Ltl.t) list
(** Instantiate, name and gate a rule book against the domain's
    universal [model]; [actions] are the controller-emitted atoms the
    model never labels (unconstrained in the vacuity and coverage
    checks).  @raise Rejected if any diagnostic fires. *)
