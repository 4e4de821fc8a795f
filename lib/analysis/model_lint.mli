(** Lint for world models (transition systems).

    Diagnostic codes:

    - [MDL001] (error) dead state — no successor, so infinite-trace
      verification silently stutters there
    - [MDL002] (error) uncovered atom — the rule book mentions an atom the
      model never emits (action atoms are excluded via [ignore]) *)

val lint :
  ?specs:(string * Dpoaf_logic.Ltl.t) list ->
  ?ignore:Dpoaf_logic.Symbol.t ->
  ?coverage:bool ->
  Dpoaf_automata.Ts.t ->
  Diagnostic.t list
(** Dead states always; atom coverage when [coverage] (default true) —
    disable it for single-scenario models, whose proposition sets are
    deliberately partial (only the universal model must cover the whole
    rule book). *)
