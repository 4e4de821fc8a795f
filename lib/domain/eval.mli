(** The verification-feedback path of every pack (§4.2): parse steps
    with the pack's lexicon, compile the GLM2FSA controller, build the
    product with the world model once, model-check the rule book on it
    and read vacuity ({!Dpoaf_analysis.Vacuity.vacuous_in}) from the same
    Kripke structure.  One mutexed lexicon and one bounded profile cache
    [eval.profile.<domain>] keyed by (model name, steps) per pack.  Its
    entries share their profiles ([eval.verdicts.<domain>], one record
    per distinct profile) and step texts ([eval.texts.<domain>], one
    string per distinct step), so a memo entry keeps only its key. *)

type t = {
  lexicon : unit -> Dpoaf_lang.Lexicon.t;
  controller_of_steps :
    name:string ->
    string list ->
    Dpoaf_automata.Fsa.t * Dpoaf_lang.Step_parser.stats;
  profile_of_steps :
    ?model:Dpoaf_automata.Ts.t -> string list -> Domain.profile;
  profile_of_controller :
    ?model:Dpoaf_automata.Ts.t -> Dpoaf_automata.Fsa.t -> Domain.profile;
}

val make :
  name:string ->
  make_lexicon:(unit -> Dpoaf_lang.Lexicon.t) ->
  specs:(unit -> (string * Dpoaf_logic.Ltl.t) list) ->
  universal:(unit -> Dpoaf_automata.Ts.t) ->
  t
(** All four entry points share one lexicon and one profile cache;
    [specs] and [universal] are called lazily (first use), so
    constructing the evaluator is free.  [profile_of_controller] is the
    unmemoized path; [profile_of_steps] memoizes it. *)

val memoized : (unit -> 'a) -> unit -> 'a
(** Mutex-guarded lazy memoization — the OCaml 5-safe replacement for a
    bare [Lazy.force] that worker domains may race on. *)
