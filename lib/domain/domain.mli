(** The domain abstraction: one use case of the DPO-AF pipeline
    (vocabulary, tasks, rule book, world models, response pools,
    verification entry points) as a first-class module.

    A {e pack} implements {!S} and registers itself under a unique name
    ({!Registry}); every consumer — corpus construction, verification
    feedback, the simulator, the serving engine, the CLI — is written
    against this interface, so a new use case is one new pack, not a
    cross-cutting change. *)

type split = Training | Validation

type task = {
  id : string;
  prompt : string;  (** e.g. "turn right at the traffic light" *)
  scenario : string;  (** a member of the domain's {!S.scenarios} *)
  split : split;
}

type quality = Good | Risky | Bad

type step = { text : string; quality : quality }

type profile = {
  satisfied : string list;  (** spec names, in rule-book order *)
  violated : string list;  (** the complementary names, same order *)
  vacuous : string list;
      (** subset of [satisfied] holding only vacuously (the antecedent
          never triggers in the product, {!Dpoaf_analysis.Vacuity}) *)
}
(** Which of the rule book's specifications a response's controller
    satisfies.  Invariant: [satisfied] and [violated] partition the rule
    book, so [List.length satisfied] is the response's score;
    [vacuous ⊆ satisfied].  The one profile record of the repository:
    feedback, refinement and serving all read it. *)

module type S = sig
  val name : string
  (** Unique registry key, also the CLI [--domain] value. *)

  val propositions : string list
  (** What the agent perceives (world-model state labels). *)

  val actions : string list
  (** Control outputs.  Must include {!Dpoaf_lang.Glm2fsa.stop_action}:
      controllers emit it while observing or waiting. *)

  val lexicon : unit -> Dpoaf_lang.Lexicon.t
  (** The alignment lexicon (memoized; safe from any domain). *)

  val tasks : task list

  val specs : unit -> (string * Dpoaf_logic.Ltl.t) list
  (** The LTL rule book, in a fixed order.  Generated suites
      ({!Spec_gen}) raise {!Spec_gen.Rejected} here if the sanity gates
      fail — a pack with a broken suite is unusable, not silently
      degraded. *)

  val scenarios : string list
  (** World-model family names, e.g. ["traffic_light"]. *)

  val model : string -> Dpoaf_automata.Ts.t option
  (** Scenario name → its environment-dynamics model (memoized);
      [None] for unknown names. *)

  val universal : unit -> Dpoaf_automata.Ts.t
  (** Union of all scenario models — the verification default. *)

  val observations : task -> step list
  (** Observation / wait steps (quality {!Good}). *)

  val finals : task -> step list
  (** Action-bearing steps that can complete the task, tagged by
      quality — the response space the synthetic corpus samples. *)

  val demo_responses : (string * string list) list
  (** Named canonical responses (worked examples) used by
      [dpoaf_cli analyze] and the smoke gates. *)

  val controller_of_steps :
    name:string ->
    string list ->
    Dpoaf_automata.Fsa.t * Dpoaf_lang.Step_parser.stats
  (** Parse and compile a response with the domain lexicon (GLM2FSA). *)

  val profile_of_steps :
    ?model:Dpoaf_automata.Ts.t -> string list -> profile
  (** Parse, compile, verify and vacuity-check in one memoized call;
      [model] defaults to {!universal}.  Every pack builds this through
      {!Eval.make}. *)

  val profile_of_controller :
    ?model:Dpoaf_automata.Ts.t -> Dpoaf_automata.Fsa.t -> profile
end

type t = (module S)

val name : t -> string
val tasks : t -> task list

val spec_names : t -> string list
(** Rule-book names in spec order (forces suite generation). *)

val spec_count : t -> int

val query_text : task -> string
(** The first-stage prompt sent to the language model:
    ["Steps for \"<prompt>\""]. *)

val candidate_steps : t -> task -> string list
(** All step texts for the task (observations then finals). *)

val find_task : t -> string -> task option

val find_task_exn : t -> string -> task
(** @raise Failure with the valid task-id list for unknown ids. *)

val counterexamples :
  t ->
  ?model:Dpoaf_automata.Ts.t ->
  ?only:string list ->
  string list ->
  (string * Dpoaf_logic.Ltl.t * Dpoaf_automata.Model_checker.counterexample)
  list
(** Compile the response once and model-check the rule book's specs
    named in [only] (default: all of them) on one product; one
    [(name, formula, lasso)] per failing spec, in rule-book order
    ([model] defaults to the universal one).  [~only:[]] checks nothing
    and builds nothing. *)

val explain_steps :
  t ->
  ?model:Dpoaf_automata.Ts.t ->
  ?only:string list ->
  string list ->
  Dpoaf_analysis.Explain.t list
(** One replay-validated counterexample explanation per violated
    specification of the response named in [only] (default: all), in
    rule-book order — {!counterexamples}, rendered.  A cold path — no
    memoization: callers (serving [explain:true], provenance for pair
    losers, [dpoaf_cli analyze --explain]) ask for explanations far more
    rarely than for profiles. *)

val model_of_scenario :
  t -> string option -> (Dpoaf_automata.Ts.t, string) result
(** [None] or [Some "universal"] → the universal model; otherwise the
    named scenario's model, or [Error] listing the valid names. *)
