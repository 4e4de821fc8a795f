(** Counterexample-guided inference-time refinement (ROADMAP item 4).

    The loop repairs a generated response without touching weights:
    verify, translate each violated specification's lasso through
    {!Dpoaf_analysis.Explain} into replay-validated feedback sentences,
    re-sample a candidate conditioned on that feedback, re-verify, and
    iterate under an explicit {!budget}.

    Acceptance is {e monotone}: a round's best candidate (fewest violated
    specifications; ties broken by the larger satisfied margin, then the
    earliest attempt) replaces the current best only when its
    violated-spec count strictly shrinks, so violated counts along any
    accepted trajectory strictly decrease.  Without a deadline the loop
    is a deterministic function of (response, seed, budget); the optional
    per-round deadline only stops {e further} rounds and never picks
    between candidates, so it cannot corrupt a trajectory, only truncate
    it. *)

type profile = Dpoaf_domain.Domain.profile = {
  satisfied : string list;
  violated : string list;  (** rule-book order *)
  vacuous : string list;
}
(** The pack's profile, re-exported for field access. *)

type budget = {
  max_rounds : int;
  attempts : int;  (** candidates sampled per round *)
  round_deadline_ms : float option;
      (** wall-clock allowance per round; a round that overruns it is the
          last (checked after the round completes — truncation only) *)
}

val default_budget : budget
(** [{max_rounds = 3; attempts = 4; round_deadline_ms = None}]. *)

type round = {
  index : int;  (** 1-based *)
  feedback : (string * string) list;
      (** the [(spec, text)] explanations that conditioned this round's
          re-sampling — the current best's violated lassos, rendered *)
  candidate : string list;  (** the round's best candidate *)
  candidate_profile : profile;
  accepted : bool;
  margin : int;
      (** violated-spec count removed by the candidate relative to the
          round's incumbent; positive iff [accepted] *)
  round_ms : float;
      (** wall time of the round — telemetry only, never part of the
          deterministic wire encoding *)
}

type status = Clean | Improved | Unchanged

val status_name : status -> string
(** ["clean"] / ["improved"] / ["unchanged"]. *)

type outcome = {
  original : string list;
  original_profile : profile;
  final : string list;  (** the last accepted candidate (or the original) *)
  final_profile : profile;
  rounds : round list;  (** in round order *)
  status : status;
  deadline_hit : bool;
}

type explain_key = string * string list list * string list list
(** (spec name, prefix symbols, cycle symbols) — symbol sets
    canonicalized to their sorted element lists so structurally different
    trees of equal sets key identically. *)

type explain_cache = (explain_key, string option) Dpoaf_exec.Cache.t

val explain_cache : name:string -> explain_cache
(** A bounded (512-entry LRU) rendering cache registering
    [cache.<name>.{hits,misses,...}] metrics; share one per domain so
    repeated rounds over an unchanged lasso hit instead of re-rendering. *)

type sample_fn =
  feedback:(string * string) list -> round:int -> attempt:int -> string list
(** Re-sample one candidate conditioned on the feedback sentences.  Must
    be deterministic in its arguments for the loop's determinism
    contract to hold. *)

type t

val create :
  domain:Dpoaf_domain.Domain.t ->
  ?model:Dpoaf_automata.Ts.t ->
  ?cache:explain_cache ->
  sample:sample_fn ->
  unit ->
  t
(** A refiner for one domain pack.  [model] defaults to the pack's
    universal world model; [cache] defaults to a fresh
    [refine.explain.<domain>] cache (pass a shared one to keep hits
    across refiner instances). *)

val profile : t -> string list -> profile
(** Verify a response (memoized through the domain pack). *)

val explanations : t -> violated:string list -> string list -> (string * string) list
(** The [(spec, text)] feedback for the named violated specs of a
    response: {!Dpoaf_domain.Domain.counterexamples} [~only:violated]
    (the compile-and-check behind
    {!Dpoaf_domain.Domain.explain_steps}), with the rendering memoized
    per (spec, lasso) in the refiner's {!explain_cache}.  Specs whose
    explanation fails replay validation are omitted — the loop never
    steers on a lying sentence. *)

val run : ?budget:budget -> t -> string list -> outcome
(** Refine one response.  A response that already verifies clean returns
    with [status = Clean] and no rounds.
    @raise Invalid_argument on a non-positive budget field. *)

(** {1 Conditioned re-sampling} *)

val derive_seed : seed:int -> round:int -> attempt:int -> int
(** The per-candidate sampling seed — a pure mix of the request seed with
    the (round, attempt) coordinates, so every candidate draws from its
    own deterministic stream. *)

val conditioned_sampler :
  snapshot:Dpoaf_lm.Sampler.snapshot ->
  encode:(string -> int list) ->
  decode:(int list -> string list) ->
  prompt:int list ->
  grammar:Dpoaf_lm.Grammar.t ->
  min_clauses:int ->
  max_clauses:int ->
  ?temperature:float ->
  ?prompt_cache:(int list, Dpoaf_lm.Sampler.state) Dpoaf_exec.Cache.t ->
  ?sep:int ->
  seed:int ->
  unit ->
  sample_fn
(** A {!sample_fn} over the language model: builds the revision prompt
    (the original prompt followed by each feedback sentence's encoding,
    separated by [sep] when given; out-of-vocabulary feedback words encode
    as [<unk>]), folds it into a decoding state (through
    [prompt_cache] when given — the serving engine passes its
    [serve.prompt_state.<domain>] cache so repeated feedback prompts skip
    the fold), and grammar-decodes with the {!derive_seed} stream. *)

(** {1 Seeded repairable defects} *)

val defect_pool :
  ?model:Dpoaf_automata.Ts.t ->
  Dpoaf_domain.Domain.t ->
  seed:int ->
  per_task:int ->
  (Dpoaf_domain.Domain.task * string list) list
(** A deterministic pool of defective responses — 1–2 careless
    (non-[Good]) final steps per response, no observations — filtered to
    those actually violating at least one specification under [model]
    (default: universal).  The raw material for the repair benchmarks,
    tests and [make daemon-check]. *)
