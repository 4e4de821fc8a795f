(** Automated verification feedback with memoization and provenance.

    Scoring a response means: decode tokens to steps, align and compile
    with GLM2FSA, implement in the world model, count satisfied
    specifications (§4.2).  Distinct responses recur constantly across
    sampling rounds and checkpoints, so verdicts are cached by
    (task, tokens) — and the cached value is the full {e profile} (which
    of the rule book's specifications were satisfied and which violated),
    not just the count, so every preference pair can be explained after
    the fact.

    Telemetry: each scoring request runs inside a [feedback.score] span
    (when {!Dpoaf_exec.Trace} is enabled), actual verification work (cache
    misses) feeds the [feedback.score] latency histogram plus its
    per-domain twin [feedback.score.<domain>], and every violated
    specification bumps both [feedback.violations.<spec>] and
    [feedback.violations.<domain>.<spec>] — the sources of the
    spec-violation tables in [dpoaf_cli report]. *)

type t

type profile = Dpoaf_domain.Domain.profile = {
  satisfied : string list;
  violated : string list;
  vacuous : string list;
}
(** The pack's profile ({!Dpoaf_domain.Domain.profile}), re-exported so
    field access reads [p.Feedback.satisfied]: which of the domain's
    specifications a response's controller satisfied. *)

val create :
  ?model:Dpoaf_automata.Ts.t -> ?domain:Dpoaf_domain.Domain.t -> unit -> t
(** [domain] defaults to the driving pack; [model] defaults to the
    domain's universal model (the paper integrates all scenario models
    for verification). *)

val domain : t -> Dpoaf_domain.Domain.t

val score_steps : t -> task_id:string -> string list -> int
(** Number of the domain's specifications satisfied by the steps'
    controller. *)

val profile_tokens : t -> corpus:Corpus.t -> Corpus.task_setup -> int list -> profile
(** Verify a token-level response and return its full spec profile
    (cached). *)

val profile_tokens_hardened :
  t -> corpus:Corpus.t -> Corpus.task_setup -> int list -> profile
(** Profile after specification-guided repair ({!Dpoaf_lang.Repair.harden})
    of the response's clauses — the post-hoc hardening baseline. *)

val score_tokens : t -> corpus:Corpus.t -> Corpus.task_setup -> int list -> int
(** [List.length (profile_tokens …).satisfied] — same cached path. *)

val score_tokens_hardened :
  t -> corpus:Corpus.t -> Corpus.task_setup -> int list -> int

val cache_stats : t -> Dpoaf_exec.Cache.stats
(** Hits, misses, evictions and current size of the verification cache —
    for reporting verification cost.  The cache is the shared
    {!Dpoaf_exec.Cache}, so scoring is safe from any worker domain. *)
