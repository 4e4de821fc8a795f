(** Per-request execution of the serving API.

    [handle] maps one {!Protocol.request} to its {!Protocol.body} by
    reusing the batch pipeline's stages: [generate] samples a
    grammar-constrained response from the language model (seeded per
    request, so the reply is deterministic); [verify] compiles the steps
    with GLM2FSA and model-checks the domain's rule book (memoized
    through {!Dpoaf_exec.Cache}, vacuity-aware via the profile's
    [vacuous] set); [score_pair] verifies both sides and emits the
    paper's automated-feedback preference with its formal justification;
    [refine] runs the {!Dpoaf_refine.Refine} counterexample-guided repair
    loop, reusing the pack's prompt-state cache for the feedback-extended
    prompts and memoizing explanation rendering per (spec, lasso) in a
    [refine.explain.<domain>] cache.  When the engine was created with a
    [pref_store], every accepted repair round appends one
    (original, repaired) preference pair with full per-spec provenance;
    with a [journal], every round emits a [serve.refine_round] event.

    One engine can serve several domain packs at once; a request selects
    its pack via the protocol's optional [domain] field (default: the
    engine's first pack).  Each pack keeps its own corpus, sampling
    snapshot, prompt-state cache ([serve.prompt_state.<domain>]) and
    request counter ([serve.requests.<domain>]).

    Replies to the execution kinds depend only on request contents — never
    on arrival order, shard or worker count — which is what lets
    {!Server} parallelize freely while staying bit-deterministic.  The ops
    kinds ([stats], [health]) are exempt from that contract: they report
    live state by design.  Domain errors (unknown task, unknown scenario,
    unserved domain, missing model) come back as {!Protocol.Failed}
    bodies, not exceptions. *)

type t

val create :
  ?lm:Dpoaf_lm.Model.t ->
  ?journal:Journal.t ->
  ?pref_store:Dpoaf_refine.Pref_store.t ->
  ?tag:string ->
  ?prompt_cache_capacity:int ->
  corpus:Dpoaf_pipeline.Corpus.t ->
  unit ->
  t
(** Single-domain engine for the corpus's pack.  Captures a sampling
    snapshot of [lm] (omit it to serve verification only: [generate] and
    [refine] requests then fail gracefully) and pre-builds the shared
    lexicon and world models so pool workers never race on first-use
    initialization.  [journal] receives [serve.refine_round] events;
    [pref_store] receives one harvested pair per accepted repair.

    [tag] marks the engine as one replica of a sharded fleet: its
    prompt-state and explanation caches register under
    [serve.<tag>.prompt_state.<domain>] / [refine.<tag>.explain.<domain>]
    so each shard's hit rate is individually visible (two caches under
    one metric name would shadow each other), while the per-domain
    request counters keep the untagged shared cell so fleet totals need
    no aggregation.  [prompt_cache_capacity] (default 256) bounds each
    pack's prompt-state LRU — the per-replica analogue of a KV-cache
    budget: with prompt-affinity routing, a small capacity stays hot on a
    shard's slice of the task set where a single replica would thrash. *)

val create_multi :
  ?journal:Journal.t ->
  ?pref_store:Dpoaf_refine.Pref_store.t ->
  ?tag:string ->
  ?prompt_cache_capacity:int ->
  (Dpoaf_lm.Model.t option * Dpoaf_pipeline.Corpus.t) list ->
  t
(** Multi-domain engine; the first pack is the default for requests
    without a [domain] field.  [journal]/[pref_store] are shared across
    packs (records carry the domain name); [tag] and
    [prompt_cache_capacity] apply to every pack as in {!create}.
    @raise Invalid_argument on an empty list or duplicate domains. *)

val domains : t -> string list
(** Served domain names, default first. *)

val handle : t -> Protocol.request -> Protocol.body
(** Execute one request.  Safe to call concurrently from any domain. *)

(** {1 Ops plane} *)

val stats_body : t -> domain:string option -> Protocol.body
(** Live {!Protocol.Stats_report}: the {!Dpoaf_exec.Metrics} summary and
    full histogram snapshots (with bucket bounds), plus
    {!Dpoaf_exec.Metrics.runtime_gauges}.  A [domain] tag hides the other
    packs' per-domain twins ([serve.requests.<d>],
    [serve.prompt_state.<d>.*]) while keeping the shared serving metrics;
    an unserved domain yields {!Protocol.Failed} with the valid names. *)

val request_counts :
  t -> domain:string option -> ((string * int) list, string) result
(** Per-domain request counters ([serve.requests.<d>] values), optionally
    restricted to one domain.  [Error] names the valid domains when the
    requested one is not served. *)
