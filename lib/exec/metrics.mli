(** Process-wide instrumentation: named counters, wall-clock timers,
    log-bucketed latency histograms and pluggable statistic sources,
    surfaced through {!Logs} and as a machine-readable JSON summary.

    All operations are safe to call from any domain: counters are atomic,
    timers and the registry are mutex-protected, histograms carry their own
    mutex.  Names are global — two modules asking for the same counter name
    share the same cell, which is how per-stage totals (responses scored,
    model-checker calls, rollouts run) accumulate across the pipeline.
    Counters, timers, histograms and gauges share one namespace; asking
    for a name under the wrong kind raises an [Invalid_argument] that
    names both the requested and the existing kind. *)

type counter

val counter : string -> counter
(** Intern (or retrieve) the counter with this name.
    @raise Invalid_argument if the name is already registered as a timer or
    histogram. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

(** {1 Gauges}

    A gauge is a level, not an accumulator: queue depth, in-flight
    requests.  Last write wins; sets are lock-free and safe from any
    domain.  A gauge named [n] contributes [n.level] to the summary, and
    {!delta} passes [.level] keys through unchanged (differencing a level
    is meaningless). *)

type gauge

val gauge : string -> gauge
(** Intern (or retrieve) the gauge with this name.
    @raise Invalid_argument if the name is already registered as another
    kind. *)

val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val time : string -> (unit -> 'a) -> 'a
(** [time name f] runs [f] and adds its wall-clock duration to the timer
    [name].  A timer contributes [name.seconds] and [name.calls] to the
    summary.  Re-entrant and domain-safe.
    @raise Invalid_argument if the name is already registered as a counter
    or histogram. *)

(** {1 Histograms}

    Log-bucketed distributions (ten buckets per decade over
    [1e-9, 1e6], an underflow bucket for values [<= 0]): every percentile
    estimate is within a factor of [10^0.1 ≈ 1.26] of the true order
    statistic, and the observed min/max are tracked exactly.  A histogram
    named [n] contributes [n.count], [n.sum], [n.min], [n.max], [n.p50],
    [n.p90] and [n.p99] to the summary. *)

type histogram

val histogram : string -> histogram
(** Intern (or retrieve) the histogram with this name.
    @raise Invalid_argument if the name is already registered as a counter
    or timer. *)

val observe : histogram -> float -> unit
(** Record one observation (typically seconds). *)

val percentile : histogram -> float -> float
(** [percentile h q] with [q ∈ [0,1]]: nearest-rank estimate from the
    buckets, clamped to the observed [[min, max]]; [0.0] when empty. *)

val bucket_base : float
(** The bucket growth factor [10^0.1]: for in-range positive observations,
    [oracle <= percentile h q <= oracle *. bucket_base] where [oracle] is
    the exact nearest-rank order statistic. *)

(** {1 Histogram snapshots}

    A lossless point-in-time export of a histogram: total count, sum, exact
    min/max, and the non-empty buckets as [(lower, upper, count)] triples in
    ascending order.  The underflow bucket (values [<= 0] or below [1e-9])
    reports both bounds as [0.].  Unlike the flat summary keys, a snapshot
    carries enough information to recompute any percentile exactly as the
    live estimator would, and snapshots from different processes can be
    merged. *)

type hist_snapshot = {
  count : int;
  sum : float;
  min : float;
  max : float;
  buckets : (float * float * int) list;
}

val snapshot : histogram -> hist_snapshot
(** Consistent point-in-time export (taken under the histogram's mutex). *)

val histogram_snapshots : unit -> (string * hist_snapshot) list
(** Snapshots of every registered histogram, sorted by name. *)

val snapshot_percentile : hist_snapshot -> float -> float
(** Same nearest-rank estimator as {!percentile}, over the exported
    buckets: for any histogram [h],
    [snapshot_percentile (snapshot h) q = percentile h q]. *)

val merge_snapshots : hist_snapshot -> hist_snapshot -> hist_snapshot
(** Combine two snapshots of the same metric (e.g. from different
    processes): counts add per bucket, bounds are untouched, min/max and
    sum combine.  Merging is commutative, and counts never decrease:
    [merge a b] has [count = a.count + b.count] and every bucket of [a] or
    [b] appears with a count no smaller than it had. *)

val diff_snapshots : hist_snapshot -> hist_snapshot -> hist_snapshot
(** [diff_snapshots newer older] — the observations that landed between
    two snapshots of the {e same} histogram: counts subtract per bucket
    (clamped at zero), [sum] subtracts, and the window's [min]/[max] are
    approximated by the surviving buckets' bounds (the exact extremes of
    an interior window are not recoverable from cumulative state — the
    estimate is within one bucket, i.e. a factor of {!bucket_base}).
    This is what lets a load sweep report per-level percentiles from one
    process-global histogram. *)

val json_of_snapshot : hist_snapshot -> Dpoaf_util.Json.t
(** [{"count":…,"sum":…,"min":…,"max":…,"p50":…,"p90":…,"p99":…,
     "buckets":[[lower,upper,count],…]}] — the percentiles are derived
    (recomputable from the buckets) and ignored by {!snapshot_of_json}. *)

val snapshot_of_json : Dpoaf_util.Json.t -> (hist_snapshot, string) result
(** Strict inverse of {!json_of_snapshot}; the error names the offending
    field.  Counts must be integral and within 2^53 of zero. *)

(** {1 Runtime gauges} *)

val runtime_gauges : unit -> (string * float) list
(** GC and allocator-pressure readings sampled now: [gc.minor_heap_words],
    [gc.minor_collections], [gc.major_collections], [gc.compactions],
    [gc.heap_words], [gc.live_words] and [gc.top_heap_words].  Calls
    [Gc.stat], which triggers a major collection — meant for ops-plane
    queries, not hot paths. *)

(** {1 Summaries} *)

val register_source : string -> (unit -> (string * float) list) -> unit
(** Register a statistics source sampled at summary time; its items are
    prefixed with [name.].  Registering the same name again replaces the
    previous source. *)

val summary : unit -> (string * float) list
(** All metrics (counters, timers, histograms, sources), sorted by name. *)

val delta :
  (string * float) list -> (string * float) list -> (string * float) list
(** [delta before after]: per-key difference of two {!summary} snapshots —
    the scoped alternative to {!reset} for benchmark sections.  Keys absent
    from [before] count from zero; level/order-statistic keys (suffixes
    [.p50]/[.p90]/[.p99]/[.min]/[.max]/[.size]) are passed through as their
    [after] value, since differencing them is meaningless. *)

val report : unit -> unit
(** Log the summary at [App] level via {!Logs}. *)

val to_json : unit -> string
(** The summary as a single-line JSON object.  In addition to the flat
    summary keys, every non-empty histogram [n] contributes an
    [n.buckets] member — an array of [[lower, upper, count]] triples — so
    offline analysis can recompute percentiles exactly rather than relying
    on the pre-baked [p50]/[p90]/[p99]. *)

val json_of_items : (string * float) list -> string
(** Render any summary-shaped item list (e.g. a {!delta}) as JSON. *)

val reset : unit -> unit
(** Zero all counters, timers and histograms (registered sources are
    kept).  Prefer {!delta} snapshots for scoping benchmark sections —
    [reset] destroys process-lifetime totals mid-run. *)
