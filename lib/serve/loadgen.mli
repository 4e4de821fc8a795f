(** Synthetic-traffic client for the serving daemon.

    Replays a seeded mixture of [generate]/[verify]/[score_pair]/[refine]
    requests against a daemon socket at a target rate, {e open-loop}:
    request [i]
    is due at [start + i/rate] whether or not earlier responses have
    arrived, so an overloaded server shows up as rejects, expiries and
    latency growth rather than as silently reduced offered load.

    Latency percentiles come from the [loadgen.latency]
    {!Dpoaf_exec.Metrics} histogram — the report contains no ad-hoc
    timing. *)

type mix = {
  generate : float;
  verify : float;
  score_pair : float;
  refine : float;
}
(** Relative (unnormalised) weights of the four request kinds.  Synthetic
    [refine] requests carry a tight budget (2 rounds × 2 attempts) so one
    stays comparable to a handful of verifies. *)

val default_mix : mix
(** [{generate = 0.3; verify = 0.4; score_pair = 0.3; refine = 0.0}] —
    refine traffic is opt-in. *)

val mix_of_string : string -> (mix, string) result
(** Parse a command-line mix.  The named form
    ["generate=0.2,verify=0.4,refine=0.4"] weighs the listed classes
    (others 0); the legacy positional form ["0.3,0.4,0.3"] maps to
    generate, verify, score_pair.  Strict: an unknown class is an
    [Error] listing the valid ones. *)

type config = {
  socket : string;
  tcp_port : int option;
      (** connect to 127.0.0.1:[port] (TCP_NODELAY) instead of the Unix
          socket — same protocol, same daemon *)
  rate : float;  (** offered load, requests per second *)
  duration_s : float;  (** send window; [rate * duration_s] requests *)
  mix : mix;
  deadline_ms : float option;  (** attached to every request when set *)
  domain : string option;
      (** synthesize traffic from this pack's tasks and tag every request
          with it; [None] targets the server's default pack and leaves the
          wire field out *)
  seed : int;  (** drives the whole traffic stream deterministically *)
}

val default_config : config

type report = {
  sent : int;
  completed : int;  (** responses received (any status) *)
  ok : int;
  rejected : int;
  expired : int;
  errors : int;  (** [status="error"] responses *)
  protocol_errors : int;  (** unparseable response lines *)
  elapsed_s : float;
  achieved_rps : float;  (** completed responses per elapsed second *)
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  latency : Dpoaf_exec.Metrics.hist_snapshot;
      (** this run's latency window: the difference of [loadgen.latency]
          snapshots taken around the run
          ({!Dpoaf_exec.Metrics.diff_snapshots}), so back-to-back runs —
          a sweep's levels — report their own percentiles rather than
          the process-lifetime mixture *)
}

val run : ?capture:(Protocol.response -> unit) -> config -> report
(** Connect, replay the traffic, wait (bounded) for stragglers, report.
    [capture] sees every decoded response as it arrives (on the calling
    domain) — what [loadgen --dump] uses for determinism comparisons.
    @raise Invalid_argument on a non-positive rate/duration or an all-zero
    mix.
    @raise Unix.Unix_error if the endpoint cannot be connected. *)

val print_report : report -> unit
(** One [loadgen: k=v ...] summary line on stdout, for a human at the
    terminal; tools read {!report_json} ([loadgen --out]) instead. *)

val report_json : report -> Dpoaf_util.Json.t
(** The report as JSON ([{"schema":"dpoaf-loadgen/1",...}]): every counter
    and percentile from the flat report plus [latency_s] — the run's
    latency-window snapshot with per-bucket bounds and counts
    ({!Dpoaf_exec.Metrics.json_of_snapshot}), so offline analysis can
    recompute percentiles exactly.  What [dpoaf_cli loadgen --out]
    writes. *)

(** {1 Saturation sweep}

    Closed-loop knee finding: step the offered rate from [start_rps] by
    [step_rps] up to [max_rps], measuring one open-loop run per level,
    and stop at the first level the server fails to sustain.  A level is
    {e sustained} when every request came back [ok] (no rejects,
    expiries, errors or losses) with p99 latency within the budget; the
    knee is the last sustained level. *)

type sweep = { start_rps : float; step_rps : float; max_rps : float }

val sweep_of_string : string -> (sweep, string) result
(** Parse the command-line form ["START:STEP:MAX"] (requests per second).
    Strict: all three bounds must parse, [START] and [STEP] positive,
    [MAX >= START]. *)

type level = {
  offered_rps : float;
  sustained : bool;
  level_report : report;  (** the level's own latency window *)
}

type sweep_report = {
  levels : level list;
      (** in offered-rate order; ends with the first unsustained level
          (or the last level if all sustained) *)
  p99_budget_ms : float;
  knee_offered_rps : float;  (** highest sustained offered rate; 0 if
      even the first level failed *)
  max_rps_at_p99 : float;
      (** achieved (completed) rps at the knee level; 0 if no level
          sustained *)
}

val run_sweep :
  ?progress:(level -> unit) ->
  config ->
  sweep:sweep ->
  p99_budget_ms:float ->
  sweep_report
(** Run the sweep; [config.rate] is ignored (each level sets its own).
    [progress] fires after each level completes.
    @raise Invalid_argument on a non-positive budget (and as {!run} for
    the per-level runs). *)

val print_level : level -> unit
val print_sweep_report : sweep_report -> unit

val sweep_report_json : sweep_report -> Dpoaf_util.Json.t
(** [{"schema":"dpoaf-loadgen/1","mode":"sweep",...}] with one row per
    level (every flat-report field plus [offered_rps]/[sustained]) and
    the knee summary — what [dpoaf_cli loadgen --sweep --out] writes. *)
