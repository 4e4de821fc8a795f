(** The continuous inference-and-verification scheduler.

    Requests enter a bounded admission queue ({!submit} / {!submit_async}
    answer an explicit [Rejected] body when it is full — backpressure is a
    protocol condition, not an unbounded buffer).  [jobs] worker domains
    pop them one at a time, each refilling its in-flight slot the moment
    its previous request completes, so a slow request never holds back
    the queue behind it.  A request whose [deadline_ms] elapses while it
    queues is answered [Expired] at dequeue time and never executed.

    Because the handler must be a pure function of the request (see
    {!Engine}), responses are bit-identical for every [jobs] and arrival
    order — the serving-layer restatement of the PR-1 pool guarantee.

    Instrumentation: counters [serve.accepted/rejected/expired/completed/
    errors], histograms [serve.queue_wait/execute/latency], the
    [serve.queue.depth] and [serve.in_flight] gauges, and per-request
    [serve.request] trace spans with [queue_wait]/[execute] children when
    {!Dpoaf_exec.Trace} is enabled.  When created with a {!Journal}, every
    admission reject ([serve.reject]), deadline expiry ([serve.expire]),
    request completion ([serve.request]) and drain ([serve.drain]) is
    also recorded as a journal event. *)

type config = {
  jobs : int;  (** worker domains, one request in flight each *)
  max_batch : int;  (** ignored; [perfbench/fleet.ml] still sets it *)
  flush_ms : float;  (** ignored; [perfbench/fleet.ml] still sets it *)
  queue_capacity : int;  (** admission bound; beyond it requests reject *)
}

val default_config : config
(** [jobs = 1], [queue_capacity = 256] (and the ignored [max_batch = 32],
    [flush_ms = 5.0]).  Set the live fields with
    [{ default_config with jobs; queue_capacity }]. *)

type t

val create :
  ?config:config ->
  ?batching:[ `Continuous ] ->
  ?label:string ->
  ?journal:Journal.t ->
  handler:(Protocol.request -> Protocol.body) ->
  unit ->
  t
(** Spawn [jobs] worker domains.  [batching] is ignored
    ([perfbench/fleet.ml] still passes it).  [handler] runs on the workers
    and must be safe to call from any domain; exceptions it raises become
    [Failed] bodies.  [journal], when given, receives the serving events
    listed above; the server buffers through the journal's ring and never
    flushes it itself — the owning loop should call {!Journal.flush}
    periodically.

    [label] names this server as one shard of a fleet: the queue-depth
    and in-flight gauges move to [serve.<label>.queue.depth] /
    [serve.<label>.in_flight], an extra [serve.<label>.requests] counter
    counts admissions, and every journal event carries a ["shard"]
    attribute.  The process-wide [serve.*] counters and histograms are
    still fed by every shard, so fleet totals need no aggregation step.
    @raise Invalid_argument on non-positive [jobs]. *)

type ticket
(** A pending (or already answered) request. *)

val submit_async :
  ?on_done:(Protocol.response -> unit) -> t -> Protocol.request -> ticket
(** Non-blocking submission.  If admission rejects, the ticket completes
    immediately with a [Rejected] body.  [on_done] fires exactly once, on
    whichever domain completes the request — it must be thread-safe and
    quick (the daemon uses it to enqueue the wire response). *)

val await : ticket -> Protocol.response
(** Block until the ticket's response is available. *)

val peek : ticket -> Protocol.response option
(** The response if already available, without blocking. *)

val submit : t -> Protocol.request -> Protocol.response
(** [await (submit_async t req)]. *)

val drain : t -> unit
(** Graceful shutdown: stop admitting (subsequent submissions reject with
    "server draining"), finish every queued and in-flight request and
    join the workers.  Idempotent. *)

val config : t -> config
val label : t -> string option
val queue_depth : t -> int

val admitted : t -> int
(** Requests this instance has admitted over its lifetime — instance
    local, unlike the process-wide [serve.accepted] counter that every
    shard feeds. *)

(** {1 Ops plane} *)

type health = {
  queue_depth : int;  (** requests waiting in admission *)
  in_flight_batches : int;
      (** requests currently executing (at most [jobs]); the name is the
          wire member's *)
  draining : bool;
}

val health : t -> health
(** A point-in-time liveness view; safe from any domain and never blocked
    by a backed-up queue. *)
