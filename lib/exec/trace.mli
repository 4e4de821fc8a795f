(** Hierarchical span tracing across worker domains.

    A span is a named, timed section of the pipeline (sampling, scoring,
    rollouts, DPO steps…).  Spans nest: the span opened innermost on the
    current domain is the parent of any span opened inside it, and {!Pool}
    propagates the submitting domain's current span into its workers, so a
    batch's per-item spans hang off the span that issued the batch even
    though they run on other domains.

    Tracing is {e off} by default and [with_span] then just runs its thunk
    — instrumented code paths stay effectively free until a [--trace] flag
    calls {!enable}.  Completed spans are buffered per-domain and flushed
    on demand to either of two formats (see [docs/telemetry.md]):
    {ul
    {- {!write_jsonl}: one JSON object per line plus a terminating
       [metrics] line with the {!Metrics} summary — the format read back by
       [dpoaf_cli report];}
    {- {!write_chrome}: Chrome trace-event JSON, loadable in
       [chrome://tracing] and {{:https://ui.perfetto.dev}Perfetto}.}}

    Timestamps are wall-clock ([Unix.gettimeofday]), rebased to the moment
    {!enable} was called and exported in microseconds. *)

type event = {
  id : int;
  parent : int;  (** span id of the enclosing span, [-1] for roots *)
  name : string;
  cat : string;  (** coarse stage category, e.g. ["pipeline"], ["sim"] *)
  tid : int;  (** numeric id of the domain the span ran on *)
  ts_us : float;  (** start, µs since the trace epoch *)
  dur_us : float;
  attrs : (string * string) list;
}

val enable : unit -> unit
(** Start tracing (idempotent); sets the trace epoch on the first call
    only, so spans recorded across a {!disable}/[enable] gap share one
    time base.  {!reset} restarts the epoch. *)

val disable : unit -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Drop all buffered events and restart the epoch. *)

val with_span :
  ?cat:string -> ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span; the event is recorded when
    [f] returns or raises.  When tracing is disabled this is just [f ()]. *)

val instant : ?cat:string -> ?attrs:(string * string) list -> string -> unit
(** Record a zero-duration marker event under the current span. *)

val record_span :
  ?cat:string ->
  ?attrs:(string * string) list ->
  ?parent:int ->
  string ->
  t0:float ->
  t1:float ->
  int
(** [record_span name ~t0 ~t1] records an already-completed span from
    absolute [Unix.gettimeofday] timestamps — for phases measured across
    domains (e.g. a serving request's queue wait, which starts on the
    submitter and ends on a worker) where [with_span] cannot wrap the
    interval.  [parent] defaults to a root span; pass a previously
    returned id to build a phase hierarchy.  Returns the new span id, or
    [-1] when tracing is disabled. *)

val current : unit -> int
(** The innermost open span id on this domain ([-1] if none or disabled) —
    capture before handing work to another domain. *)

val with_parent : int -> (unit -> 'a) -> 'a
(** Run a thunk with the given span id installed as this domain's current
    span — the receiving half of cross-domain propagation. *)

val events : unit -> event list
(** All completed spans so far, across every domain, in timestamp order. *)

val write_jsonl : string -> unit
(** Write the JSONL telemetry file: every span, then one
    [{"type":"metrics","data":{…}}] line with the current {!Metrics}
    summary. *)

val write_chrome : string -> unit
(** Write a Chrome/Perfetto trace-event JSON file. *)

(** {1 Reading traces back} *)

type reader = {
  spans : event list;  (** in timestamp order *)
  metrics : (string * float) list;  (** from the terminating metrics line *)
}

val read_jsonl : string -> reader
(** Parse a file written by {!write_jsonl}.
    @raise Failure naming file and line on malformed input. *)
