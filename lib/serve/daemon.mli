(** The serving daemon: NDJSON over a Unix domain socket, with an
    optional TCP listener speaking the identical protocol.

    A single [Unix.select] event loop accepts connections (from either
    transport) and reads one {!Protocol} request per line; execution
    happens on the {!Router}'s replica servers, whose completion
    callbacks encode the response line into the owning connection's outbox
    and write a byte down a self-pipe so the loop wakes immediately.
    Because completions and {!request_stop} wake the loop themselves, the
    select timeout is adaptive: an idle daemon blocks for 0.25 s (when a
    journal or preference store needs its once-per-turn flush) or 5 s
    (when not) instead of polling at 200 Hz.  Clients may pipeline:
    responses carry the request id and may arrive out of order relative
    to submission.

    Malformed lines are answered with a [status="error"] response (empty
    id) and counted in [serve.protocol_errors] — the connection stays
    usable.  A line longer than {!max_line_bytes} is answered the same
    way, and then that connection is closed.  Responses are encoded
    straight into the connection's outbox; a partial write advances an
    offset into the batch being written, and a connection that leaves
    more than {!max_outbox_bytes} unread is closed.

    The ops verbs ([stats]/[health]) are answered synchronously from the
    event loop, ahead of every shard's admission queue: a daemon whose
    queues are full or whose workers are saturated still answers them on
    the next loop turn. *)

type ops = {
  stats : domain:string option -> Protocol.body;
      (** typically {!Engine.stats_body} *)
  health : domain:string option -> Protocol.body;
      (** typically {!Router.health} + {!Router.shard_healths} +
          {!Engine.request_counts} *)
}
(** How the daemon answers the ops verbs.  When omitted, {!run} falls
    back to the global metrics registry and the router's queue view
    (including per-shard rows when sharded), and refuses domain-tagged
    queries (it has no domain registry to validate them against). *)

type stats = {
  connections : int;  (** connections accepted over the daemon's life *)
  requests : int;  (** non-blank lines received (including malformed) *)
  responses : int;  (** response lines enqueued for writing *)
  protocol_errors : int;  (** lines that failed to parse as requests *)
  outbox_overflows : int;
      (** connections closed because they left more than
          {!max_outbox_bytes} of responses unread *)
}

val max_line_bytes : int
(** The longest request line a connection may send (1 MiB), newline
    excluded. *)

val max_outbox_bytes : int
(** The most response bytes a connection may leave queued and unread
    (4 MiB), besides the batch the loop is writing.  A connection past it
    is closed, its later responses are dropped, and it is counted in
    [serve.outbox_overflows] and {!stats}[.outbox_overflows]. *)

val run :
  socket:string ->
  ?tcp_port:int ->
  ?on_tcp_listen:(int -> unit) ->
  router:Router.t ->
  ?ops:ops ->
  ?journal:Journal.t ->
  ?pref_store:Dpoaf_refine.Pref_store.t ->
  unit ->
  stats
(** Bind [socket] (an existing file is replaced) and, when [tcp_port] is
    given, a loopback TCP listener on that port ([0] picks an ephemeral
    port; [on_tcp_listen] receives the bound port either way).  Serve
    until SIGINT or SIGTERM (or {!request_stop}), then drain every shard
    gracefully — every admitted request is answered and flushed before
    the socket file is removed.  Blocks the calling domain for the
    daemon's lifetime.  SIGPIPE is ignored process-wide, so a client that
    hangs up with responses outstanding is dropped, not fatal.

    [journal], when given, records [daemon.start]/[daemon.stop], one
    [serve.shard.up] per replica at startup, and per-line
    [daemon.protocol_error] events, and is flushed once per loop turn
    (pass the same journal to each {!Server} to capture the serving
    events too).  [pref_store], when given, is likewise flushed once per
    loop turn and at shutdown, so harvested pairs emitted by worker
    domains reach disk without the hot path blocking on the filesystem
    (pass the same store to {!Engine.create} to harvest).  The daemon
    closes neither — the owner does. *)

val request_stop : unit -> unit
(** Ask a running {!run} loop to shut down — what the signal handlers
    call (it also wakes a blocked select, so a stop requested from
    another domain takes effect immediately); exposed for tests. *)
