(** Prompt-affinity routing over a fleet of {!Server} replicas.

    Execution requests hash to a shard by their prompt identity — the
    (domain, task) pair for [generate]/[refine], the (domain, steps)
    text for [verify]/[score_pair] — so repeated prompts keep hitting
    the same replica's prompt-state cache and the fleet's aggregate
    cache capacity grows with the shard count.  The hash is FNV-1a/64
    over the key string: stable across runs, processes and OCaml
    versions, never [Hashtbl.hash].

    Routing never changes replies.  Every {!Engine} handler is a pure
    function of the request, so any shard count returns bit-identical
    bodies — sharding moves only cache temperature and queueing. *)

type t

val create : Server.t array -> t
(** Wrap an existing (non-empty) replica array.  The router takes no
    ownership beyond {!drain}; build each replica with its own tagged
    {!Engine} so per-shard cache metrics stay distinguishable.
    @raise Invalid_argument on an empty array. *)

val shard_for : shards:int -> Protocol.request -> int
(** The pure routing function: which of [shards] replicas handles this
    request.  Deterministic — equal prompt identity means equal shard —
    and total: ops verbs ([stats]/[health]) route to shard [0].
    @raise Invalid_argument if [shards < 1]. *)

val shard_key : Protocol.request -> string option
(** The prompt-identity string {!shard_for} hashes; [None] for the ops
    verbs.  [generate] and [refine] of the same task share a key — both
    fold the same task prompt, so they must share a cache. *)

val shard_name : int -> string
(** The conventional label for replica [i]: ["shard<i>"].  Shared by the
    CLI and benchmarks so per-shard metric names and health rows agree
    everywhere a fleet is built. *)

val server : t -> int -> Server.t
(** The [i]-th replica (0-based). *)

val route : t -> Protocol.request -> Server.t
(** The replica {!submit} would use. *)

val submit_async :
  ?on_done:(Protocol.response -> unit) -> t -> Protocol.request ->
  Server.ticket
(** Route, then {!Server.submit_async} on the chosen replica; admission
    rejects (that shard's queue is full) surface exactly as they do on a
    single server. *)

val submit : t -> Protocol.request -> Protocol.response

val health : t -> Server.health
(** Aggregate view: queue depths and in-flight counts summed, draining
    if any replica is. *)

val shard_healths : t -> Protocol.shard_health list
(** Per-shard breakdown in shard order, using each replica's
    {!Server.label} (falling back to ["shard<i>"]) as the name. *)

val health_report : t -> domains:(string * int) list -> Protocol.body
(** The [health] verb's answer for this fleet: the {!health} aggregate,
    the given per-domain request counters, and the {!shard_healths} rows
    when there is more than one shard. *)

val drain : t -> unit
(** {!Server.drain} every replica, in shard order. *)
