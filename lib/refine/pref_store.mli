(** Append-only rotating JSONL store of harvested preference pairs.

    Every accepted refinement round emits one
    {!Dpoaf_dpo.Pref_data.harvested} record (format [dpoaf-prefstore/1];
    the record encoding and its strict reader live in
    {!Dpoaf_dpo.Pref_data} so writer and reader cannot drift).  Records
    go through {!Dpoaf_exec.Rotating_jsonl}, the ops journal's writer:
    they reach disk on {!flush} — the daemon flushes once per select
    turn — or synchronously when the ring fills, so no pair is ever
    dropped, and files rotate by size ([path] → [path.1] → … →
    [path.keep]).

    Records carry no timestamp: a store file is a pure function of the
    requests that produced it, byte-comparable across runs.

    Metrics: [prefstore.records], [prefstore.rotations]. *)

type t

val create : ?max_bytes:int -> ?keep:int -> ?ring_capacity:int -> string -> t
(** [create path] with rotation at [max_bytes] (default 1 MiB), [keep]
    shifted generations (default 3) and a [ring_capacity]-record buffer
    (default 256).
    @raise Invalid_argument on a non-positive parameter. *)

val path : t -> string
(** The current-generation file path. *)

val append : t -> Dpoaf_dpo.Pref_data.harvested -> unit
(** Buffer one record (synchronously flushing if the ring is full).
    Thread-safe; a no-op after {!close}. *)

val flush : t -> unit
(** Drain the ring to disk and flush the channel. *)

val close : t -> unit
(** Flush, close the file, and reject further records. *)
