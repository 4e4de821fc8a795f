(** A rotating JSONL writer with a bounded in-memory ring, shared by the
    serving journal and the preference store.

    {!push} is safe from any domain and never drops a record: it buffers
    into a ring under a mutex and, if the ring is full, flushes
    synchronously.  The owning loop calls {!flush} once per turn, so
    steady-state writers never touch the filesystem from worker domains.

    Files rotate by size: when a write would push the current file past
    [max_bytes], generations shift [path → path.1 → … → path.keep] and the
    oldest is dropped, bounding the footprint at about
    [(keep + 1) * max_bytes].  Each file stays within [max_bytes] unless a
    single line exceeds the cap on its own. *)

type 'a t

val create :
  who:string ->
  encode:('a -> string) ->
  records:Metrics.counter ->
  rotations:Metrics.counter ->
  ?max_bytes:int ->
  ?keep:int ->
  ring_capacity:int ->
  string ->
  'a t
(** [create ~who ~encode ~records ~rotations path] opens (or appends to)
    the file at [path]; [encode] renders one record as one line (without
    the newline).  [records] counts pushed records and [rotations]
    rotations.  [max_bytes] defaults to 1 MiB, [keep] to 3.
    @raise Invalid_argument, prefixed by [who], if any size is < 1. *)

val push : 'a t -> (unit -> 'a) -> unit
(** Buffer one record.  The thunk runs under the writer's lock, so
    records that read a clock are stamped in file order.  No-op after
    {!close}. *)

val flush : 'a t -> unit
(** Drain the ring to disk and flush the channel. *)

val close : 'a t -> unit
(** Flush and close.  Subsequent {!push}/{!flush} calls are no-ops. *)

val path : 'a t -> string
(** The current-generation file path. *)
