(** Rotating JSONL event journal with a bounded in-memory ring.

    The daemon's ops plane records serving events — request spans,
    admission rejects, deadline expiries, batch coalesces, checkpoint
    loads, drains — as one JSON object per line:

    {v {"ts":<unix seconds>,"ev":"<event name>",...attributes} v}

    Buffering, rotation and the never-drop guarantee are
    {!Dpoaf_exec.Rotating_jsonl}'s: {!emit} is safe from any domain, and
    the owning loop (the daemon's select loop) calls {!flush} once per
    turn. *)

type t

val create : ?max_bytes:int -> ?keep:int -> ?ring_capacity:int -> string -> t
(** [create path] opens (or appends to) the journal at [path].
    [max_bytes] (default 1 MiB) caps each file; [keep] (default 3) is the
    number of rotated generations retained; [ring_capacity] (default 1024)
    bounds the in-memory ring.  Interns the [journal.events] and
    [journal.rotations] counters.
    @raise Invalid_argument if any parameter is < 1. *)

val emit : t -> string -> (string * Dpoaf_util.Json.t) list -> unit
(** [emit t ev attrs] records an event.  Timestamped now; attributes are
    appended after the ["ts"] and ["ev"] members.  No-op after {!close}. *)

val flush : t -> unit
(** Drain the ring to disk and flush the channel. *)

val close : t -> unit
(** Flush and close.  Subsequent {!emit}/{!flush} calls are no-ops. *)

val path : t -> string
(** The journal's current-generation file path. *)
