(** Model (de)serialization.

    Checkpoints open with a fixed 8-byte magic string and a binary version
    word, followed by a marshalled blob holding the configuration,
    vocabulary and all parameter tensors.  {!load} validates the header
    before touching the payload and raises {!Corrupt} with the offending
    path and a precise reason — wrong magic (not a checkpoint at all),
    version skew (expected vs found), truncation, or a tensor-shape
    mismatch — so a daemon failing at startup says exactly what to fix. *)

exception Corrupt of { path : string; reason : string }

val version : int
(** The checkpoint format version this build reads and writes. *)

val save : Model.t -> string -> unit
(** Write to a file path: the checkpoint goes to [path ^ ".tmp"] first and
    is renamed over [path], so a crash mid-save leaves the previous file at
    [path] intact.  On failure the temporary file is removed and the
    exception re-raised. *)

val load : string -> Model.t
(** @raise Corrupt on unreadable, malformed, truncated or
    version-mismatched files; the message names the path and the expected
    vs found magic/version. *)
