(** Deterministic domain-parallel scheduling.

    A fixed-size worker pool over OCaml 5 domains.  [parallel_map] and
    [parallel_mapi] preserve input order — results are slotted by input
    index — so for pure per-item functions the output is {e identical} for
    every worker count.  Combined with pre-splitting RNG streams before a
    parallel region (see {!Dpoaf_util.Rng.split}), every figure in the
    reproduction stays bit-for-bit identical between [--jobs 1] and
    [--jobs N].

    With [jobs = 1] no domains are spawned and everything runs sequentially
    in the caller; a call issued from inside a worker also falls back to
    sequential execution instead of deadlocking the pool.

    If any per-item computation raises, the batch still completes and the
    exception of the {e lowest-indexed} failing item is re-raised in the
    caller (with its backtrace) — deterministic error reporting.

    When {!Trace} is enabled, the submitting domain's innermost open span
    is captured at batch submission and installed around every task, so
    spans recorded inside workers are parented under the span that issued
    the batch. *)

type t

val create : jobs:int -> t
(** Spawn a pool with [jobs] execution slots ([jobs - 1] worker domains;
    the submitting domain participates in its own batches).
    @raise Invalid_argument if [jobs < 1]. *)

val jobs : t -> int

val shutdown : t -> unit
(** Join all workers.  Idempotent; subsequent batch submissions raise. *)

val map_on_pool : t -> ('a -> 'b) -> 'a list -> 'b list
(** {1 Shared default pool}

    Library code takes an optional [?jobs] argument and defaults to the
    process-wide setting, so a single [--jobs N] flag threads through the
    whole pipeline. *)

val set_default_jobs : int -> unit
(** Set the process-wide default worker count (initially 1).  Replaces the
    shared pool on the next use if the size changed. *)

val default_jobs : unit -> int

val parallel_map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [parallel_map ?jobs f xs] is [List.map f xs] computed on [jobs] slots
    (default: the shared pool).  Order-preserving; see the module docs for
    determinism and exception semantics. *)

val parallel_mapi : ?jobs:int -> (int -> 'a -> 'b) -> 'a list -> 'b list
