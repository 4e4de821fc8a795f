(** Prefix-trie grammar for constrained decoding.

    A grammar is built from a clause library (the candidate instruction
    steps for one task).  A well-formed response is
    [clause (<sep> clause)* <eos>]: the decoder walks the trie within a
    clause, and at a completed clause may emit [<sep>] (start another
    clause) or [<eos>] (finish, once at least [min_clauses] clauses are
    done).  Every sampled response therefore parses, while all semantic
    choice — which guards, which actions, which order — carries the
    language model's probability mass. *)

type t

type state

val of_clauses : Vocab.t -> string list -> t
(** @raise Invalid_argument on an empty clause list or clauses with no
    in-vocabulary words. *)

val start : t -> state

val allowed : t -> min_clauses:int -> max_clauses:int -> state -> int list
(** Token ids permitted next (never empty for a reachable state). *)

val advance : t -> state -> int -> state option
(** [None] if the token is not allowed in this state. *)

val is_final : t -> state -> bool
(** True once [<eos>] has been consumed. *)

val tokens_of_steps : Vocab.t -> string list -> int list
(** Encode a full response (steps joined with [<sep>], ending in [<eos>]).
    This is the token sequence whose probability the model assigns to the
    response. *)

val steps_of_tokens : Vocab.t -> int list -> string list
(** Inverse of {!tokens_of_steps} up to tokenization. *)

val accepts : t -> min_clauses:int -> max_clauses:int -> int list -> bool
(** Whether a token sequence is generable by the grammar. *)
