(** Word-level vocabulary with the special tokens used by the decoder.

    Tokens: lowercase words (punctuation stripped); [<bos>] starts every
    sequence, [<sep>] separates instruction steps, [<eos>] terminates a
    response, [<unk>] covers out-of-vocabulary words. *)

type t

val of_texts : string list -> t
(** Vocabulary from the words of whole phrases/sentences. *)

val size : t -> int
val bos : t -> int
val sep : t -> int
val eos : t -> int
val unk : t -> int

val id : t -> string -> int
(** [unk] for unknown words. *)

val word : t -> int -> string
(** @raise Invalid_argument when out of range. *)

val mem : t -> string -> bool

val encode : t -> string -> int list
(** Tokenize a phrase (no specials added). *)

val decode : t -> int list -> string
(** Words joined by spaces; special tokens rendered as [<bos>] etc. *)

val export : t -> string list
(** The exact token array (specials included), for checkpointing. *)

val import : string list -> t
(** Rebuild from {!export} output, preserving ids.
    @raise Invalid_argument when the special tokens are not in place. *)
