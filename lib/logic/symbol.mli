(** Symbols are sets of atomic propositions.

    A symbol [σ ∈ 2^P] is the set of atomic propositions that evaluate to
    true at an instant, as in the paper's definition of model output symbols
    and controller input symbols. *)

include Set.S with type elt = string

val of_atoms : string list -> t
(** Symbol from a list of atom names. *)

val pp : Format.formatter -> t -> unit
(** Renders as [{a, b}]; the empty symbol renders as [{}]. *)

val to_string : t -> string
