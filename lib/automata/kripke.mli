(** State-labeled Kripke structures, the input format of the model checker.

    Labels are symbols over [P ∪ P_A]; the structure must be total (use
    {!stutter_extend}) before model checking, since LTL is interpreted over
    infinite traces. *)

type t = private {
  labels : Dpoaf_logic.Symbol.t array;
  succs : int list array;
  initial : int list;
  descr : int -> string;
      (** Human-readable description of a state, made on demand. *)
  tags : int array;
      (** Provenance tag per state (e.g. the controller step that produced
          it); [-1] when untagged.  Used for counterexample blame. *)
  atoms : string array;
      (** The structure's alphabet: every atom of some label, sorted. *)
  words : int;  (** Mask words per state: [⌈|atoms| / Sys.int_size⌉]. *)
  masks : int array;
      (** Labels as bitmasks over [atoms]: bit [j mod Sys.int_size] of
          word [i * words + j / Sys.int_size] is set iff [atoms.(j)] is
          in [labels.(i)].  Any number of atoms fits. *)
}

val make :
  labels:Dpoaf_logic.Symbol.t array ->
  succs:int list array ->
  initial:int list ->
  ?descr:(int -> string) ->
  ?tags:int array ->
  unit ->
  t
(** [descr] defaults to ["s<i>"].
    @raise Invalid_argument on shape mismatches or out-of-range indices. *)

val mask_into : t -> int array -> int -> Dpoaf_logic.Symbol.t -> bool
(** [mask_into t masks base sym] sets the bits of [sym]'s atoms in the
    mask that starts at word [base] of [masks] (the layout of [t.masks]);
    [false] when some atom of [sym] is outside [t.atoms] (its bit is then
    left out). *)

val n_states : t -> int

val stutter_extend : t -> t
(** Add a self-loop to every deadlocked state, so every run is infinite. *)

val is_total : t -> bool

val random_lasso :
  t -> Dpoaf_util.Rng.t -> (Dpoaf_logic.Symbol.t array * Dpoaf_logic.Symbol.t array) option
(** A random walk from a random initial state until a state repeats,
    returned as (prefix labels, cycle labels).  [None] when the structure
    has no initial state or the walk deadlocks. *)

val pp : Format.formatter -> t -> unit
