(** Generalized and plain Büchi automata with state labels.

    States carry literal constraints: a word symbol [σ] is consistent with a
    state [q] when [pos q ⊆ σ] and [neg q ∩ σ = ∅].  A run over
    [σ₀σ₁…] is a sequence of states starting from an initial state where
    each [σᵢ] is consistent with the i-th state.  This matches the output of
    the GPVW tableau construction. *)

type gnba = {
  n : int;
  initial : int list;
  pos : Dpoaf_logic.Symbol.t array;  (** atoms that must hold *)
  neg : Dpoaf_logic.Symbol.t array;  (** atoms that must be absent *)
  succs : int list array;
  accept : int list array;  (** generalized acceptance sets *)
}

type nba = {
  n : int;
  initial : int list;
  pos : Dpoaf_logic.Symbol.t array;
  neg : Dpoaf_logic.Symbol.t array;
  succs : int list array;
  accepting : bool array;
}

val consistent :
  pos:Dpoaf_logic.Symbol.t -> neg:Dpoaf_logic.Symbol.t -> Dpoaf_logic.Symbol.t -> bool

val degeneralize : gnba -> nba
(** Counter construction: states [(q, i)]; the counter advances past index
    [i] when the source state belongs to acceptance set [i]; accepting
    states are [(q, 0)] with [q ∈ accept.(0)].  A GNBA with zero acceptance
    sets accepts every run, so all states become accepting. *)
