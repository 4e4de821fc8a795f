(** Structured representation of one instruction step.

    The semantic parser (GLM2FSA's first stage) turns each textual step of a
    language-model response into a clause; {!Glm2fsa} then compiles the
    clause list into an FSA controller. *)

type condition =
  | Cond_atom of string  (** proposition must hold *)
  | Cond_not of string  (** proposition must be absent *)
  | Cond_and of condition * condition
  | Cond_or of condition * condition
      (** produced by specification-guided repair ({!Repair}), not by the
          step parser *)

type t =
  | Observe of string
      (** look at a proposition and move on ("observe the traffic light") *)
  | If_act of condition * string
      (** if the condition holds, perform the action and advance; otherwise
          hold position ("if the green traffic light is on, go straight") *)
  | If_advance of condition
      (** if the condition holds, proceed to the next step; otherwise hold
          ("if no car from left, check the pedestrian at right") *)
  | If_goto of condition * int
      (** conditional jump to a 1-based step number; falls through to the
          next step otherwise *)
  | Act of string  (** unconditional action ("turn right") *)

val atoms : t -> string list
(** Propositions referenced by the clause (not actions). *)

val action : t -> string option

val guard_of_condition : condition -> Dpoaf_automata.Fsa.guard

val eval_condition : condition -> Dpoaf_logic.Symbol.t -> bool

val pp : Format.formatter -> t -> unit
(** Paper-style bracketed rendering, e.g.
    [<if> <green traffic light>, <go straight>]. *)

val to_string : t -> string
