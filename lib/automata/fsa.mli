(** Finite-state-automaton controllers.

    A controller [A = ⟨Σ, A, Q, q₀, δ⟩] maps environment observations
    (symbols over the proposition set [P]) to actions (symbols over [P_A]).
    Transitions are guarded by boolean conditions over the observation and
    emit an action symbol, following the paper's §3 definition with
    [δ : Q × Σ × A × Q → {0,1}]. *)

type guard =
  | Gtrue
  | Gatom of string
  | Gnot of guard
  | Gand of guard * guard
  | Gor of guard * guard

val eval_guard : guard -> Dpoaf_logic.Symbol.t -> bool

val pp_guard : Format.formatter -> guard -> unit

type state = int

type transition = {
  src : state;
  guard : guard;
  action : Dpoaf_logic.Symbol.t;  (** over [P_A]; may be empty (ε). *)
  dst : state;
}

type t = private {
  name : string;
  n_states : int;
  init : state;
  state_names : string array;
  transitions : transition list;
}

val make :
  name:string ->
  n_states:int ->
  init:state ->
  ?state_names:string array ->
  transitions:transition list ->
  unit ->
  t
(** @raise Invalid_argument on out-of-range states. *)

val enabled : t -> state -> Dpoaf_logic.Symbol.t -> (Dpoaf_logic.Symbol.t * state) list
(** [enabled c q σ] lists the (action, successor) pairs of transitions whose
    guard is satisfied by [σ].  Non-deterministic controllers may return
    several. *)

val is_input_enabled : t -> over:Dpoaf_logic.Symbol.t list -> bool
(** True when every state has at least one enabled transition for every
    symbol of [over]. *)

val actions : t -> Dpoaf_logic.Symbol.t
(** All action atoms mentioned by any transition. *)

val pp : Format.formatter -> t -> unit
