(** Low-rank adaptation of a frozen weight matrix (Hu et al. 2021; used by
    the paper's fine-tuning stage, Appendix E).

    The effective weight is [W + A·B] with [W ∈ R^{m×n}] frozen,
    [A ∈ R^{m×r}] and [B ∈ R^{r×n}] trainable, [r ≪ min(m,n)].  [A] starts
    at zero so fine-tuning begins exactly at the reference model. *)

type t = private {
  base : Tensor.t;  (** frozen [W], [m×n] *)
  a : Tensor.t;  (** [m×r], initialized to zero *)
  b : Tensor.t;  (** [r×n], random Gaussian *)
  rank : int;
}

val create : Dpoaf_util.Rng.t -> base:Tensor.t -> rank:int -> t
(** @raise Invalid_argument when [base] is not a matrix or [rank < 1]. *)

val clone : t -> t
(** Copies the adapters [A] and [B]; the clone shares the frozen base
    [W] with the original. *)

val effective : t -> Tensor.t
(** Materialize [W + A·B] (for evaluation-only passes). *)

val params : prefix:string -> t -> Optim.param list
(** The trainable parameters [A] and [B] (not the base). *)
