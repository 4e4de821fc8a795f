(** Tape-based reverse-mode automatic differentiation: the reference the
    hand-written gradients of pre-training and fine-tuning are tested
    against, bit for bit.

    Build a computation on a {!Tape.t}; call {!backward} on a scalar output;
    read gradients of the leaves with {!grad}.  A tape belongs to a single
    domain. *)

module Tensor = Dpoaf_tensor.Tensor

module Tape : sig
  type t

  val create : unit -> t
end

type t
(** A node: a tensor value plus its accumulated adjoint. *)

val var : Tape.t -> Tensor.t -> t
(** Differentiable leaf (model parameter or input embedding). *)

val const : Tape.t -> Tensor.t -> t
(** Non-differentiable leaf: gradients are still accumulated (harmlessly)
    but typically ignored. *)

val value : t -> Tensor.t
val grad : t -> Tensor.t
(** Adjoint accumulated by the last {!backward}; zeros before that. *)

(** {1 Operations} — shapes follow the tensor arguments *)

val add : Tape.t -> t -> t -> t
val sub : Tape.t -> t -> t -> t

(** Elementwise product. *)
val mul : Tape.t -> t -> t -> t

val scale : Tape.t -> float -> t -> t
val neg : Tape.t -> t -> t

(** Any shape → scalar. *)
val sum : Tape.t -> t -> t

val mean : Tape.t -> t -> t

(** Vectors → scalar. *)
val dot : Tape.t -> t -> t -> t

(** [m×n] matrix, [n]-vector → [m]-vector. *)
val matvec : Tape.t -> t -> t -> t

(** Mean of the selected rows of a matrix (an embedding-bag). *)
val rows_mean : Tape.t -> t -> int list -> t

(** [gather_matvec tape m x rows] is the vector [(m.(r) · x)] for [r] in
    [rows] — the selected-rows product used for grammar-constrained logits,
    avoiding work on tokens the grammar forbids. *)
val gather_matvec : Tape.t -> t -> t -> int list -> t

(** [gather tape v rows] selects entries of a vector. *)
val gather : Tape.t -> t -> int list -> t

val tanh_ : Tape.t -> t -> t
val relu : Tape.t -> t -> t
val sigmoid : Tape.t -> t -> t

(** Requires positive entries. *)
val log_ : Tape.t -> t -> t

val exp_ : Tape.t -> t -> t

(** [log(1 + e^x)], computed stably; the gradient is [sigmoid x].  The DPO
    loss [-log σ(x)] is [softplus (-x)]. *)
val softplus : Tape.t -> t -> t

(** Vector → vector. *)
val log_softmax : Tape.t -> t -> t

(** Vector, index → scalar. *)
val pick : Tape.t -> t -> int -> t

(** Sum of scalars; [add_list tape []] is the constant 0. *)
val add_list : Tape.t -> t list -> t

val backward : Tape.t -> t -> unit
(** Seed the (scalar) output with gradient 1 and propagate.  Clears
    previously accumulated gradients on the tape first.
    @raise Invalid_argument if the output is not a scalar. *)
