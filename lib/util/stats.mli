(** Small statistics helpers used by benches and experiment reports. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val stddev : float list -> float
(** Population standard deviation; 0 on lists shorter than 2. *)

val min_max : float list -> float * float
(** Smallest and largest element.  Raises [Invalid_argument] on []. *)

val median : float list -> float

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [\[0,1\]], linear interpolation. *)

val fraction : ('a -> bool) -> 'a list -> float
(** Fraction of elements satisfying the predicate; 0 on []. *)

val histogram : bins:int -> lo:float -> hi:float -> float list -> int array
(** Counts per equal-width bin; out-of-range values are clamped. *)

type summary = { mean : float; std : float; min : float; max : float; n : int }

val summarize : float list -> summary
