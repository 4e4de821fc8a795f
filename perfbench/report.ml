(* What a workload hands back to the main loop in [perfbench.ml]. *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  problems : string list;  (** why [correct] is false, for stderr *)
}
