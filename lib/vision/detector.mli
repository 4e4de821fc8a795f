(** Synthetic open-set object detector (Grounded-SAM substitute, §5.3).

    Detections are generated from a latent-score model: each object yields
    a score whose distribution depends on the object class, the viewing
    condition and (slightly) the domain; the reported confidence is the
    squashed score, and correctness is drawn from a {e shared} calibration
    curve perturbed by a small domain-specific term.  The paper's claim —
    the confidence→accuracy mapping is approximately equal in simulation
    and reality — is thus true by construction up to that perturbation,
    and the calibration methodology (binning by confidence, Yang et al.
    2023) is exercised on realistic data. *)

type object_class = Car | Pedestrian | Traffic_light | Stop_sign

val all_classes : object_class list
val class_name : object_class -> string

type domain = Sim | Real

type condition = Clear | Rain | Night

val all_conditions : condition list
val condition_name : condition -> string

type detection = {
  cls : object_class;
  domain : domain;
  condition : condition;
  confidence : float;  (** in (0,1) *)
  correct : bool;
}

val detect_dataset :
  Dpoaf_util.Rng.t -> domain -> condition -> n:int -> detection list
(** [n] detections with a uniform class mix. *)

val accuracy : detection list -> float
(** Fraction correct; 0 on []. *)
