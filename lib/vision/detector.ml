module Rng = Dpoaf_util.Rng

type object_class = Car | Pedestrian | Traffic_light | Stop_sign

let all_classes = [ Car; Pedestrian; Traffic_light; Stop_sign ]

let class_name = function
  | Car -> "car"
  | Pedestrian -> "pedestrian"
  | Traffic_light -> "traffic light"
  | Stop_sign -> "stop sign"

type domain = Sim | Real

type condition = Clear | Rain | Night

let all_conditions = [ Clear; Rain; Night ]

let condition_name = function Clear -> "clear" | Rain -> "rain" | Night -> "night"

type detection = {
  cls : object_class;
  domain : domain;
  condition : condition;
  confidence : float;
  correct : bool;
}

let sigmoid x = 1.0 /. (1.0 +. exp (-.x))

(* Mean latent score: big distinctive objects detect more confidently. *)
let class_mean = function
  | Car -> 1.3
  | Pedestrian -> 0.6
  | Traffic_light -> 0.9
  | Stop_sign -> 1.1

(* Conditions shift the score distribution (what the paper's Figure 13
   varies) without touching the calibration curve. *)
let condition_shift = function Clear -> 0.0 | Rain -> -0.5 | Night -> -0.9

(* The shared confidence→accuracy curve; a small domain perturbation keeps
   the two mappings approximately — not exactly — equal. *)
let calibration domain c =
  let base = 0.12 +. (0.86 *. c) in
  let wobble =
    match domain with
    | Sim -> 0.015 *. sin (6.0 *. c)
    | Real -> -0.015 *. sin (5.0 *. c)
  in
  Float.max 0.0 (Float.min 1.0 (base +. wobble))

let detect_one rng domain condition cls =
  let score =
    class_mean cls +. condition_shift condition +. Rng.gaussian rng
    +. (match domain with Sim -> 0.05 | Real -> -0.05)
  in
  let confidence = sigmoid score in
  let correct = Rng.bool rng (calibration domain confidence) in
  { cls; domain; condition; confidence; correct }

let detect_dataset rng domain condition ~n =
  List.init n (fun i ->
      let cls = List.nth all_classes (i mod List.length all_classes) in
      detect_one rng domain condition cls)

let accuracy detections =
  Dpoaf_util.Stats.fraction (fun d -> d.correct) detections
