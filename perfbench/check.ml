(* Correctness checks on the program's outputs.  None of them compares
   against stored output: each re-derives what an answer must satisfy from
   the rule book, the world model and the language of LTL.

   - A profile is checked semantically: every spec reported violated must
     have a counterexample lasso that falsifies it under
     [Dpoaf_logic.Trace.eval_lasso], and random walks of the closed-loop
     product must satisfy every spec reported as holding.  The walk check
     is a sample, so a wrongly claimed "holds" is caught with high but not
     certain probability; a wrongly claimed "violated" is always caught.
   - A comparison must follow from its two (checked) profiles.
   - A repair must never end with more violations than it started with,
     and a "clean" repair must re-verify clean.
   - A served answer must be bit-identical to a serial [Engine.handle] of
     the same request, and every profile in it must equal one recomputed
     without the profile memo. *)

module D = Dpoaf_domain.Domain
module SP = Dpoaf_serve.Protocol
module Ltl = Dpoaf_logic.Ltl
module Lasso = Dpoaf_logic.Trace
module Kripke = Dpoaf_automata.Kripke
module Product = Dpoaf_automata.Product
module Model_checker = Dpoaf_automata.Model_checker
module Rng = Dpoaf_util.Rng

type verdict = (unit, string) result

let ( let* ) = Result.bind
let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

(* Random walks per checked response. *)
let walks = 24

let kripke_of_steps dom ~model steps =
  let (module P : D.S) = dom in
  let controller, _ = P.controller_of_steps ~name:"check" steps in
  Product.to_kripke (Product.build ~model ~controller)

let rec all = function
  | [] -> Ok ()
  | check :: rest ->
      let* () = check () in
      all rest

let shape dom (p : SP.profile) =
  let names = D.spec_names dom in
  let in_order sub =
    List.filter (fun n -> List.mem n sub) names = sub
  in
  if p.SP.score <> List.length p.SP.satisfied then
    fail "score %d but %d satisfied specs" p.SP.score
      (List.length p.SP.satisfied)
  else if
    not
      (in_order p.SP.satisfied && in_order p.SP.violated
      && List.length p.SP.satisfied + List.length p.SP.violated
         = List.length names
      && List.for_all (fun n -> not (List.mem n p.SP.violated)) p.SP.satisfied)
  then fail "satisfied/violated do not partition the rule book in order"
  else if not (List.for_all (fun n -> List.mem n p.SP.satisfied) p.SP.vacuous)
  then fail "a vacuous spec is not among the satisfied ones"
  else Ok ()

(* [profile dom ~model ~seed steps p]: [p] is what the program reported
   for [steps] under [model]. *)
let profile dom ~model ~seed steps (p : SP.profile) : verdict =
  let* () = shape dom p in
  let (module P : D.S) = dom in
  let specs = P.specs () in
  let kripke = kripke_of_steps dom ~model steps in
  let violated () =
    all
      (List.map
         (fun name () ->
           let phi = List.assoc name specs in
           match Model_checker.check_kripke kripke phi with
           | Model_checker.Holds -> fail "%s reported violated but holds" name
           | Model_checker.Fails cex ->
               let prefix = Array.of_list cex.Model_checker.prefix
               and cycle = Array.of_list cex.Model_checker.cycle in
               if Lasso.eval_lasso phi ~prefix ~cycle then
                 fail "counterexample for %s satisfies it" name
               else Ok ())
         p.SP.violated)
  in
  let holding () =
    let rng = Rng.create seed in
    let rec walk k =
      if k = 0 then Ok ()
      else
        match Kripke.random_lasso kripke rng with
        | None -> fail "product has no infinite walk"
        | Some (prefix, cycle) -> (
            match
              List.find_opt
                (fun name ->
                  not (Lasso.eval_lasso (List.assoc name specs) ~prefix ~cycle))
                p.SP.satisfied
            with
            | Some name -> fail "%s reported holding but a walk violates it" name
            | None -> walk (k - 1))
    in
    walk walks
  in
  all [ violated; holding ]

(* What a comparison of two profiles must say (the automated-feedback
   preference: more satisfied specs wins). *)
type comparison = {
  preference : string;
  margin : int;
  margin_specs : string list;
  vacuous_margin : bool;
}

let compare_profiles (a : SP.profile) (b : SP.profile) =
  let winner, loser, preference =
    if a.SP.score > b.SP.score then (Some a, Some b, "a")
    else if b.SP.score > a.SP.score then (Some b, Some a, "b")
    else (None, None, "tie")
  in
  let margin_specs =
    match (winner, loser) with
    | Some w, Some l ->
        List.filter (fun n -> not (List.mem n l.SP.satisfied)) w.SP.satisfied
    | _ -> []
  in
  {
    preference;
    margin = abs (a.SP.score - b.SP.score);
    margin_specs;
    vacuous_margin =
      (match winner with
      | Some w ->
          margin_specs <> []
          && List.for_all (fun n -> List.mem n w.SP.vacuous) margin_specs
      | None -> false);
  }

let violations (p : SP.profile) = List.length p.SP.violated

(* The check for one served (request, body) pair; [seed] drives the walks. *)
let body dom ~seed (kind : SP.kind) (b : SP.body) : verdict =
  let model scenario =
    match D.model_of_scenario dom scenario with
    | Ok m -> m
    | Error e -> failwith e
  in
  match (kind, b) with
  | SP.Verify { steps; scenario; _ }, SP.Verified { profile = p; _ } ->
      profile dom ~model:(model scenario) ~seed steps p
  | ( SP.Score_pair { steps_a; steps_b; scenario; _ },
      SP.Compared
        { preference; margin; margin_specs; vacuous_margin; profile_a;
          profile_b; _ } ) ->
      let model = model scenario in
      let* () = profile dom ~model ~seed steps_a profile_a in
      let* () = profile dom ~model ~seed steps_b profile_b in
      let e = compare_profiles profile_a profile_b in
      if preference <> e.preference then
        fail "preference %s, profiles say %s" preference e.preference
      else if margin <> e.margin then
        fail "margin %d, profiles say %d" margin e.margin
      else if margin_specs <> e.margin_specs then fail "wrong margin specs"
      else if vacuous_margin <> e.vacuous_margin then
        fail "wrong vacuous_margin"
      else Ok ()
  | ( SP.Refine { steps; scenario; _ },
      SP.Refined { rstatus; original_profile; final_steps; final_profile; _ } )
    ->
      let model = model scenario in
      let* () = profile dom ~model ~seed steps original_profile in
      let* () = profile dom ~model ~seed final_steps final_profile in
      if violations final_profile > violations original_profile then
        fail "repair ends with %d violations, started with %d"
          (violations final_profile)
          (violations original_profile)
      else if rstatus = "clean" && violations final_profile <> 0 then
        fail "clean repair still violates %d specs" (violations final_profile)
      else Ok ()
  | SP.Generate _, SP.Generated { steps; profile = p; _ } ->
      profile dom ~model:(model None) ~seed steps p
  | _, (SP.Failed msg | SP.Rejected msg) -> fail "request failed: %s" msg
  | _ -> fail "answer of the wrong kind"

(* Every profile an answer reports, recomputed from scratch through the
   pack's unmemoized [profile_of_controller].  The comparison with a serial
   [Engine.handle] cannot catch a wrong profile on its own: both engines
   read the packs' process-wide profile memo, so the serial engine would
   read back whatever a shard stored there. *)
let fresh_profile dom ~model steps : SP.profile =
  let (module P : D.S) = dom in
  let controller, _ = P.controller_of_steps ~name:"response" steps in
  let p = P.profile_of_controller ~model controller in
  {
    SP.score = List.length p.D.satisfied;
    satisfied = p.D.satisfied;
    violated =
      List.filter (fun n -> not (List.mem n p.D.satisfied)) (D.spec_names dom);
    vacuous = p.D.vacuous;
  }

let reported_profiles (kind : SP.kind) (b : SP.body) =
  match (kind, b) with
  | SP.Verify { steps; scenario; _ }, SP.Verified { profile; _ } ->
      [ (scenario, steps, profile) ]
  | ( SP.Score_pair { steps_a; steps_b; scenario; _ },
      SP.Compared { profile_a; profile_b; _ } ) ->
      [ (scenario, steps_a, profile_a); (scenario, steps_b, profile_b) ]
  | ( SP.Refine { steps; scenario; _ },
      SP.Refined { original_profile; final_steps; final_profile; _ } ) ->
      [ (scenario, steps, original_profile); (scenario, final_steps, final_profile) ]
  | SP.Generate _, SP.Generated { steps; profile; _ } -> [ (None, steps, profile) ]
  | _ -> []

let profiles_recomputed dom (kind : SP.kind) (b : SP.body) : verdict =
  all
    (List.map
       (fun (scenario, steps, p) () ->
         match D.model_of_scenario dom scenario with
         | Error e -> fail "%s" e
         | Ok model ->
             if fresh_profile dom ~model steps = p then Ok ()
             else fail "profile differs from a fresh unmemoized verification")
       (reported_profiles kind b))

(* The served body, with the server's timing fields zeroed, encoded on the
   wire: what "bit-identical" compares. *)
let wire_body rid (b : SP.body) =
  SP.response_to_string
    { SP.rid; rbody = b; queue_wait_us = 0.0; execute_us = 0.0 }

let same_as_serial ~served ~serial : verdict =
  if served = serial then Ok () else fail "served answer differs from serial"

(* ---------------- fine-tuning ---------------- *)

(* Satisfied-spec count of a decoded response, verified from scratch (no
   memo shared with the feedback layer). *)
let verified_score dom steps =
  let (module P : D.S) = dom in
  let model = P.universal () in
  let controller, _ = P.controller_of_steps ~name:"check" steps in
  Model_checker.count_satisfied ~model ~controller ~specs:(P.specs ())

let pairs ~score (pairs : Dpoaf_dpo.Pref_data.pair list) : verdict =
  all
    (List.map
       (fun (p : Dpoaf_dpo.Pref_data.pair) () ->
         let c = score p.Dpoaf_dpo.Pref_data.chosen
         and r = score p.Dpoaf_dpo.Pref_data.rejected in
         if c <= r then
           fail "pair on %s: chosen re-verifies %d, rejected %d"
             p.Dpoaf_dpo.Pref_data.task_id c r
         else Ok ())
       pairs)

let training (stats : Dpoaf_dpo.Trainer.epoch_stats list) : verdict =
  match (stats, List.rev stats) with
  | first :: _, last :: _ ->
      if last.Dpoaf_dpo.Trainer.loss < first.Dpoaf_dpo.Trainer.loss then Ok ()
      else
        fail "DPO loss did not fall: first epoch %.4f, last %.4f"
          first.Dpoaf_dpo.Trainer.loss last.Dpoaf_dpo.Trainer.loss
  | _ -> fail "no epochs trained"

let improvement ~pre ~post : verdict =
  if post > pre then Ok ()
  else fail "post-round spec_sat %.4f not above pre-round %.4f" post pre

(* The least mean lift in spec_sat over a run's units.  The paper's
   effect is about 0.09 here.  One round's lift varies with its seeds
   (standard deviation 0.021 over 100 rounds, lowest 0.024), the mean over
   a run's four units much less (0.0125 over 25 runs, lowest 0.048), so a
   change that erased most of the effect fails this check and an unlucky
   seed does not. *)
let min_gain = 0.02

let mean_gain ~pre ~posts : verdict =
  let gain = Stat.mean posts -. pre in
  if gain >= min_gain then Ok ()
  else
    fail "post-round spec_sat %.4f above pre-round %.4f by less than %.2f"
      (Stat.mean posts) pre min_gain
