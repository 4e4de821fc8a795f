(* The step-text → spec-verdict evaluator of every pack: a mutex-guarded
   memoized lexicon (Lazy.force is unsafe under concurrent forcing in
   OCaml 5), GLM2FSA compilation, one product per profiled controller —
   the rule book is model-checked and vacuity is read on the same Kripke
   structure — and a bounded profile cache keyed by (model name, steps)
   that shares its values and step texts, one copy of each per pack. *)

module Glm2fsa = Dpoaf_lang.Glm2fsa
module Model_checker = Dpoaf_automata.Model_checker
module Product = Dpoaf_automata.Product
module Cache = Dpoaf_exec.Cache

type t = {
  lexicon : unit -> Dpoaf_lang.Lexicon.t;
  controller_of_steps :
    name:string ->
    string list ->
    Dpoaf_automata.Fsa.t * Dpoaf_lang.Step_parser.stats;
  profile_of_steps :
    ?model:Dpoaf_automata.Ts.t -> string list -> Domain.profile;
  profile_of_controller :
    ?model:Dpoaf_automata.Ts.t -> Dpoaf_automata.Fsa.t -> Domain.profile;
}

let memoized f =
  let cell = lazy (f ()) in
  let mutex = Mutex.create () in
  fun () ->
    Mutex.lock mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock mutex)
      (fun () -> Lazy.force cell)

let make ~name ~make_lexicon ~specs ~universal =
  let lexicon = memoized make_lexicon in
  let controller_of_steps ~name steps =
    Glm2fsa.of_steps ~name (lexicon ()) steps
  in
  let profile_of_controller ?model controller =
    let model = match model with Some m -> m | None -> universal () in
    let specs = specs () in
    let kripke = Product.to_kripke (Product.build ~model ~controller) in
    let satisfied, violated =
      List.partition_map
        (fun (n, phi) ->
          if Model_checker.is_holds (Model_checker.check_kripke kripke phi)
          then Left n
          else Right n)
        specs
    in
    let vacuous =
      Dpoaf_analysis.Vacuity.vacuous_in kripke ~specs ~satisfied
    in
    { Domain.satisfied; violated; vacuous }
  in
  (* Spec evaluation is pure in (model, steps), and model names are unique
     per scenario (and "universal"), so they key the model side cheaply.
     The cache is bounded: distinct step lists are effectively unbounded
     across long sampling runs. *)
  let profile_cache : (string * string list, Domain.profile) Cache.t =
    Cache.create ~capacity:65536 ~name:(Printf.sprintf "eval.profile.%s" name) ()
  in
  (* A memo entry keeps only its key, and the key shares its texts: a
     rule book has few distinct verdicts (tens per pack in a long
     serving run) and a pack few distinct step texts, against
     unboundedly many step lists, so each verdict record and each step
     text is stored once per pack. *)
  let verdicts : (Domain.profile, Domain.profile) Cache.t =
    Cache.create ~capacity:65536 ~name:(Printf.sprintf "eval.verdicts.%s" name) ()
  in
  let texts : (string, string) Cache.t =
    Cache.create ~capacity:65536 ~name:(Printf.sprintf "eval.texts.%s" name) ()
  in
  let shared cache x = Cache.find_or_add cache x (fun () -> x) in
  let profile_of_steps ?model steps =
    let model = match model with Some m -> m | None -> universal () in
    let key = (model.Dpoaf_automata.Ts.name, steps) in
    match Cache.find_opt profile_cache key with
    | Some p -> p
    | None ->
        let controller, _stats = controller_of_steps ~name:"response" steps in
        let p = shared verdicts (profile_of_controller ~model controller) in
        Cache.add profile_cache
          (model.Dpoaf_automata.Ts.name, List.map (shared texts) steps)
          p;
        p
  in
  { lexicon; controller_of_steps; profile_of_steps; profile_of_controller }
