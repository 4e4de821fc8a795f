(* The domain abstraction: everything the DPO-AF pipeline needs to know
   about one use case (vocabulary, tasks, rule book, world models,
   response pools, verification entry points) behind one module type, so
   that lib/pipeline, lib/sim, lib/serve and the CLI are written once and
   run over any registered pack. *)

type split = Training | Validation

type task = { id : string; prompt : string; scenario : string; split : split }

type quality = Good | Risky | Bad

type step = { text : string; quality : quality }

type profile = {
  satisfied : string list;
  violated : string list;
  vacuous : string list;
}

module type S = sig
  val name : string
  val propositions : string list
  val actions : string list
  val lexicon : unit -> Dpoaf_lang.Lexicon.t
  val tasks : task list
  val specs : unit -> (string * Dpoaf_logic.Ltl.t) list
  val scenarios : string list
  val model : string -> Dpoaf_automata.Ts.t option
  val universal : unit -> Dpoaf_automata.Ts.t
  val observations : task -> step list
  val finals : task -> step list
  val demo_responses : (string * string list) list

  val controller_of_steps :
    name:string ->
    string list ->
    Dpoaf_automata.Fsa.t * Dpoaf_lang.Step_parser.stats

  val profile_of_steps :
    ?model:Dpoaf_automata.Ts.t -> string list -> profile

  val profile_of_controller :
    ?model:Dpoaf_automata.Ts.t -> Dpoaf_automata.Fsa.t -> profile
end

type t = (module S)

let name (module D : S) = D.name
let tasks (module D : S) = D.tasks
let spec_names (module D : S) = List.map fst (D.specs ())
let spec_count d = List.length (spec_names d)

let query_text task = Printf.sprintf "Steps for %S" task.prompt

let candidate_steps (module D : S) task =
  List.map (fun s -> s.text) (D.observations task @ D.finals task)

let find_task (module D : S) id =
  List.find_opt (fun t -> t.id = id) D.tasks

let find_task_exn ((module D : S) as d) id =
  match find_task d id with
  | Some t -> t
  | None ->
      failwith
        (Printf.sprintf "unknown task %S in domain %S (valid: %s)" id D.name
           (String.concat ", " (List.map (fun t -> t.id) D.tasks)))

(* The one compile-and-check behind every counterexample: compile the
   response, build the product once inside verify_all and check only the
   requested specs.  Explain.explain replays each lasso through
   Trace.eval_lasso before returning, so a lying explanation is dropped
   rather than reported — the filter_map in [explain_steps] keeps the
   contract "every returned explanation is replay-validated". *)
let counterexamples (module D : S) ?model ?only steps =
  let specs =
    match only with
    | None -> D.specs ()
    | Some names -> List.filter (fun (n, _) -> List.mem n names) (D.specs ())
  in
  if specs = [] then []
  else
    let model = match model with Some m -> m | None -> D.universal () in
    let controller, _stats = D.controller_of_steps ~name:"response" steps in
    Dpoaf_automata.Model_checker.verify_all ~model ~controller ~specs
    |> List.filter_map (fun (name, phi, verdict) ->
           match verdict with
           | Dpoaf_automata.Model_checker.Holds -> None
           | Dpoaf_automata.Model_checker.Fails cex -> Some (name, phi, cex))

let explain_steps ((module D : S) as d) ?model ?only steps =
  counterexamples d ?model ?only steps
  |> List.filter_map (fun (name, phi, cex) ->
         Dpoaf_analysis.Explain.explain ~spec:(name, phi) ~actions:D.actions cex)

(* [None] and ["universal"] both select the integrated model; any other
   name must be one of the domain's scenarios.  The strict error carries
   the valid list — the CLI and the serving layer share this resolution. *)
let model_of_scenario (module D : S) = function
  | None | Some "universal" -> Ok (D.universal ())
  | Some name -> (
      match D.model name with
      | Some m -> Ok m
      | None ->
          Error
            (Printf.sprintf "unknown scenario %S in domain %S (valid: %s)"
               name D.name
               (String.concat ", " (D.scenarios @ [ "universal" ]))))
