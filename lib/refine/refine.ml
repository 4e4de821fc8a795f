(* Counterexample-guided inference-time refinement (ROADMAP item 4).

   The loop closes the paper's verify-then-rank pipeline into a repair
   cycle without touching weights: verify the response, translate each
   violated specification's lasso counterexample into a feedback sentence
   (Dpoaf_analysis.Explain — replay-validated, so the loop never steers on
   a lying explanation), re-sample a candidate conditioned on that
   feedback, re-verify, and keep the candidate only if it strictly
   improves.  Iteration runs under an explicit budget: [max_rounds]
   rounds of [attempts] candidates each, with an optional per-round
   wall-clock allowance.

   Acceptance is monotone by construction: a round's best candidate (the
   fewest violated specifications, ties broken by the larger satisfied
   margin, then by the earliest attempt — all deterministic) replaces the
   current best only when its violated-spec count strictly shrinks, so
   the violated counts along any accepted trajectory are strictly
   decreasing.  With no deadline set the whole loop is a deterministic
   function of (response, seed, budget): sampling seeds are derived per
   (round, attempt), and the wall clock is read only to *stop* further
   rounds, never to pick between candidates — which is what lets the
   serving layer run refinement rounds on any number of pool workers and
   return bit-identical trajectories. *)

module Domain = Dpoaf_domain.Domain
module MC = Dpoaf_automata.Model_checker
module Symbol = Dpoaf_logic.Symbol
module Cache = Dpoaf_exec.Cache
module Metrics = Dpoaf_exec.Metrics
module Rng = Dpoaf_util.Rng
module Sampler = Dpoaf_lm.Sampler

type profile = Domain.profile = {
  satisfied : string list;
  violated : string list;
  vacuous : string list;
}

type budget = {
  max_rounds : int;
  attempts : int;
  round_deadline_ms : float option;
}

let default_budget = { max_rounds = 3; attempts = 4; round_deadline_ms = None }

type round = {
  index : int;
  feedback : (string * string) list;
  candidate : string list;
  candidate_profile : profile;
  accepted : bool;
  margin : int;
  round_ms : float;
}

type status = Clean | Improved | Unchanged

let status_name = function
  | Clean -> "clean"
  | Improved -> "improved"
  | Unchanged -> "unchanged"

type outcome = {
  original : string list;
  original_profile : profile;
  final : string list;
  final_profile : profile;
  rounds : round list;
  status : status;
  deadline_hit : bool;
}

(* ---------------- explanation memoization ----------------

   Rendering an explanation replays the lasso through Trace.eval_lasso;
   across rounds the current best (and therefore its lassos) is often
   unchanged, so the rendering is memoized per (spec, lasso).  Symbol
   sets are canonicalized to sorted element lists first: two equal sets
   may be differently shaped balanced trees, which would defeat the
   cache's structural keying. *)

type explain_key = string * string list list * string list list
type explain_cache = (explain_key, string option) Cache.t

let explain_cache ~name : explain_cache = Cache.create ~capacity:512 ~name ()

type sample_fn =
  feedback:(string * string) list -> round:int -> attempt:int -> string list

type t = {
  domain : Domain.t;
  model : Dpoaf_automata.Ts.t;
  cache : explain_cache;
  sample : sample_fn;
}

let create ~domain ?model ?cache ~sample () =
  let (module D : Domain.S) = domain in
  let model = match model with Some m -> m | None -> D.universal () in
  let cache =
    match cache with
    | Some c -> c
    | None -> explain_cache ~name:(Printf.sprintf "refine.explain.%s" D.name)
  in
  { domain; model; cache; sample }

let profile t steps =
  let (module D : Domain.S) = t.domain in
  D.profile_of_steps ~model:t.model steps

let explanations t ~violated steps =
  let (module D : Domain.S) = t.domain in
  Domain.counterexamples t.domain ~model:t.model ~only:violated steps
  |> List.filter_map (fun (name, phi, cex) ->
         let key =
           ( name,
             List.map Symbol.elements cex.MC.prefix,
             List.map Symbol.elements cex.MC.cycle )
         in
         Cache.find_or_add t.cache key (fun () ->
             Option.map
               (fun (e : Dpoaf_analysis.Explain.t) ->
                 e.Dpoaf_analysis.Explain.text)
               (Dpoaf_analysis.Explain.explain ~spec:(name, phi)
                  ~actions:D.actions cex))
         |> Option.map (fun text -> (name, text)))

(* fewest violations first; ties by larger satisfied set, then by the
   earlier attempt — a total deterministic order over a round's candidates *)
let better (_, p1, a1) (_, p2, a2) =
  let v1 = List.length p1.violated and v2 = List.length p2.violated in
  if v1 <> v2 then v1 < v2
  else
    let s1 = List.length p1.satisfied and s2 = List.length p2.satisfied in
    if s1 <> s2 then s1 > s2 else a1 < a2

let run ?(budget = default_budget) t steps =
  if budget.max_rounds < 1 then
    invalid_arg "Refine.run: max_rounds must be >= 1";
  if budget.attempts < 1 then invalid_arg "Refine.run: attempts must be >= 1";
  (match budget.round_deadline_ms with
  | Some ms when ms <= 0.0 ->
      invalid_arg "Refine.run: round_deadline_ms must be positive"
  | _ -> ());
  let original_profile = profile t steps in
  let best = ref steps in
  let best_profile = ref original_profile in
  let rounds = ref [] in
  let deadline_hit = ref false in
  let index = ref 1 in
  let continue_ = ref ((!best_profile).violated <> []) in
  while !continue_ && !index <= budget.max_rounds do
    let t0 = Unix.gettimeofday () in
    let feedback = explanations t ~violated:(!best_profile).violated !best in
    let candidates =
      List.init budget.attempts (fun attempt ->
          let candidate = t.sample ~feedback ~round:!index ~attempt in
          (candidate, profile t candidate, attempt))
    in
    let candidate, candidate_profile, _ =
      List.fold_left
        (fun acc c -> if better c acc then c else acc)
        (List.hd candidates) (List.tl candidates)
    in
    let margin =
      List.length (!best_profile).violated
      - List.length candidate_profile.violated
    in
    let accepted = margin > 0 in
    let round_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
    rounds :=
      {
        index = !index;
        feedback;
        candidate;
        candidate_profile;
        accepted;
        margin;
        round_ms;
      }
      :: !rounds;
    if accepted then begin
      best := candidate;
      best_profile := candidate_profile
    end;
    if (!best_profile).violated = [] then continue_ := false;
    (* the deadline only stops further rounds — it never influences which
       candidate a completed round accepted, so a deadline-free run stays
       a deterministic function of (response, seed, budget) *)
    (match budget.round_deadline_ms with
    | Some ms when round_ms > ms ->
        deadline_hit := true;
        continue_ := false
    | _ -> ());
    incr index
  done;
  let final_profile = !best_profile in
  let status =
    if final_profile.violated = [] then Clean
    else if
      List.length final_profile.violated
      < List.length original_profile.violated
    then Improved
    else Unchanged
  in
  {
    original = steps;
    original_profile;
    final = !best;
    final_profile;
    rounds = List.rev !rounds;
    status;
    deadline_hit = !deadline_hit;
  }

(* ---------------- conditioned re-sampling ---------------- *)

let derive_seed ~seed ~round ~attempt =
  seed + (round * 1_000_003) + (attempt * 7_919)

let revision_prompt ~encode ?sep ~prompt feedback =
  List.fold_left
    (fun acc (_, text) ->
      let sep = match sep with None -> [] | Some s -> [ s ] in
      acc @ sep @ encode text)
    prompt feedback

let conditioned_sampler ~snapshot ~encode ~decode ~prompt ~grammar ~min_clauses
    ~max_clauses ?(temperature = 1.0) ?prompt_cache ?sep ~seed () :
    sample_fn =
 fun ~feedback ~round ~attempt ->
  let revised = revision_prompt ~encode ?sep ~prompt feedback in
  let state =
    match prompt_cache with
    | Some cache ->
        Cache.find_or_add cache revised (fun () ->
            Sampler.prompt_state snapshot ~prompt:revised)
    | None -> Sampler.prompt_state snapshot ~prompt:revised
  in
  let rng = Rng.create (derive_seed ~seed ~round ~attempt) in
  decode
    (Sampler.sample_from snapshot rng ~state ~grammar ~min_clauses
       ~max_clauses ~temperature ())

(* ---------------- seeded repairable defects ---------------- *)

let defect_pool ?model domain ~seed ~per_task =
  let (module D : Domain.S) = domain in
  let model = match model with Some m -> m | None -> D.universal () in
  let rng = Rng.create seed in
  List.concat_map
    (fun task ->
      let careless =
        List.filter (fun s -> s.Domain.quality <> Domain.Good) (D.finals task)
      in
      if careless = [] then []
      else
        List.filter_map
          (fun _ ->
            let n = 1 + Rng.int rng 2 in
            let steps =
              List.init n (fun _ -> (Rng.choice_list rng careless).Domain.text)
            in
            let p = D.profile_of_steps ~model steps in
            if p.violated <> [] then Some (task, steps) else None)
          (List.init per_task Fun.id))
    D.tasks
