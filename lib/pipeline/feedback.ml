module Domain = Dpoaf_domain.Domain
module Cache = Dpoaf_exec.Cache
module Metrics = Dpoaf_exec.Metrics
module Trace = Dpoaf_exec.Trace

(* (task id, tokens, hardened?) — the full identity of a scoring request *)
type key = string * int list * bool

type profile = Domain.profile = {
  satisfied : string list;
  violated : string list;
  vacuous : string list;
}

type t = {
  domain : Domain.t;
  model : Dpoaf_automata.Ts.t;
  cache : (key, profile) Cache.t;
  (* aggregate across domains + a per-domain twin, so `dpoaf_cli report`
     can break the feedback tables down by domain *)
  responses_scored_dom : Metrics.counter;
  score_latency_dom : Metrics.histogram;
  violation_counters : (string * Metrics.counter) list;
  violation_counters_dom : (string * Metrics.counter) list;
}

let responses_scored = Metrics.counter "feedback.responses_scored"
let score_latency = Metrics.histogram "feedback.score"

let create ?model ?domain () =
  let domain =
    match domain with
    | Some d -> d
    | None -> Dpoaf_domain.find_exn Dpoaf_domain.default
  in
  let (module D : Domain.S) = domain in
  let model = match model with Some m -> m | None -> D.universal () in
  (* Pre-build shared read-only structures so worker domains never race on
     their first-use initialization. *)
  ignore (D.lexicon ());
  let spec_names = Domain.spec_names domain in
  {
    domain;
    model;
    cache = Cache.create ~name:"feedback.scores" ();
    responses_scored_dom =
      Metrics.counter (Printf.sprintf "feedback.responses_scored.%s" D.name);
    score_latency_dom =
      Metrics.histogram (Printf.sprintf "feedback.score.%s" D.name);
    violation_counters =
      List.map
        (fun n -> (n, Metrics.counter ("feedback.violations." ^ n)))
        spec_names;
    violation_counters_dom =
      List.map
        (fun n ->
          ( n,
            Metrics.counter
              (Printf.sprintf "feedback.violations.%s.%s" D.name n) ))
        spec_names;
  }

let domain t = t.domain

let score_steps t ~task_id:_ steps =
  let (module D : Domain.S) = t.domain in
  List.length (D.profile_of_steps ~model:t.model steps).satisfied

let profile_of_clauses t clauses =
  let (module D : Domain.S) = t.domain in
  let controller = Dpoaf_lang.Glm2fsa.controller ~name:"response" clauses in
  D.profile_of_controller ~model:t.model controller

(* Every scoring request passes through here: the span and the per-spec
   violation counters fire per request (hit or miss), reflecting the
   sampled response distribution; the latency histograms observe only
   actual verification work (cache misses). *)
let cached t ~task_id key compute =
  Metrics.incr responses_scored;
  Metrics.incr t.responses_scored_dom;
  Trace.with_span ~cat:"feedback" ~attrs:[ ("task", task_id) ] "feedback.score"
    (fun () ->
      let p =
        Cache.find_or_add t.cache key (fun () ->
            let t0 = Unix.gettimeofday () in
            let p = compute () in
            let dt = Unix.gettimeofday () -. t0 in
            Metrics.observe score_latency dt;
            Metrics.observe t.score_latency_dom dt;
            p)
      in
      List.iter
        (fun name ->
          Metrics.incr (List.assoc name t.violation_counters);
          Metrics.incr (List.assoc name t.violation_counters_dom))
        p.violated;
      p)

let clauses_of_tokens t corpus tokens =
  let (module D : Domain.S) = t.domain in
  let steps = Corpus.steps_of_tokens corpus tokens in
  fst (Dpoaf_lang.Step_parser.parse_steps (D.lexicon ()) steps)

let profile_tokens t ~corpus setup tokens =
  let (module D : Domain.S) = t.domain in
  let task_id = setup.Corpus.task.Domain.id in
  cached t ~task_id (task_id, tokens, false) (fun () ->
      let steps = Corpus.steps_of_tokens corpus tokens in
      D.profile_of_steps ~model:t.model steps)

let profile_tokens_hardened t ~corpus setup tokens =
  let (module D : Domain.S) = t.domain in
  let task_id = setup.Corpus.task.Domain.id in
  cached t ~task_id (task_id, tokens, true) (fun () ->
      let clauses = clauses_of_tokens t corpus tokens in
      let hardened =
        Dpoaf_lang.Repair.harden
          ~specs:(List.map snd (D.specs ()))
          ~all_actions:D.actions clauses
      in
      profile_of_clauses t hardened)

let score_tokens t ~corpus setup tokens =
  List.length (profile_tokens t ~corpus setup tokens).satisfied

let score_tokens_hardened t ~corpus setup tokens =
  List.length (profile_tokens_hardened t ~corpus setup tokens).satisfied

let cache_stats t = Cache.stats t.cache
