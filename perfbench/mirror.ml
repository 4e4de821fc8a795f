(* The traced handler: the work of [Dpoaf_serve.Engine.handle] for the
   request kinds the workloads send, spelled out as calls into each
   layer's public functions so that every call sits inside a span of its
   own (lm, domain, lang, automata, analysis, refine).  Every answer it
   gives is checked bit-identical to a serial [Engine.handle], so the
   mirror cannot drift from the engine unnoticed. *)

module D = Dpoaf_domain.Domain
module SP = Dpoaf_serve.Protocol
module Corpus = Dpoaf_pipeline.Corpus
module Sampler = Dpoaf_lm.Sampler
module Vocab = Dpoaf_lm.Vocab
module Cache = Dpoaf_exec.Cache
module Trace = Dpoaf_exec.Trace
module Product = Dpoaf_automata.Product
module Model_checker = Dpoaf_automata.Model_checker
module Vacuity = Dpoaf_analysis.Vacuity
module Explain = Dpoaf_analysis.Explain
module Refine = Dpoaf_refine.Refine
module Rng = Dpoaf_util.Rng

let span name f = Trace.with_span ~cat:"perfbench" name f

(* Work counters, summed over the shards' domains. *)
type counters = {
  products : int Atomic.t;
  product_states : int Atomic.t;
  tokens : int Atomic.t;
  refines : int Atomic.t;
  refine_rounds : int Atomic.t;
  refine_accepted : int Atomic.t;
}

let counters () =
  let z () = Atomic.make 0 in
  { products = z (); product_states = z (); tokens = z (); refines = z ();
    refine_rounds = z (); refine_accepted = z () }

let add a n = ignore (Atomic.fetch_and_add a n : int)

(* Process-wide, like the packs' own profile memo. *)
type shared = {
  profiles : (string * string * string list, SP.profile) Cache.t;
  counters : counters;
}

let shared () =
  {
    profiles = Cache.create ~capacity:65536 ~name:"perfbench.profile" ();
    counters = counters ();
  }

type pack = {
  dom : D.t;
  corpus : Corpus.t;
  snapshot : Sampler.snapshot option;
  prompt_states : (int list, Sampler.state) Cache.t;
  explain_cache : Refine.explain_cache;
}

type t = { packs : (string * pack) list; shared : shared }

(* One mirror per shard, as the fleet has one engine per shard. *)
let create shared ~shard packs =
  {
    packs =
      List.map
        (fun (lm, (corpus : Corpus.t)) ->
          let name = D.name corpus.Corpus.domain in
          ( name,
            {
              dom = corpus.Corpus.domain;
              corpus;
              snapshot = Option.map Sampler.snapshot lm;
              prompt_states =
                Cache.create ~capacity:256
                  ~name:(Printf.sprintf "perfbench.shard%d.prompt.%s" shard name)
                  ();
              explain_cache =
                Refine.explain_cache
                  ~name:(Printf.sprintf "perfbench.shard%d.explain.%s" shard name);
            } ))
        packs;
    shared;
  }

let prompt_stats t =
  List.fold_left
    (fun (h, m) (_, p) ->
      let s = Cache.stats p.prompt_states in
      (h + s.Cache.hits, m + s.Cache.misses))
    (0, 0) t.packs

let profile t p ~model steps : SP.profile =
  let (module P : D.S) = p.dom in
  span "domain.profile" @@ fun () ->
  Cache.find_or_add t.shared.profiles
    (P.name, model.Dpoaf_automata.Ts.name, steps)
    (fun () ->
      let controller, _ =
        span "lang.compile" (fun () ->
            P.controller_of_steps ~name:"response" steps)
      in
      let kripke =
        span "automata.product" (fun () ->
            let product = Product.build ~model ~controller in
            add t.shared.counters.products 1;
            add t.shared.counters.product_states
              (List.length product.Product.states);
            Product.to_kripke product)
      in
      let specs = P.specs () in
      let satisfied =
        span "automata.check" (fun () ->
            List.filter_map
              (fun (n, phi) ->
                if Model_checker.is_holds (Model_checker.check_kripke kripke phi)
                then Some n
                else None)
              specs)
      in
      let vacuous =
        span "analysis.vacuity" (fun () ->
            Vacuity.vacuously_satisfied ~model ~controller ~specs ~satisfied)
      in
      {
        SP.score = List.length satisfied;
        satisfied;
        violated =
          List.filter_map
            (fun (n, _) -> if List.mem n satisfied then None else Some n)
            specs;
        vacuous;
      })

let explanations p ~model ~only steps =
  span "analysis.explain" @@ fun () ->
  D.explain_steps p.dom ~model steps
  |> List.filter_map (fun (e : Explain.t) ->
         if only = [] || List.mem e.Explain.spec only then
           Some { SP.espec = e.Explain.spec; etext = e.Explain.text }
         else None)

let model_exn p scenario =
  match D.model_of_scenario p.dom scenario with
  | Ok m -> m
  | Error e -> failwith e

let lm_exn p =
  match p.snapshot with
  | Some s -> s
  | None -> failwith "mirror: pack served without a language model"

let generate t p ~task ~seed ~temperature =
  let (module P : D.S) = p.dom in
  let snapshot = lm_exn p in
  let setup = Corpus.setup p.corpus (D.find_task_exn p.dom task) in
  let state =
    span "lm.prompt_fold" (fun () ->
        Cache.find_or_add p.prompt_states setup.Corpus.prompt (fun () ->
            Sampler.prompt_state snapshot ~prompt:setup.Corpus.prompt))
  in
  let tokens =
    span "lm.decode" (fun () ->
        Sampler.sample_from snapshot (Rng.create seed) ~state
          ~grammar:setup.Corpus.grammar ~min_clauses:setup.Corpus.min_clauses
          ~max_clauses:setup.Corpus.max_clauses ~temperature ())
  in
  add t.shared.counters.tokens (List.length tokens);
  let steps = Corpus.steps_of_tokens p.corpus tokens in
  SP.Generated
    { steps; tokens; profile = profile t p ~model:(P.universal ()) steps }

let verify t p ~scenario ~explain steps =
  let model = model_exn p scenario in
  let pr = profile t p ~model steps in
  SP.Verified
    {
      profile = pr;
      explanations =
        (if explain then
           Some (explanations p ~model ~only:pr.SP.violated steps)
         else None);
    }

let score_pair t p ~scenario ~explain steps_a steps_b =
  let model = model_exn p scenario in
  let profile_a = profile t p ~model steps_a in
  let profile_b = profile t p ~model steps_b in
  let c = Check.compare_profiles profile_a profile_b in
  let explanations =
    match (explain, c.Check.preference) with
    | true, "a" -> Some (explanations p ~model ~only:c.Check.margin_specs steps_b)
    | true, "b" -> Some (explanations p ~model ~only:c.Check.margin_specs steps_a)
    | _ -> None
  in
  SP.Compared
    {
      preference = c.Check.preference;
      margin = c.Check.margin;
      margin_specs = c.Check.margin_specs;
      vacuous_margin = c.Check.vacuous_margin;
      profile_a;
      profile_b;
      explanations;
    }

let wire (p : Refine.profile) =
  {
    SP.score = List.length p.Refine.satisfied;
    satisfied = p.Refine.satisfied;
    violated = p.Refine.violated;
    vacuous = p.Refine.vacuous;
  }

let refine t p ~task ~steps ~seed ~scenario =
  let model = model_exn p scenario in
  let setup = Corpus.setup p.corpus (D.find_task_exn p.dom task) in
  let vocab = p.corpus.Corpus.vocab in
  let sample =
    Refine.conditioned_sampler ~snapshot:(lm_exn p) ~encode:(Vocab.encode vocab)
      ~decode:(Corpus.steps_of_tokens p.corpus) ~prompt:setup.Corpus.prompt
      ~grammar:setup.Corpus.grammar ~min_clauses:setup.Corpus.min_clauses
      ~max_clauses:setup.Corpus.max_clauses ~prompt_cache:p.prompt_states
      ~sep:(Vocab.sep vocab) ~seed ()
  in
  let refiner =
    Refine.create ~domain:p.dom ~model ~cache:p.explain_cache ~sample ()
  in
  let o = span "refine.run" (fun () -> Refine.run refiner steps) in
  let c = t.shared.counters in
  add c.refines 1;
  List.iter
    (fun (r : Refine.round) ->
      add c.refine_rounds 1;
      if r.Refine.accepted then add c.refine_accepted 1)
    o.Refine.rounds;
  SP.Refined
    {
      rstatus = Refine.status_name o.Refine.status;
      deadline_hit = o.Refine.deadline_hit;
      original_profile = wire o.Refine.original_profile;
      final_steps = o.Refine.final;
      final_profile = wire o.Refine.final_profile;
      rounds =
        List.map
          (fun (r : Refine.round) ->
            {
              SP.rr_index = r.Refine.index;
              rr_violated = r.Refine.candidate_profile.Refine.violated;
              rr_accepted = r.Refine.accepted;
              rr_margin = r.Refine.margin;
              rr_feedback = None;
            })
          o.Refine.rounds;
    }

let kind_name = function
  | SP.Generate _ -> "generate"
  | SP.Verify _ -> "verify"
  | SP.Score_pair _ -> "score_pair"
  | SP.Refine _ -> "refine"
  | SP.Stats _ -> "stats"
  | SP.Health _ -> "health"

let pack t = function
  | None -> snd (List.hd t.packs)
  | Some d -> List.assoc d t.packs

let handle t (req : SP.request) : SP.body =
  span ("serve.engine." ^ kind_name req.SP.kind) @@ fun () ->
  match req.SP.kind with
  | SP.Generate { task; seed; temperature; domain } ->
      generate t (pack t domain) ~task ~seed ~temperature
  | SP.Verify { steps; scenario; domain; explain } ->
      verify t (pack t domain) ~scenario ~explain steps
  | SP.Score_pair { steps_a; steps_b; scenario; domain; explain } ->
      score_pair t (pack t domain) ~scenario ~explain steps_a steps_b
  | SP.Refine
      { task; steps; seed; scenario; domain; explain = false;
        max_rounds = None; attempts = None } ->
      refine t (pack t domain) ~task ~steps ~seed ~scenario
  | SP.Refine _ | SP.Stats _ | SP.Health _ ->
      failwith "mirror: request kind not sent by the workloads"
