(* Request execution: the DPO-AF loop's stages behind a per-request
   function.  [handle] is pure in the serving sense — the reply depends
   only on the request contents (generation is seeded per request, and
   verification is a deterministic model-checking run), which is what lets
   {!Server} batch requests in arrival order on any number of workers and
   still return bit-identical responses.

   One engine serves any number of domain packs: each request may name
   its domain (default: the engine's first/default pack), and every pack
   keeps its own corpus, sampling snapshot, prompt-state cache
   ([serve.prompt_state.<domain>]) and request counter
   ([serve.requests.<domain>]). *)

module Domain = Dpoaf_domain.Domain
module Corpus = Dpoaf_pipeline.Corpus
module Sampler = Dpoaf_lm.Sampler
module Vocab = Dpoaf_lm.Vocab
module Rng = Dpoaf_util.Rng
module Json = Dpoaf_util.Json
module Metrics = Dpoaf_exec.Metrics
module Refine = Dpoaf_refine.Refine
module Pref_store = Dpoaf_refine.Pref_store
module Pref_data = Dpoaf_dpo.Pref_data

type domain_state = {
  domain : Domain.t;
  corpus : Corpus.t;
  snapshot : Sampler.snapshot option;  (* None: generation unavailable *)
  prompt_states : (int list, Sampler.state) Dpoaf_exec.Cache.t;
      (* repeated-prompt batches skip the prompt fold: states are immutable
         and a deterministic function of the prompt (the snapshot is fixed
         for the server's lifetime), so cache hits cannot change replies *)
  refine_explain : Refine.explain_cache;
      (* (spec, lasso) -> rendered sentence; across refinement rounds the
         incumbent's lassos rarely change, so rendering is mostly hits *)
  requests : Metrics.counter;
}

type t = {
  states : (string * domain_state) list;
  default : string;
  journal : Journal.t option;  (* serve.refine_round events *)
  pref_store : Pref_store.t option;  (* harvested (original, repaired) pairs *)
}

let domain_state ?lm ?tag ?(prompt_cache_capacity = 256) corpus =
  let (module D : Domain.S) = corpus.Corpus.domain in
  (* Pre-build the shared read-only structures (lexicon, world models) on
     the calling domain so pool workers never race on first-use init. *)
  ignore (D.lexicon ());
  ignore (D.universal ());
  List.iter (fun sc -> ignore (D.model sc)) D.scenarios;
  (* a tagged (sharded) engine needs its own cache metric names — two
     caches registered under one name would shadow each other's hit/miss
     source — but the request counters deliberately share the untagged
     cell, so per-domain totals aggregate across shards for free *)
  let cache_name =
    match tag with
    | None -> Printf.sprintf "serve.prompt_state.%s" D.name
    | Some s -> Printf.sprintf "serve.%s.prompt_state.%s" s D.name
  in
  let explain_name =
    match tag with
    | None -> Printf.sprintf "refine.explain.%s" D.name
    | Some s -> Printf.sprintf "refine.%s.explain.%s" s D.name
  in
  {
    domain = corpus.Corpus.domain;
    corpus;
    snapshot = Option.map Sampler.snapshot lm;
    prompt_states =
      Dpoaf_exec.Cache.create ~capacity:prompt_cache_capacity ~name:cache_name
        ();
    refine_explain = Refine.explain_cache ~name:explain_name;
    requests = Metrics.counter (Printf.sprintf "serve.requests.%s" D.name);
  }

let create ?lm ?journal ?pref_store ?tag ?prompt_cache_capacity ~corpus () =
  let st = domain_state ?lm ?tag ?prompt_cache_capacity corpus in
  let name = Domain.name corpus.Corpus.domain in
  { states = [ (name, st) ]; default = name; journal; pref_store }

let create_multi ?journal ?pref_store ?tag ?prompt_cache_capacity packs =
  match packs with
  | [] -> invalid_arg "Engine.create_multi: no domains"
  | _ ->
      let states =
        List.map
          (fun (lm, corpus) ->
            ( Domain.name corpus.Corpus.domain,
              domain_state ?lm ?tag ?prompt_cache_capacity corpus ))
          packs
      in
      let names = List.map fst states in
      List.iteri
        (fun i n ->
          if List.exists (fun m -> m = n) (List.filteri (fun j _ -> j < i) names)
          then
            invalid_arg
              (Printf.sprintf "Engine.create_multi: duplicate domain %S" n))
        names;
      { states; default = fst (List.hd states); journal; pref_store }

let domains t = List.map fst t.states

let unserved t name =
  Printf.sprintf "domain %S not served (serving: %s)" name
    (String.concat ", " (List.map fst t.states))

let state_for t = function
  | None -> Ok (List.assoc t.default t.states)
  | Some name -> (
      match List.assoc_opt name t.states with
      | Some st -> Ok st
      | None -> Error (unserved t name))

(* ---------------- ops plane ---------------- *)

(* [k] names [d] as a dotted component: "serve.requests.driving" mentions
   "driving" and so does "serve.prompt_state.driving.hits", but
   "serve.drivingx" does not. *)
let mentions_component k d =
  let dot = "." ^ d in
  let ld = String.length dot and lk = String.length k in
  let rec scan i =
    if i + ld > lk then false
    else if String.sub k i ld = dot && (i + ld = lk || k.[i + ld] = '.') then
      true
    else scan (i + 1)
  in
  scan 0

let stats_body t ~domain : Protocol.body =
  match domain with
  | Some name when not (List.mem_assoc name t.states) ->
      Protocol.Failed (unserved t name)
  | _ ->
      (* a domain-tagged request hides the *other* packs' twins rather than
         keeping only keys that name the requested one, so the shared
         (untagged) serving metrics stay visible in every view *)
      let others =
        match domain with
        | None -> []
        | Some name -> List.filter (fun d -> d <> name) (List.map fst t.states)
      in
      let keep (k, _) = not (List.exists (mentions_component k) others) in
      Protocol.Stats_report
        {
          metrics = List.filter keep (Metrics.summary ());
          histograms = List.filter keep (Metrics.histogram_snapshots ());
          runtime = Metrics.runtime_gauges ();
        }

let request_counts t ~domain =
  match domain with
  | Some name when not (List.mem_assoc name t.states) -> Error (unserved t name)
  | _ ->
      Ok
        (List.filter_map
           (fun (name, st) ->
             match domain with
             | Some d when d <> name -> None
             | _ -> Some (name, Metrics.value st.requests))
           t.states)

(* The one Domain.profile → wire mapping (verify, score_pair, generate
   and refine all answer through it). *)
let wire_profile (p : Domain.profile) : Protocol.profile =
  {
    Protocol.score = List.length p.Domain.satisfied;
    satisfied = p.Domain.satisfied;
    violated = p.Domain.violated;
    vacuous = p.Domain.vacuous;
  }

let profile_of_steps st ~model steps =
  let (module D : Domain.S) = st.domain in
  wire_profile (D.profile_of_steps ~model steps)

(* validate the request itself before reporting server-side limitations,
   so a typo'd task id gets the precise error even on a verify-only
   server *)
let generate st ~task ~seed ~temperature : Protocol.body =
  let (module D : Domain.S) = st.domain in
  match Domain.find_task st.domain task with
  | None ->
      Protocol.Failed
        (Printf.sprintf "unknown task %S (valid: %s)" task
           (String.concat ", "
              (List.map (fun (tk : Domain.task) -> tk.Domain.id) D.tasks)))
  | Some tk -> (
      match st.snapshot with
      | None ->
          Protocol.Failed
            "generation unavailable: the server was started without a \
             language model (load a checkpoint or enable the built-in model)"
      | Some snapshot ->
          if temperature <= 0.0 then
            Protocol.Failed "temperature must be positive"
          else begin
            let setup = Corpus.setup st.corpus tk in
            let rng = Rng.create seed in
            let state =
              Dpoaf_exec.Cache.find_or_add st.prompt_states setup.Corpus.prompt
                (fun () ->
                  Sampler.prompt_state snapshot ~prompt:setup.Corpus.prompt)
            in
            let tokens =
              Sampler.sample_from snapshot rng ~state
                ~grammar:setup.Corpus.grammar
                ~min_clauses:setup.Corpus.min_clauses
                ~max_clauses:setup.Corpus.max_clauses ~temperature ()
            in
            let steps = Corpus.steps_of_tokens st.corpus tokens in
            let profile = profile_of_steps st ~model:(D.universal ()) steps in
            Protocol.Generated { steps; tokens; profile }
          end)

(* Explanations are a cold path (one more compile and product, checking
   only the named specs), so they are computed only on request. *)
let explanations_for st ~model ~only steps : Protocol.explanation list =
  Domain.explain_steps st.domain ~model ~only steps
  |> List.map (fun (e : Dpoaf_analysis.Explain.t) ->
         {
           Protocol.espec = e.Dpoaf_analysis.Explain.spec;
           etext = e.Dpoaf_analysis.Explain.text;
         })

let verify st ~scenario ~explain steps : Protocol.body =
  match Domain.model_of_scenario st.domain scenario with
  | Error msg -> Protocol.Failed msg
  | Ok model ->
      let profile = profile_of_steps st ~model steps in
      let explanations =
        if explain then
          Some (explanations_for st ~model ~only:profile.Protocol.violated steps)
        else None
      in
      Protocol.Verified { profile; explanations }

let score_pair st ~scenario ~explain steps_a steps_b : Protocol.body =
  match Domain.model_of_scenario st.domain scenario with
  | Error msg -> Protocol.Failed msg
  | Ok model ->
      let profile_a = profile_of_steps st ~model steps_a in
      let profile_b = profile_of_steps st ~model steps_b in
      let winner, loser, preference =
        if profile_a.Protocol.score > profile_b.Protocol.score then
          (Some profile_a, Some profile_b, "a")
        else if profile_b.Protocol.score > profile_a.Protocol.score then
          (Some profile_b, Some profile_a, "b")
        else (None, None, "tie")
      in
      let margin_specs =
        match (winner, loser) with
        | Some w, Some l ->
            List.filter
              (fun n -> not (List.mem n l.Protocol.satisfied))
              w.Protocol.satisfied
        | _ -> []
      in
      let vacuous_margin =
        match winner with
        | Some w ->
            margin_specs <> []
            && List.for_all
                 (fun n -> List.mem n w.Protocol.vacuous)
                 margin_specs
        | None -> false
      in
      let explanations =
        (* explain why the loser lost: its counterexamples for exactly
           the margin specs *)
        match (explain, loser) with
        | true, Some l ->
            let loser_steps =
              if l == profile_a then steps_a else steps_b
            in
            Some
              (explanations_for st ~model ~only:margin_specs loser_steps)
        | _ -> None
      in
      Protocol.Compared
        {
          preference;
          margin =
            abs (profile_a.Protocol.score - profile_b.Protocol.score);
          margin_specs;
          vacuous_margin;
          profile_a;
          profile_b;
          explanations;
        }

(* ---------------- counterexample-guided repair ---------------- *)

let refine_rounds_c = Metrics.counter "serve.refine.rounds"
let refine_accepted_c = Metrics.counter "serve.refine.accepted"

let refine t st ~id ~task ~steps ~seed ~scenario ~explain ~max_rounds ~attempts
    : Protocol.body =
  let (module D : Domain.S) = st.domain in
  match Domain.find_task st.domain task with
  | None ->
      Protocol.Failed
        (Printf.sprintf "unknown task %S (valid: %s)" task
           (String.concat ", "
              (List.map (fun (tk : Domain.task) -> tk.Domain.id) D.tasks)))
  | Some tk -> (
      match st.snapshot with
      | None ->
          Protocol.Failed
            "refinement unavailable: the server was started without a \
             language model (load a checkpoint or enable the built-in model)"
      | Some snapshot -> (
          match Domain.model_of_scenario st.domain scenario with
          | Error msg -> Protocol.Failed msg
          | Ok model ->
              let setup = Corpus.setup st.corpus tk in
              let vocab = st.corpus.Corpus.vocab in
              let sample =
                Refine.conditioned_sampler ~snapshot
                  ~encode:(Vocab.encode vocab)
                  ~decode:(Corpus.steps_of_tokens st.corpus)
                  ~prompt:setup.Corpus.prompt ~grammar:setup.Corpus.grammar
                  ~min_clauses:setup.Corpus.min_clauses
                  ~max_clauses:setup.Corpus.max_clauses
                  ~prompt_cache:st.prompt_states ~sep:(Vocab.sep vocab) ~seed
                  ()
              in
              let refiner =
                Refine.create ~domain:st.domain ~model
                  ~cache:st.refine_explain ~sample ()
              in
              let budget =
                {
                  Refine.max_rounds =
                    Option.value
                      ~default:Refine.default_budget.Refine.max_rounds
                      max_rounds;
                  attempts =
                    Option.value ~default:Refine.default_budget.Refine.attempts
                      attempts;
                  round_deadline_ms = None;
                }
              in
              let outcome = Refine.run ~budget refiner steps in
              List.iter
                (fun (r : Refine.round) ->
                  Metrics.incr refine_rounds_c;
                  if r.Refine.accepted then Metrics.incr refine_accepted_c;
                  match t.journal with
                  | None -> ()
                  | Some j ->
                      Journal.emit j "serve.refine_round"
                        [
                          ("id", Json.str id);
                          ("domain", Json.str D.name);
                          ("round", Json.num (float_of_int r.Refine.index));
                          ( "violated",
                            Json.num
                              (float_of_int
                                 (List.length
                                    r.Refine.candidate_profile.Refine.violated))
                          );
                          ("accepted", Json.Bool r.Refine.accepted);
                          ("round_ms", Json.num r.Refine.round_ms);
                        ])
                outcome.Refine.rounds;
              (* every accepted repair becomes one (original, repaired)
                 training pair with full per-spec provenance *)
              (match t.pref_store with
              | None -> ()
              | Some store ->
                  List.iter
                    (fun (r : Refine.round) ->
                      if r.Refine.accepted then
                        Pref_store.append store
                          {
                            Pref_data.h_task = task;
                            h_domain = D.name;
                            h_round = r.Refine.index;
                            h_seed = seed;
                            h_chosen_steps = r.Refine.candidate;
                            h_rejected_steps = steps;
                            h_chosen_score =
                              List.length
                                r.Refine.candidate_profile.Refine.satisfied;
                            h_rejected_score =
                              List.length
                                outcome.Refine.original_profile.Refine.satisfied;
                            h_chosen_satisfied =
                              r.Refine.candidate_profile.Refine.satisfied;
                            h_rejected_satisfied =
                              outcome.Refine.original_profile.Refine.satisfied;
                            h_chosen_vacuous =
                              r.Refine.candidate_profile.Refine.vacuous;
                            h_explanations = r.Refine.feedback;
                          })
                    outcome.Refine.rounds);
              let rounds =
                List.map
                  (fun (r : Refine.round) ->
                    {
                      Protocol.rr_index = r.Refine.index;
                      rr_violated =
                        r.Refine.candidate_profile.Refine.violated;
                      rr_accepted = r.Refine.accepted;
                      rr_margin = r.Refine.margin;
                      rr_feedback =
                        (if explain then
                           Some
                             (List.map
                                (fun (spec, text) ->
                                  { Protocol.espec = spec; etext = text })
                                r.Refine.feedback)
                         else None);
                    })
                  outcome.Refine.rounds
              in
              Protocol.Refined
                {
                  rstatus = Refine.status_name outcome.Refine.status;
                  deadline_hit = outcome.Refine.deadline_hit;
                  original_profile =
                    wire_profile outcome.Refine.original_profile;
                  final_steps = outcome.Refine.final;
                  final_profile = wire_profile outcome.Refine.final_profile;
                  rounds;
                }))

let handle t (req : Protocol.request) : Protocol.body =
  let dispatch domain run =
    match state_for t domain with
    | Error msg -> Protocol.Failed msg
    | Ok st ->
        Metrics.incr st.requests;
        run st
  in
  match req.Protocol.kind with
  | Protocol.Generate { task; seed; temperature; domain } ->
      dispatch domain (fun st -> generate st ~task ~seed ~temperature)
  | Protocol.Verify { steps; scenario; domain; explain } ->
      dispatch domain (fun st -> verify st ~scenario ~explain steps)
  | Protocol.Score_pair { steps_a; steps_b; scenario; domain; explain } ->
      dispatch domain (fun st ->
          score_pair st ~scenario ~explain steps_a steps_b)
  | Protocol.Refine
      { task; steps; seed; scenario; domain; explain; max_rounds; attempts } ->
      dispatch domain (fun st ->
          refine t st ~id:req.Protocol.id ~task ~steps ~seed ~scenario ~explain
            ~max_rounds ~attempts)
  | Protocol.Stats { domain } -> stats_body t ~domain
  | Protocol.Health { domain } -> (
      (* queue visibility belongs to the daemon, which answers [health]
         ahead of admission; an engine reached directly still reports what
         it owns — the per-domain request counters *)
      match request_counts t ~domain with
      | Error msg -> Protocol.Failed msg
      | Ok domains ->
          Protocol.Health_report
            {
              queue_depth = 0;
              in_flight_batches = 0;
              draining = false;
              domains;
              shards = [];
            })
