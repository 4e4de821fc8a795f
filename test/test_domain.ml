(* The domain plug-in layer: registry strictness, generated-suite sanity
   gates, cross-domain pipeline determinism, and the per-domain serving
   protocol. *)

module Domain = Dpoaf_domain.Domain
module Registry = Dpoaf_domain.Registry
module Spec_gen = Dpoaf_domain.Spec_gen
module Corpus = Dpoaf_pipeline.Corpus
module Feedback = Dpoaf_pipeline.Feedback
module Dpoaf = Dpoaf_pipeline.Dpoaf
module Pref_data = Dpoaf_dpo.Pref_data
module P = Dpoaf_serve.Protocol
module Engine = Dpoaf_serve.Engine
module Rng = Dpoaf_util.Rng
module MC = Dpoaf_automata.Model_checker
module Vacuity = Dpoaf_analysis.Vacuity
module Explain = Dpoaf_analysis.Explain
module Refine = Dpoaf_refine.Refine

let contains hay needle =
  let h = String.length hay and n = String.length needle in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let builtin_names = [ "driving"; "household"; "warehouse" ]

(* ---------------- registry ---------------- *)

let test_builtins_registered () =
  let names = Dpoaf_domain.names () in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " registered") true (List.mem n names))
    builtin_names;
  Alcotest.(check string) "driving is the default" "driving"
    Dpoaf_domain.default;
  Alcotest.(check string) "default resolves" "driving"
    (Domain.name (Dpoaf_domain.find_exn Dpoaf_domain.default))

let test_unknown_domain_error () =
  match Dpoaf_domain.find_exn "underwater" with
  | _ -> Alcotest.fail "expected Failure for an unknown domain"
  | exception Failure msg ->
      Alcotest.(check bool) "names the unknown" true
        (contains msg "underwater");
      List.iter
        (fun n ->
          Alcotest.(check bool) ("error lists " ^ n) true (contains msg n))
        builtin_names

let test_duplicate_registration_rejected () =
  (* a second pack under an existing name must be refused, loudly *)
  match Registry.register Dpoaf_domain.Pack_household.pack with
  | () -> Alcotest.fail "expected Invalid_argument for a duplicate name"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the duplicate" true
        (contains msg "household")

(* ---------------- generated suites pass the sanity gates ---------------- *)

(* Re-run the full analysis gate on every registered pack's rule book:
   each spec satisfiable, none a tautology, pairwise non-redundant, and
   non-vacuous on the pack's universal model.  The generated packs must
   be completely clean (Spec_gen enforces this at construction; this
   pins it).  Driving's hand-written paper suite carries five known
   info-level SPEC003 redundancies (phi_2, phi_11, phi_15 are implied by
   other rules) — pinned here too, so a regression in either direction
   is caught. *)
let test_suites_pass_gates () =
  List.iter
    (fun domain ->
      let (module D : Domain.S) = domain in
      let diags =
        Dpoaf_analysis.Spec_sanity.check ~model:(D.universal ())
          ~free:(Dpoaf_logic.Symbol.of_atoms D.actions)
          ~pairwise:true (D.specs ())
      in
      let serious, info =
        List.partition
          (fun d -> d.Dpoaf_analysis.Diagnostic.severity <> Dpoaf_analysis.Diagnostic.Info)
          diags
      in
      Alcotest.(check int)
        (D.name ^ ": no error/warning spec diagnostics")
        0 (List.length serious);
      let expected_info = if D.name = "driving" then 5 else 0 in
      Alcotest.(check int)
        (D.name ^ ": pinned info-diagnostic count")
        expected_info (List.length info);
      let model_diags =
        Dpoaf_analysis.Model_lint.lint ~specs:(D.specs ())
          ~ignore:(Dpoaf_logic.Symbol.of_atoms D.actions)
          (D.universal ())
      in
      Alcotest.(check int)
        (D.name ^ ": no model-lint diagnostics")
        0 (List.length model_diags))
    (Dpoaf_domain.all ())

let test_spec_gen_rejects_redundant_suite () =
  let (module H : Domain.S) = Dpoaf_domain.find_exn "household" in
  let p =
    Spec_gen.Never
      { trigger = Dpoaf_logic.Ltl.atom "human nearby"; action = "move to goal" }
  in
  match
    Spec_gen.suite ~domain:"dup-suite" ~model:(H.universal ())
      ~actions:H.actions [ p; p ]
  with
  | _ -> Alcotest.fail "expected Rejected for a duplicated pattern"
  | exception Spec_gen.Rejected { domain; diagnostics } ->
      Alcotest.(check string) "names the suite" "dup-suite" domain;
      Alcotest.(check bool) "carries diagnostics" true (diagnostics <> [])

(* qcheck: for any pack and any response assembled from its candidate
   steps, the verification profile partitions the pack's rule book and
   vacuous satisfactions stay inside the satisfied set *)
let arb_pack_response =
  let gen =
    QCheck.Gen.(
      let* domain = oneofl (Dpoaf_domain.all ()) in
      let (module D : Domain.S) = domain in
      let* task = oneofl D.tasks in
      let pool = Domain.candidate_steps domain task in
      let* n = 0 -- min 4 (List.length pool) in
      let* picks = list_size (return n) (oneofl pool) in
      return (domain, picks))
  in
  QCheck.make
    ~print:(fun (d, steps) ->
      Domain.name d ^ ": " ^ String.concat " / " steps)
    gen

(* The reference profile: two products, as the packs once computed it —
   [verify_all] on one, [Vacuity.vacuously_satisfied] on a fresh one —
   with [violated] the rule book minus [satisfied], in rule-book order. *)
let two_product_profile domain steps =
  let (module D : Domain.S) = domain in
  let model = D.universal () in
  let controller, _ = D.controller_of_steps ~name:"response" steps in
  let specs = D.specs () in
  let satisfied =
    MC.verify_all ~model ~controller ~specs
    |> List.filter_map (fun (n, _, v) -> if MC.is_holds v then Some n else None)
  in
  {
    Domain.satisfied;
    violated =
      List.filter (fun n -> not (List.mem n satisfied)) (Domain.spec_names domain);
    vacuous = Vacuity.vacuously_satisfied ~model ~controller ~specs ~satisfied;
  }

let prop_profile_partitions =
  QCheck.Test.make ~count:120 ~name:"profile partitions any pack's rule book"
    arb_pack_response (fun (domain, steps) ->
      let (module D : Domain.S) = domain in
      let p = D.profile_of_steps steps in
      let names = Domain.spec_names domain in
      p = two_product_profile domain steps
      && List.for_all (fun n -> List.mem n names) p.Domain.satisfied
      && List.for_all (fun n -> List.mem n p.Domain.satisfied) p.Domain.vacuous
      && List.length p.Domain.satisfied + List.length p.Domain.violated
         = Domain.spec_count domain)

(* [~only] checks a subset of the rule book on the same product: the
   explanations must be exactly the full list's, filtered *)
let prop_explain_only_filters =
  QCheck.Test.make ~count:40 ~name:"explain_steps ~only = full list filtered"
    arb_pack_response (fun (domain, steps) ->
      let (module D : Domain.S) = domain in
      let full = Domain.explain_steps domain steps in
      let violated = (D.profile_of_steps steps).Domain.violated in
      let alternate = List.filteri (fun i _ -> i mod 2 = 0) violated in
      List.for_all
        (fun only ->
          Domain.explain_steps domain ~only steps
          = List.filter (fun (e : Explain.t) -> List.mem e.Explain.spec only) full)
        [ violated; alternate; [] ])

(* the refinement loop's feedback is the same compile-and-check, rendered
   through its (spec, lasso) cache *)
let prop_refine_explanations_agree =
  QCheck.Test.make ~count:40 ~name:"Refine.explanations = explain_steps ~only"
    arb_pack_response (fun (domain, steps) ->
      let (module D : Domain.S) = domain in
      let refiner =
        Refine.create ~domain
          ~sample:(fun ~feedback:_ ~round:_ ~attempt:_ -> steps)
          ()
      in
      let violated = (D.profile_of_steps steps).Domain.violated in
      Refine.explanations refiner ~violated steps
      = List.map
          (fun (e : Explain.t) -> (e.Explain.spec, e.Explain.text))
          (Domain.explain_steps domain ~only:violated steps))

(* ---------------- pinned counterexamples ---------------- *)

(* Every counterexample the verifier reports (spec, lasso labels,
   state descriptions, provenance tags) and every explanation sentence,
   for the pack's demo responses plus 50 seeded step lists, digested.
   The digests pin lassos and explanation text across changes to the
   product, emptiness and Kripke encoding: a kernel change that
   renumbers states or picks another lasso moves them. *)
let counterexample_digests =
  [
    ("driving", "342985919fa001103fd3c860a414db08");
    ("household", "bbf53f6567e6e4f64f1c74993a07ac8d");
    ("warehouse", "f64facbc9d73fd14650a9dd7d09c68b5");
  ]

let seeded_step_lists domain ~count =
  let rng = Rng.create 22 in
  let tasks = Domain.tasks domain in
  List.init count (fun _ ->
      let pool = Domain.candidate_steps domain (Rng.choice_list rng tasks) in
      let n = 1 + Rng.int rng (min 5 (List.length pool)) in
      List.init n (fun _ -> Rng.choice_list rng pool))

let counterexample_digest domain =
  let (module D : Domain.S) = domain in
  let b = Buffer.create 4096 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  let symbols l = String.concat " " (List.map Dpoaf_logic.Symbol.to_string l) in
  let ints l = String.concat " " (List.map string_of_int l) in
  List.iter
    (fun steps ->
      line "response %s" (String.concat " / " steps);
      List.iter
        (fun (name, _, (cex : MC.counterexample)) ->
          line "cex %s" name;
          line "prefix %s" (symbols cex.MC.prefix);
          line "cycle %s" (symbols cex.MC.cycle);
          line "prefix_descr %s" (String.concat " | " cex.MC.prefix_descr);
          line "cycle_descr %s" (String.concat " | " cex.MC.cycle_descr);
          line "tags %s / %s" (ints cex.MC.prefix_tags) (ints cex.MC.cycle_tags))
        (Domain.counterexamples domain steps);
      List.iter
        (fun (e : Explain.t) -> line "explain %s: %s" e.Explain.spec e.Explain.text)
        (Domain.explain_steps domain steps))
    (List.map snd D.demo_responses @ seeded_step_lists domain ~count:50);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_counterexamples_pinned () =
  List.iter
    (fun (name, pinned) ->
      Alcotest.(check string)
        (name ^ " counterexample digest")
        pinned
        (counterexample_digest (Dpoaf_domain.find_exn name)))
    counterexample_digests

(* ---------------- cross-domain pipeline determinism ---------------- *)

let small_model corpus seed =
  Corpus.pretrained_model
    ~config:
      { Dpoaf_lm.Model.dim = 12; context = 10; lora_rank = 2;
        arch = Dpoaf_lm.Model.Bow }
    ~per_task:20 ~epochs:10 (Rng.create seed) corpus

(* jobs=1 and jobs=4 must mine bit-identical preference pairs in every
   pack, not just driving: sampling stays on the sequential RNG stream
   and scoring is order-preserved by the scheduler *)
let test_collect_pairs_jobs_deterministic_all_packs () =
  List.iter
    (fun domain ->
      let name = Domain.name domain in
      let corpus = Corpus.build ~domain () in
      let model = small_model corpus 3 in
      let run jobs =
        let feedback = Feedback.create ~domain () in
        Dpoaf.collect_pairs ~jobs corpus feedback model (Rng.create 4) ~m:6
          Domain.Training
      in
      let seq = run 1 in
      let par = run 4 in
      Alcotest.(check bool) (name ^ ": pairs mined") true (seq <> []);
      Alcotest.(check int)
        (name ^ ": same pair count")
        (List.length seq) (List.length par);
      List.iter2
        (fun (a : Pref_data.pair) (b : Pref_data.pair) ->
          Alcotest.(check string) (name ^ ": task") a.Pref_data.task_id
            b.Pref_data.task_id;
          Alcotest.(check (list int)) (name ^ ": chosen") a.Pref_data.chosen
            b.Pref_data.chosen;
          Alcotest.(check (list int))
            (name ^ ": rejected")
            a.Pref_data.rejected b.Pref_data.rejected;
          Alcotest.(check int)
            (name ^ ": chosen score")
            a.Pref_data.chosen_score b.Pref_data.chosen_score;
          Alcotest.(check int)
            (name ^ ": rejected score")
            a.Pref_data.rejected_score b.Pref_data.rejected_score)
        seq par)
    (Dpoaf_domain.all ())

(* ---------------- per-domain serve protocol ---------------- *)

let check_request golden req =
  Alcotest.(check string) "encode" golden (P.request_to_string req);
  match P.request_of_string golden with
  | Error e -> Alcotest.fail ("decode: " ^ e)
  | Ok r -> Alcotest.(check bool) "decode equals value" true (r = req)

(* exact wire bytes for domain-tagged requests, both directions — and the
   untagged forms stay byte-identical to the pre-domain protocol (see
   test_serve's goldens) *)
let test_domain_request_goldens () =
  check_request
    {|{"id":"g1","kind":"generate","task":"fetch_cup","seed":3,"temperature":1,"domain":"household"}|}
    {
      P.id = "g1";
      kind =
        P.Generate
          {
            task = "fetch_cup";
            seed = 3;
            temperature = 1.0;
            domain = Some "household";
          };
      deadline_ms = None;
    };
  check_request
    {|{"id":"v1","kind":"verify","steps":["halt"],"scenario":"aisle","domain":"warehouse","deadline_ms":25}|}
    {
      P.id = "v1";
      kind =
        P.Verify
          {
            steps = [ "halt" ];
            scenario = Some "aisle";
            domain = Some "warehouse";
            explain = false;
          };
      deadline_ms = Some 25.0;
    };
  check_request
    {|{"id":"s1","kind":"score_pair","steps_a":["proceed"],"steps_b":["halt"],"domain":"warehouse"}|}
    {
      P.id = "s1";
      kind =
        P.Score_pair
          {
            steps_a = [ "proceed" ];
            steps_b = [ "halt" ];
            scenario = None;
            domain = Some "warehouse";
            explain = false;
          };
      deadline_ms = None;
    }

let multi_engine =
  lazy
    (Engine.create_multi
       [
         (None, Corpus.build ~domain:(Dpoaf_domain.find_exn "household") ());
         (None, Corpus.build ~domain:(Dpoaf_domain.find_exn "warehouse") ());
       ])

let verify ?domain engine steps =
  Engine.handle engine
    {
      P.id = "x";
      kind = P.Verify { steps; scenario = None; domain; explain = false };
      deadline_ms = None;
    }

let test_multi_domain_routing () =
  let engine = Lazy.force multi_engine in
  Alcotest.(check (list string))
    "serves both, household default"
    [ "household"; "warehouse" ] (Engine.domains engine);
  let rule_book_size body =
    match body with
    | P.Verified { profile = p; _ } ->
        List.length p.P.satisfied + List.length p.P.violated
    | b -> Alcotest.failf "expected Verified, got %s" (P.status_of_body b)
  in
  let steps = [ "stop" ] in
  Alcotest.(check int) "household request hits the 10-spec book" 10
    (rule_book_size (verify ~domain:"household" engine steps));
  Alcotest.(check int) "warehouse request hits the 14-spec book" 14
    (rule_book_size (verify ~domain:"warehouse" engine steps));
  Alcotest.(check int) "untagged request goes to the default pack" 10
    (rule_book_size (verify engine steps))

let test_multi_domain_unserved_error () =
  let engine = Lazy.force multi_engine in
  match verify ~domain:"driving" engine [ "stop" ] with
  | P.Failed msg ->
      Alcotest.(check bool) "names the missing pack" true
        (contains msg "driving");
      Alcotest.(check bool) "lists the served packs" true
        (contains msg "household" && contains msg "warehouse")
  | b -> Alcotest.failf "expected Failed, got %s" (P.status_of_body b)

let test_create_multi_duplicate_rejected () =
  let corpus = Corpus.build ~domain:(Dpoaf_domain.find_exn "warehouse") () in
  match Engine.create_multi [ (None, corpus); (None, corpus) ] with
  | _ -> Alcotest.fail "expected Invalid_argument for duplicate packs"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the duplicate" true
        (contains msg "warehouse")

(* ---------------- driving stays bit-identical ---------------- *)

(* the driving pack must delegate to Dpoaf_driving, not re-derive: same
   rule book, same task set, same controller semantics *)
let test_driving_pack_delegates () =
  let domain = Dpoaf_domain.find_exn "driving" in
  let (module D : Domain.S) = domain in
  Alcotest.(check (list string))
    "same spec names"
    (List.map fst Dpoaf_driving.Specs.all)
    (Domain.spec_names domain);
  Alcotest.(check (list string))
    "same task ids"
    (List.map (fun t -> t.Dpoaf_driving.Tasks.id) Dpoaf_driving.Tasks.all)
    (List.map (fun t -> t.Domain.id) D.tasks);
  let steps = Dpoaf_driving.Responses.right_turn_after_ft in
  let p = D.profile_of_steps steps in
  Alcotest.(check int) "canonical response scores 15/15" 15
    (List.length p.Domain.satisfied);
  List.iter
    (fun t ->
      Alcotest.(check (list string))
        (t.Domain.id ^ ": candidate steps match the driving library")
        (Dpoaf_driving.Responses.candidate_steps
           (Dpoaf_driving.Tasks.find t.Domain.id))
        (Domain.candidate_steps domain t))
    D.tasks

let qsuite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests)

let () =
  Alcotest.run "domain"
    [
      ( "registry",
        [
          Alcotest.test_case "builtins registered" `Quick
            test_builtins_registered;
          Alcotest.test_case "unknown name lists valid packs" `Quick
            test_unknown_domain_error;
          Alcotest.test_case "duplicate name rejected" `Quick
            test_duplicate_registration_rejected;
        ] );
      ( "suites",
        [
          Alcotest.test_case "all packs pass the analysis gates" `Quick
            test_suites_pass_gates;
          Alcotest.test_case "spec_gen rejects a redundant suite" `Quick
            test_spec_gen_rejects_redundant_suite;
        ] );
      qsuite "properties"
        [
          prop_profile_partitions;
          prop_explain_only_filters;
          prop_refine_explanations_agree;
        ];
      ( "pinned",
        [
          Alcotest.test_case "counterexamples and explanations per pack" `Quick
            test_counterexamples_pinned;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "jobs-deterministic in every pack" `Slow
            test_collect_pairs_jobs_deterministic_all_packs;
        ] );
      ( "serve",
        [
          Alcotest.test_case "domain-tagged request goldens" `Quick
            test_domain_request_goldens;
          Alcotest.test_case "multi-domain routing" `Quick
            test_multi_domain_routing;
          Alcotest.test_case "unserved domain fails gracefully" `Quick
            test_multi_domain_unserved_error;
          Alcotest.test_case "duplicate packs rejected" `Quick
            test_create_multi_duplicate_rejected;
        ] );
      ( "driving",
        [
          Alcotest.test_case "pack delegates to the driving library" `Quick
            test_driving_pack_delegates;
        ] );
    ]
