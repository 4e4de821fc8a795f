(* Command-line interface to the DPO-AF pipeline.

   dpoaf_cli domains                      list registered domain packs
   dpoaf_cli tasks [--domain D]           list a pack's control tasks
   dpoaf_cli specs [--domain D]           list a pack's LTL rule book
   dpoaf_cli verify --step "..." ...      verify a response's steps
   dpoaf_cli synthesize --task ID         sample + rank responses
   dpoaf_cli refine --step "..." ...      counterexample-guided repair
   dpoaf_cli finetune --out model.ckpt    run the full DPO-AF pipeline
   dpoaf_cli simulate --task ID           empirical P_Φ in the simulator
   dpoaf_cli report trace.jsonl           summarize a recorded trace
   dpoaf_cli smv --step "..." ...         export a controller to NuSMV
   dpoaf_cli serve --socket PATH          serving daemon (NDJSON)
   dpoaf_cli loadgen --rate N             replay synthetic traffic at it
   dpoaf_cli stats [--watch N]            live daemon metrics (json|prom)
   dpoaf_cli health                       daemon queue/drain liveness
   dpoaf_cli report --journal FILE        summarize a serving journal

   Every pipeline-facing subcommand takes --domain NAME (default:
   driving, the paper's use case); unknown names are rejected with the
   registered list, never silently defaulted. *)

open Cmdliner
module Domain = Dpoaf_domain.Domain
module MC = Dpoaf_automata.Model_checker
module Pipeline = Dpoaf_pipeline
module Rng = Dpoaf_util.Rng
module Table = Dpoaf_util.Table
module Metrics = Dpoaf_exec.Metrics
module Span = Dpoaf_exec.Trace
module Refine = Dpoaf_refine

(* ---------------- shared arguments ---------------- *)

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("error: " ^ msg);
      exit 1)
    fmt

(* strict: an unknown domain name is a usage error listing the
   registered packs, never a silent fallback to driving *)
let domain_conv =
  let parse s =
    match Dpoaf_domain.find s with
    | Some d -> Ok d
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown domain %S; expected one of: %s" s
                (String.concat ", " (Dpoaf_domain.names ()))))
  in
  let print ppf d = Format.pp_print_string ppf (Domain.name d) in
  Arg.conv (parse, print)

let domain_arg =
  let doc =
    "Domain pack to operate in (see `dpoaf_cli domains`). Unknown names \
     are rejected."
  in
  Arg.(
    value
    & opt domain_conv (Dpoaf_domain.find_exn Dpoaf_domain.default)
    & info [ "domain" ] ~docv:"NAME" ~doc)

(* scenario validity depends on the chosen pack, so the name is resolved
   (strictly) at run time via [Domain.model_of_scenario] *)
let scenario_arg =
  let doc =
    "World model to verify against: one of the pack's scenarios (see \
     `dpoaf_cli tasks`) or universal (default). Unknown names are \
     rejected."
  in
  Arg.(value & opt (some string) None & info [ "scenario" ] ~docv:"MODEL" ~doc)

let resolve_model domain scenario =
  match Domain.model_of_scenario domain scenario with
  | Ok model -> model
  | Error msg -> die "%s" msg

let steps_arg =
  let doc = "One instruction step (repeatable, in order)." in
  Arg.(value & opt_all string [] & info [ "step"; "s" ] ~docv:"TEXT" ~doc)

let task_arg =
  let doc =
    "Task id (see `dpoaf_cli tasks`; default: the pack's first task)."
  in
  Arg.(value & opt (some string) None & info [ "task" ] ~docv:"ID" ~doc)

let resolve_task domain = function
  | Some id -> (
      match Domain.find_task domain id with
      | Some t -> t
      | None ->
          die "unknown task %S in domain %S (valid: %s)" id
            (Domain.name domain)
            (String.concat ", "
               (List.map (fun t -> t.Domain.id) (Domain.tasks domain))))
  | None -> (
      match Domain.tasks domain with
      | t :: _ -> t
      | [] -> die "domain %S has no tasks" (Domain.name domain))

(* the worked example to fall back on when no --step is given: the
   post-fine-tuning demo response whose name shares the longest prefix
   with the task id (e.g. left_turn_ll -> left_turn_after_ft) *)
let demo_response_for domain task_id =
  let (module D : Domain.S) = domain in
  let after_ft (name, _) =
    let suffix = "_after_ft" in
    String.length name >= String.length suffix
    && String.sub name
         (String.length name - String.length suffix)
         (String.length suffix)
       = suffix
  in
  let common_prefix a b =
    let n = min (String.length a) (String.length b) in
    let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
    go 0
  in
  let candidates =
    match List.filter after_ft D.demo_responses with
    | [] -> D.demo_responses
    | cs -> cs
  in
  match candidates with
  | [] -> die "domain %S has no demo responses" D.name
  | first :: _ ->
      List.fold_left
        (fun (bn, bs) (n, s) ->
          if common_prefix n task_id > common_prefix bn task_id then (n, s)
          else (bn, bs))
        first candidates

let seed_arg =
  Arg.(value & opt int 2024 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

(* strict positive-integer flag values: --jobs, --watch, --journal-max-kb *)
let pos_int_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ -> Error (`Msg "expected a positive integer")
    | None -> Error (`Msg "expected an integer")
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_arg =
  let doc =
    "Worker domains for parallel scoring, rollouts and multi-seed training. \
     Results are identical for every value (the scheduler preserves order \
     and RNG streams); 1 disables parallelism."
  in
  Arg.(value & opt pos_int_conv 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let set_jobs n = Dpoaf_exec.Pool.set_default_jobs n

let trace_arg =
  let doc =
    "Record spans and metrics to $(docv) (JSONL, readable by `dpoaf_cli \
     report`); a Chrome/Perfetto trace is written alongside as \
     $(docv).perfetto.json."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_json_arg =
  let doc = "Write the metrics summary (counters, timers, histogram \
             percentiles) as JSON to $(docv)." in
  Arg.(value & opt (some string) None
       & info [ "metrics-json" ] ~docv:"FILE" ~doc)

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc contents

(* Enable tracing up front when requested, run the command body, then
   flush the trace (JSONL + sibling Perfetto file) and metrics summary. *)
let with_telemetry ~trace ~metrics_json f =
  if trace <> None then Span.enable ();
  let finish () =
    (match trace with
    | None -> ()
    | Some path ->
        Span.write_jsonl path;
        Span.write_chrome (path ^ ".perfetto.json");
        Printf.printf "trace written to %s (and %s.perfetto.json)\n" path path);
    match metrics_json with
    | None -> ()
    | Some path ->
        write_file path (Metrics.to_json () ^ "\n");
        Printf.printf "metrics written to %s\n" path
  in
  Fun.protect ~finally:finish f

(* ---------------- domains ---------------- *)

let run_domains quiet =
  if quiet then List.iter print_endline (Dpoaf_domain.names ())
  else begin
    let table =
      Table.create [ "name"; "tasks"; "specs"; "scenarios"; "actions" ]
    in
    List.iter
      (fun domain ->
        let (module D : Domain.S) = domain in
        Table.add_row table
          [
            D.name;
            string_of_int (List.length D.tasks);
            string_of_int (Domain.spec_count domain);
            string_of_int (List.length D.scenarios);
            string_of_int (List.length D.actions);
          ])
      (Dpoaf_domain.all ());
    Table.print table
  end

let domains_cmd =
  let quiet_arg =
    Arg.(value & flag
         & info [ "quiet"; "q" ] ~doc:"Print one pack name per line.")
  in
  Cmd.v
    (Cmd.info "domains" ~doc:"List the registered domain packs.")
    Term.(const run_domains $ quiet_arg)

(* ---------------- tasks ---------------- *)

let run_tasks domain =
  let table = Table.create [ "id"; "prompt"; "scenario"; "split" ] in
  List.iter
    (fun t ->
      Table.add_row table
        [
          t.Domain.id;
          t.Domain.prompt;
          t.Domain.scenario;
          (match t.Domain.split with
          | Domain.Training -> "training"
          | Domain.Validation -> "validation");
        ])
    (Domain.tasks domain);
  Table.print table

let tasks_cmd =
  Cmd.v (Cmd.info "tasks" ~doc:"List a domain pack's control tasks.")
    Term.(const run_tasks $ domain_arg)

(* ---------------- specs ---------------- *)

let run_specs domain =
  let (module D : Domain.S) = domain in
  List.iter
    (fun (name, phi) ->
      Printf.printf "%-8s %s\n" name (Dpoaf_logic.Ltl.to_string phi))
    (D.specs ())

let specs_cmd =
  Cmd.v
    (Cmd.info "specs" ~doc:"List a domain pack's LTL rule-book specifications.")
    Term.(const run_specs $ domain_arg)

(* ---------------- verify ---------------- *)

let run_verify domain steps scenario =
  let (module D : Domain.S) = domain in
  let steps =
    if steps <> [] then steps
    else begin
      let name, demo =
        match D.demo_responses with
        | first :: _ -> first
        | [] -> die "domain %S has no demo responses" D.name
      in
      Printf.printf "(no --step given: verifying the %s demo response %S)\n"
        D.name name;
      demo
    end
  in
  let controller, stats = D.controller_of_steps ~name:"cli" steps in
  Printf.printf "parsed %d/%d steps (%d degraded, %d dropped)\n"
    (stats.Dpoaf_lang.Step_parser.total - stats.Dpoaf_lang.Step_parser.failed)
    stats.Dpoaf_lang.Step_parser.total stats.Dpoaf_lang.Step_parser.degraded
    stats.Dpoaf_lang.Step_parser.failed;
  let model = resolve_model domain scenario in
  let verdicts = MC.verify_all ~model ~controller ~specs:(D.specs ()) in
  List.iter
    (fun (name, phi, verdict) ->
      Printf.printf "%-8s %-60s %s\n" name
        (Dpoaf_logic.Ltl.to_string phi)
        (match verdict with MC.Holds -> "holds" | MC.Fails _ -> "FAILS"))
    verdicts;
  let sat = List.length (List.filter (fun (_, _, v) -> MC.is_holds v) verdicts) in
  Printf.printf "satisfied: %d/%d\n" sat (List.length verdicts);
  List.iter
    (fun (name, _, verdict) ->
      match verdict with
      | MC.Holds -> ()
      | MC.Fails cex ->
          Printf.printf "\ncounterexample for %s:\n" name;
          List.iter (Printf.printf "  %s\n") cex.MC.prefix_descr;
          print_endline "  -- cycle --";
          List.iter (Printf.printf "  %s\n") cex.MC.cycle_descr)
    (List.filteri (fun i _ -> i < 1) (List.filter (fun (_, _, v) -> not (MC.is_holds v)) verdicts))

let verify_cmd =
  Cmd.v
    (Cmd.info "verify" ~doc:"Verify a response's steps against the rule book.")
    Term.(const run_verify $ domain_arg $ steps_arg $ scenario_arg)

(* ---------------- synthesize ---------------- *)

let run_synthesize domain task_id n seed =
  let task = resolve_task domain task_id in
  let corpus = Pipeline.Corpus.build ~domain () in
  let rng = Rng.create seed in
  Printf.printf "pre-training the %s language model (seed %d)...\n%!"
    (Domain.name domain) seed;
  let model = Pipeline.Corpus.pretrained_model rng corpus in
  let feedback = Pipeline.Feedback.create ~domain () in
  let setup = Pipeline.Corpus.setup corpus task in
  let snap = Dpoaf_lm.Sampler.snapshot model in
  Printf.printf "sampling %d responses for %S:\n\n" n task.Domain.prompt;
  List.iter
    (fun i ->
      let tokens =
        Dpoaf_lm.Sampler.sample snap rng ~prompt:setup.Pipeline.Corpus.prompt
          ~grammar:setup.Pipeline.Corpus.grammar
          ~min_clauses:setup.Pipeline.Corpus.min_clauses
          ~max_clauses:setup.Pipeline.Corpus.max_clauses ()
      in
      let score = Pipeline.Feedback.score_tokens feedback ~corpus setup tokens in
      Printf.printf "response %d — satisfies %d/%d specifications:\n" (i + 1)
        score (Domain.spec_count domain);
      List.iteri
        (fun j s -> Printf.printf "  %d. %s\n" (j + 1) s)
        (Pipeline.Corpus.steps_of_tokens corpus tokens);
      print_newline ())
    (List.init n Fun.id)

let synthesize_cmd =
  let n_arg =
    Arg.(value & opt int 5 & info [ "n" ] ~docv:"N" ~doc:"Number of responses.")
  in
  Cmd.v
    (Cmd.info "synthesize"
       ~doc:"Sample responses from the pre-trained model and rank them by verification.")
    Term.(const run_synthesize $ domain_arg $ task_arg $ n_arg $ seed_arg)

(* ---------------- refine ---------------- *)

(* Counterexample-guided repair from the command line.  With --step, the
   given response is refined for --task; without it, a seeded pool of
   repairable defects (careless final steps that actually violate specs)
   is built per task and every response is refined — the offline twin of
   the serve-level refine verb, and what make daemon-check drives. *)
let run_refine domain task_id steps seed rounds attempts scenario explain
    store_path =
  let corpus = Pipeline.Corpus.build ~domain () in
  let rng = Rng.create seed in
  Printf.printf "pre-training the %s language model (seed %d)...\n%!"
    (Domain.name domain) seed;
  let model = Pipeline.Corpus.pretrained_model rng corpus in
  let snapshot = Dpoaf_lm.Sampler.snapshot model in
  let world = resolve_model domain scenario in
  let budget =
    { Refine.Refine.max_rounds = rounds; attempts; round_deadline_ms = None }
  in
  let store = Option.map Refine.Pref_store.create store_path in
  let cache =
    Refine.Refine.explain_cache
      ~name:(Printf.sprintf "refine.explain.%s" (Domain.name domain))
  in
  let vocab = corpus.Pipeline.Corpus.vocab in
  let refine_one (task : Domain.task) response =
    let setup = Pipeline.Corpus.setup corpus task in
    let sample =
      Refine.Refine.conditioned_sampler ~snapshot
        ~encode:(Dpoaf_lm.Vocab.encode vocab)
        ~decode:(Pipeline.Corpus.steps_of_tokens corpus)
        ~prompt:setup.Pipeline.Corpus.prompt
        ~grammar:setup.Pipeline.Corpus.grammar
        ~min_clauses:setup.Pipeline.Corpus.min_clauses
        ~max_clauses:setup.Pipeline.Corpus.max_clauses
        ~sep:(Dpoaf_lm.Vocab.sep vocab) ~seed ()
    in
    let refiner = Refine.Refine.create ~domain ~model:world ~cache ~sample () in
    let outcome = Refine.Refine.run ~budget refiner response in
    Printf.printf "task %s: %d violated initially\n" task.Domain.id
      (List.length outcome.Refine.Refine.original_profile.Refine.Refine.violated);
    List.iter
      (fun (r : Refine.Refine.round) ->
        Printf.printf "  round %d: violated=%d %s (margin %+d)\n"
          r.Refine.Refine.index
          (List.length
             r.Refine.Refine.candidate_profile.Refine.Refine.violated)
          (if r.Refine.Refine.accepted then "accepted" else "rejected")
          r.Refine.Refine.margin;
        if explain then
          List.iter
            (fun (spec, text) -> Printf.printf "    [%s] %s\n" spec text)
            r.Refine.Refine.feedback)
      outcome.Refine.Refine.rounds;
    Printf.printf "status: %s (%d -> %d violated, %d rounds)\n"
      (Refine.Refine.status_name outcome.Refine.Refine.status)
      (List.length outcome.Refine.Refine.original_profile.Refine.Refine.violated)
      (List.length outcome.Refine.Refine.final_profile.Refine.Refine.violated)
      (List.length outcome.Refine.Refine.rounds);
    if outcome.Refine.Refine.final <> response then begin
      print_endline "repaired steps:";
      List.iteri
        (fun i s -> Printf.printf "  %d. %s\n" (i + 1) s)
        outcome.Refine.Refine.final
    end;
    print_newline ();
    (match store with
    | None -> ()
    | Some st ->
        List.iter
          (fun (r : Refine.Refine.round) ->
            if r.Refine.Refine.accepted then
              Refine.Pref_store.append st
                {
                  Dpoaf_dpo.Pref_data.h_task = task.Domain.id;
                  h_domain = Domain.name domain;
                  h_round = r.Refine.Refine.index;
                  h_seed = seed;
                  h_chosen_steps = r.Refine.Refine.candidate;
                  h_rejected_steps = response;
                  h_chosen_score =
                    List.length
                      r.Refine.Refine.candidate_profile.Refine.Refine.satisfied;
                  h_rejected_score =
                    List.length
                      outcome.Refine.Refine.original_profile
                        .Refine.Refine.satisfied;
                  h_chosen_satisfied =
                    r.Refine.Refine.candidate_profile.Refine.Refine.satisfied;
                  h_rejected_satisfied =
                    outcome.Refine.Refine.original_profile
                      .Refine.Refine.satisfied;
                  h_chosen_vacuous =
                    r.Refine.Refine.candidate_profile.Refine.Refine.vacuous;
                  h_explanations = r.Refine.Refine.feedback;
                })
          outcome.Refine.Refine.rounds);
    outcome
  in
  (match steps with
  | _ :: _ ->
      let task = resolve_task domain task_id in
      ignore (refine_one task steps)
  | [] ->
      let pool = Refine.Refine.defect_pool ~model:world domain ~seed ~per_task:2 in
      if pool = [] then die "domain %S yields no repairable defects" (Domain.name domain);
      Printf.printf "refining %d seeded defective responses...\n\n"
        (List.length pool);
      let outcomes = List.map (fun (task, response) -> refine_one task response) pool in
      let count p = List.length (List.filter p outcomes) in
      let clean =
        count (fun o -> o.Refine.Refine.status = Refine.Refine.Clean)
      in
      let improved =
        count (fun o -> o.Refine.Refine.status <> Refine.Refine.Unchanged)
      in
      Printf.printf
        "refine summary: improved %d/%d defective responses (%d fully clean) \
         within %d rounds\n"
        improved (List.length pool) clean rounds);
  match store with
  | None -> ()
  | Some st ->
      Refine.Pref_store.close st;
      Printf.printf "preference store written to %s\n"
        (Refine.Pref_store.path st)

let refine_cmd =
  let rounds_arg =
    Arg.(value & opt pos_int_conv Refine.Refine.default_budget.Refine.Refine.max_rounds
         & info [ "rounds" ] ~docv:"N" ~doc:"Maximum refinement rounds.")
  in
  let attempts_arg =
    Arg.(value & opt pos_int_conv Refine.Refine.default_budget.Refine.Refine.attempts
         & info [ "attempts" ] ~docv:"N"
             ~doc:"Candidates re-sampled per round.")
  in
  let explain_flag =
    Arg.(value & flag
         & info [ "explain" ]
             ~doc:"Print the counterexample feedback sentences that \
                   conditioned each round.")
  in
  let store_arg =
    Arg.(value & opt (some string) None
         & info [ "store" ] ~docv:"FILE"
             ~doc:"Append every accepted repair as a harvested preference \
                   pair (dpoaf-prefstore/1 JSONL) to $(docv).")
  in
  Cmd.v
    (Cmd.info "refine"
       ~doc:"Repair a defective response by feeding counterexample \
             explanations back into re-sampling; without --step, refine a \
             seeded pool of repairable defects per task.")
    Term.(const run_refine $ domain_arg $ task_arg $ steps_arg $ seed_arg
          $ rounds_arg $ attempts_arg $ scenario_arg $ explain_flag
          $ store_arg)

(* ---------------- finetune ---------------- *)

let run_finetune domain epochs seeds out seed jobs trace metrics_json =
  set_jobs jobs;
  with_telemetry ~trace ~metrics_json @@ fun () ->
  let corpus = Pipeline.Corpus.build ~domain () in
  let rng = Rng.create seed in
  Printf.printf "pre-training the %s language model...\n%!"
    (Domain.name domain);
  let reference = Pipeline.Corpus.pretrained_model rng corpus in
  let feedback = Pipeline.Feedback.create ~domain () in
  let config =
    {
      Pipeline.Dpoaf.default_config with
      trainer =
        {
          Dpoaf_dpo.Trainer.default_config with
          epochs;
          checkpoint_every = max 1 (epochs / 10);
          lr = 2e-3;
        };
    }
  in
  Printf.printf "running DPO-AF (%d epochs, %d seed(s))...\n%!" epochs (List.length seeds);
  let sink, close_sink =
    match out with
    | None -> (None, fun () -> ())
    | Some path ->
        let steps_path = path ^ ".steps.csv" in
        let sink, close = Dpoaf_dpo.Trainer.file_sink steps_path in
        Printf.printf "streaming per-step training records to %s\n%!" steps_path;
        (Some sink, close)
  in
  let result =
    Fun.protect ~finally:close_sink @@ fun () ->
    Pipeline.Dpoaf.run ~config ?sink ~corpus ~feedback ~reference ~seeds rng
  in
  Printf.printf "mined %d preference pairs\n" result.Pipeline.Dpoaf.pairs_used;
  let stats = Pipeline.Feedback.cache_stats feedback in
  Printf.printf "verifier cache: %d hits / %d misses (%d entries)\n"
    stats.Dpoaf_exec.Cache.hits stats.Dpoaf_exec.Cache.misses
    stats.Dpoaf_exec.Cache.size;
  let total = Domain.spec_count domain in
  List.iter
    (fun c ->
      Printf.printf "epoch %3d: training %.2f/%d  validation %.2f/%d\n"
        c.Pipeline.Dpoaf.epoch c.Pipeline.Dpoaf.training_score total
        c.Pipeline.Dpoaf.validation_score total)
    result.Pipeline.Dpoaf.curve;
  (match (result.Pipeline.Dpoaf.runs, out) with
  | run :: _, Some path ->
      Dpoaf_lm.Checkpoint.save run.Dpoaf_dpo.Trainer.final path;
      Printf.printf "saved fine-tuned model to %s\n" path
  | _ -> ())

let finetune_cmd =
  let epochs_arg =
    Arg.(value & opt int 100 & info [ "epochs" ] ~docv:"N" ~doc:"DPO epochs.")
  in
  let seeds_arg =
    Arg.(value & opt (list int) [ 1 ] & info [ "seeds" ] ~docv:"S1,S2" ~doc:"Seeds.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE"
         ~doc:"Save the fine-tuned checkpoint.")
  in
  Cmd.v
    (Cmd.info "finetune" ~doc:"Run the full DPO-AF pipeline.")
    Term.(const run_finetune $ domain_arg $ epochs_arg $ seeds_arg $ out_arg
          $ seed_arg $ jobs_arg $ trace_arg $ metrics_json_arg)

(* ---------------- simulate ---------------- *)

let run_simulate domain task_id steps_override rollouts steps miss false_rate
    seed jobs trace metrics_json =
  set_jobs jobs;
  with_telemetry ~trace ~metrics_json @@ fun () ->
  let (module D : Domain.S) = domain in
  let task = resolve_task domain task_id in
  let model = resolve_model domain (Some task.Domain.scenario) in
  let response =
    if steps_override <> [] then steps_override
    else snd (demo_response_for domain task.Domain.id)
  in
  let controller, _ = D.controller_of_steps ~name:task.Domain.id response in
  let config =
    { Dpoaf_sim.Empirical.rollouts; steps;
      noise = { Dpoaf_sim.World.miss_rate = miss; false_rate }; seed }
  in
  let rates =
    Dpoaf_sim.Empirical.evaluate ~domain:D.name ~model ~controller
      ~specs:(D.specs ()) config
  in
  Printf.printf "empirical P_Φ over %d rollouts × %d steps in %s:\n" rollouts
    steps task.Domain.scenario;
  List.iter (fun (name, rate) -> Printf.printf "  %-8s %.3f\n" name rate) rates

let simulate_cmd =
  let rollouts_arg =
    Arg.(value & opt int 300 & info [ "rollouts" ] ~docv:"N" ~doc:"Rollouts.")
  in
  let length_arg =
    Arg.(value & opt int 40 & info [ "length" ] ~docv:"N" ~doc:"Steps per rollout.")
  in
  let miss_arg =
    Arg.(value & opt float 0.02 & info [ "miss" ] ~docv:"P" ~doc:"Missed-detection rate.")
  in
  let false_arg =
    Arg.(value & opt float 0.01 & info [ "false" ] ~docv:"P" ~doc:"False-detection rate.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Empirical evaluation in the simulated system.")
    Term.(const run_simulate $ domain_arg $ task_arg $ steps_arg $ rollouts_arg
          $ length_arg $ miss_arg $ false_arg $ seed_arg $ jobs_arg $ trace_arg
          $ metrics_json_arg)

(* ---------------- report ---------------- *)

let exact_percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* render one `name count bar` block, numerically ordered on the phi_N
   suffix so phi_2 sorts before phi_10 *)
let print_violation_bars violations =
  let keyed =
    List.sort compare
      (List.map
         (fun (name, v) ->
           let num =
             match String.split_on_char '_' name with
             | [ _; n ] -> ( try int_of_string n with _ -> max_int)
             | _ -> max_int
           in
           (num, name, v))
         violations)
  in
  let peak = List.fold_left (fun acc (_, _, v) -> max acc v) 1.0 keyed in
  List.iter
    (fun (_, name, v) ->
      let bar = int_of_float (40.0 *. v /. peak) in
      Printf.printf "  %-8s %8.0f %s\n" name v (String.make bar '#'))
    keyed

let run_report path =
  let reader = Span.read_jsonl path in
  (* per-stage latency: spans grouped by name, exact percentiles over the
     recorded durations *)
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun (e : Span.event) ->
      let durs = try Hashtbl.find by_name e.Span.name with Not_found -> [] in
      Hashtbl.replace by_name e.Span.name (e.Span.dur_us :: durs))
    reader.Span.spans;
  let stages =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [])
  in
  if stages = [] then print_endline "no spans recorded (was tracing enabled?)"
  else begin
    Printf.printf "per-stage latency (%d spans):\n" (List.length reader.Span.spans);
    let table =
      Table.create [ "stage"; "count"; "total_ms"; "p50_ms"; "p90_ms"; "p99_ms" ]
    in
    List.iter
      (fun (name, durs) ->
        let sorted = Array.of_list durs in
        Array.sort compare sorted;
        let ms us = Printf.sprintf "%.3f" (us /. 1000.0) in
        Table.add_row table
          [
            name;
            string_of_int (Array.length sorted);
            ms (Array.fold_left ( +. ) 0.0 sorted);
            ms (exact_percentile sorted 0.50);
            ms (exact_percentile sorted 0.90);
            ms (exact_percentile sorted 0.99);
          ])
      stages;
    Table.print table
  end;
  let metric name = List.assoc_opt name reader.Span.metrics in
  (* cache hit rates, from the cache.<name>.{hits,misses,...} sources *)
  let caches =
    List.sort_uniq compare
      (List.filter_map
         (fun (k, _) ->
           match String.split_on_char '.' k with
           | "cache" :: rest when rest <> [] ->
               Some (String.concat "." (List.filteri (fun i _ -> i < List.length rest - 1) rest))
           | _ -> None)
         reader.Span.metrics)
  in
  if caches <> [] then begin
    print_endline "\ncache hit rates:";
    let table = Table.create [ "cache"; "hits"; "misses"; "hit_rate"; "size" ] in
    List.iter
      (fun name ->
        let get suffix =
          Option.value ~default:0.0 (metric ("cache." ^ name ^ "." ^ suffix))
        in
        let hits = get "hits" and misses = get "misses" in
        let rate =
          if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0
        in
        Table.add_row table
          [
            name;
            Printf.sprintf "%.0f" hits;
            Printf.sprintf "%.0f" misses;
            Printf.sprintf "%.1f%%" (100.0 *. rate);
            Printf.sprintf "%.0f" (get "size");
          ])
      caches;
    Table.print table
  end;
  (* spec-violation histograms from the feedback.violations.* counters:
     the plain `feedback.violations.<spec>` aggregate first, then one
     block per `feedback.violations.<domain>.<spec>` twin *)
  let prefix = "feedback.violations." in
  let tagged =
    List.filter_map
      (fun (k, v) ->
        if String.length k > String.length prefix
           && String.sub k 0 (String.length prefix) = prefix
        then
          let suffix =
            String.sub k (String.length prefix)
              (String.length k - String.length prefix)
          in
          match String.index_opt suffix '.' with
          | None -> Some (None, suffix, v)
          | Some i ->
              Some
                ( Some (String.sub suffix 0 i),
                  String.sub suffix (i + 1) (String.length suffix - i - 1),
                  v )
        else None)
      reader.Span.metrics
  in
  let live dom =
    List.filter_map
      (fun (d, name, v) -> if d = dom then Some (name, v) else None)
      tagged
    |> fun vs -> if List.exists (fun (_, v) -> v > 0.0) vs then vs else []
  in
  let aggregate = live None in
  if aggregate <> [] then begin
    print_endline "\nspec violations (per scoring request):";
    print_violation_bars aggregate
  end;
  let domains =
    List.sort_uniq compare (List.filter_map (fun (d, _, _) -> d) tagged)
  in
  List.iter
    (fun dom ->
      match live (Some dom) with
      | [] -> ()
      | vs ->
          Printf.printf "\nspec violations [%s]:\n" dom;
          print_violation_bars vs)
    domains;
  (* headline latency histograms from the metrics line *)
  let hists = [ "feedback.score"; "sim.rollout"; "dpo.step" ] in
  let present =
    List.filter
      (fun h -> match metric (h ^ ".count") with Some c -> c > 0.0 | None -> false)
      hists
  in
  if present <> [] then begin
    print_endline "\nlatency histograms (seconds):";
    let table =
      Table.create [ "histogram"; "count"; "p50"; "p90"; "p99"; "max" ]
    in
    List.iter
      (fun h ->
        let get suffix =
          Option.value ~default:0.0 (metric (h ^ "." ^ suffix))
        in
        Table.add_row table
          [
            h;
            Printf.sprintf "%.0f" (get "count");
            Printf.sprintf "%.6f" (get "p50");
            Printf.sprintf "%.6f" (get "p90");
            Printf.sprintf "%.6f" (get "p99");
            Printf.sprintf "%.6f" (get "max");
          ])
      present;
    Table.print table
  end

(* Summarize an event journal written by `serve --journal`.  Every line
   must parse and carry "ts"/"ev" — a malformed line is a hard error (exit
   1), which is what lets make daemon-check use this command as a journal
   validity check. *)
let run_journal_report path =
  let module Json = Dpoaf_util.Json in
  let ic = try open_in path with Sys_error msg -> die "%s" msg in
  let events = ref [] in
  let lineno = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       if String.trim line <> "" then
         match Json.parse line with
         | Error msg -> die "%s:%d: malformed journal line: %s" path !lineno msg
         | Ok j -> (
             let ts = Option.bind (Json.member "ts" j) Json.to_float in
             let ev = Option.bind (Json.member "ev" j) Json.to_str in
             match (ts, ev) with
             | Some ts, Some ev -> events := (ts, ev, j) :: !events
             | _ ->
                 die "%s:%d: journal line missing \"ts\" or \"ev\"" path
                   !lineno)
     done
   with End_of_file -> ());
  close_in ic;
  let events = List.rev !events in
  match events with
  | [] -> Printf.printf "journal %s: empty\n" path
  | (t0, _, _) :: _ ->
      let tn, _, _ = List.nth events (List.length events - 1) in
      Printf.printf "journal %s: %d events over %.2fs\n" path
        (List.length events) (tn -. t0);
      let counts = Hashtbl.create 16 in
      List.iter
        (fun (_, ev, _) ->
          Hashtbl.replace counts ev
            (1 + try Hashtbl.find counts ev with Not_found -> 0))
        events;
      let table = Table.create [ "event"; "count" ] in
      List.iter
        (fun (ev, c) -> Table.add_row table [ ev; string_of_int c ])
        (List.sort compare
           (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []));
      Table.print table;
      (* request latency, from the serve.request events' timing fields *)
      let field j name = Option.bind (Json.member name j) Json.to_float in
      let requests =
        List.filter_map
          (fun (_, ev, j) ->
            if ev = "serve.request" then
              match (field j "queue_wait_us", field j "execute_us") with
              | Some w, Some e -> Some (w, e)
              | _ -> None
            else None)
          events
      in
      if requests <> [] then begin
        Printf.printf "\nrequest timing (%d requests):\n"
          (List.length requests);
        let table =
          Table.create [ "phase"; "p50_ms"; "p90_ms"; "p99_ms"; "max_ms" ]
        in
        let row name xs =
          let sorted = Array.of_list xs in
          Array.sort compare sorted;
          let ms us = Printf.sprintf "%.3f" (us /. 1000.0) in
          Table.add_row table
            [
              name;
              ms (exact_percentile sorted 0.50);
              ms (exact_percentile sorted 0.90);
              ms (exact_percentile sorted 0.99);
              ms (Array.fold_left Float.max 0.0 sorted);
            ]
        in
        row "queue_wait" (List.map fst requests);
        row "execute" (List.map snd requests);
        Table.print table
      end;
      (* the repair loop, from serve.refine_round events *)
      let refine_rounds =
        List.filter_map
          (fun (_, ev, j) ->
            if ev = "serve.refine_round" then Some j else None)
          events
      in
      if refine_rounds <> [] then begin
        let accepted =
          List.length
            (List.filter
               (fun j -> Json.member "accepted" j = Some (Json.Bool true))
               refine_rounds)
        in
        let per_request = Hashtbl.create 16 in
        List.iter
          (fun j ->
            match Option.bind (Json.member "id" j) Json.to_str with
            | Some id ->
                Hashtbl.replace per_request id
                  (1 + try Hashtbl.find per_request id with Not_found -> 0)
            | None -> ())
          refine_rounds;
        Printf.printf "\nrefine rounds: %d over %d requests (%d accepted)\n"
          (List.length refine_rounds)
          (Hashtbl.length per_request)
          accepted;
        let table = Table.create [ "metric"; "p50"; "p90"; "p99"; "max" ] in
        let row name f xs =
          let sorted = Array.of_list xs in
          Array.sort compare sorted;
          Table.add_row table
            [
              name;
              f (exact_percentile sorted 0.50);
              f (exact_percentile sorted 0.90);
              f (exact_percentile sorted 0.99);
              f (Array.fold_left Float.max 0.0 sorted);
            ]
        in
        row "rounds/request"
          (Printf.sprintf "%.0f")
          (Hashtbl.fold (fun _ v acc -> float_of_int v :: acc) per_request []);
        row "round_ms"
          (Printf.sprintf "%.3f")
          (List.filter_map
             (fun j -> Option.bind (Json.member "round_ms" j) Json.to_float)
             refine_rounds);
        Table.print table
      end

(* Validate and summarize a harvested preference store.  Any malformed
   record is a hard error (exit 1) — make daemon-check relies on this
   command as the store validity check. *)
let run_pref_store_report path =
  let module Pref_data = Dpoaf_dpo.Pref_data in
  match Pref_data.load_harvested path with
  | Error msg -> die "%s" msg
  | Ok [] -> Printf.printf "preference store %s: empty (valid)\n" path
  | Ok records ->
      Printf.printf "preference store %s: %d harvested pairs (%s)\n" path
        (List.length records) Pref_data.store_schema;
      let groups = Hashtbl.create 8 in
      List.iter
        (fun (r : Pref_data.harvested) ->
          let key = (r.Pref_data.h_domain, r.Pref_data.h_task) in
          let n, gain, rounds =
            try Hashtbl.find groups key with Not_found -> (0, 0, 0)
          in
          Hashtbl.replace groups key
            ( n + 1,
              gain + r.Pref_data.h_chosen_score - r.Pref_data.h_rejected_score,
              rounds + r.Pref_data.h_round ))
        records;
      let table =
        Table.create [ "domain"; "task"; "pairs"; "avg gain"; "avg round" ]
      in
      List.iter
        (fun ((dom, task), (n, gain, rounds)) ->
          Table.add_row table
            [
              dom;
              task;
              string_of_int n;
              Printf.sprintf "%.2f" (float_of_int gain /. float_of_int n);
              Printf.sprintf "%.2f" (float_of_int rounds /. float_of_int n);
            ])
        (List.sort compare
           (Hashtbl.fold (fun k v acc -> (k, v) :: acc) groups []));
      Table.print table;
      let explained =
        List.length
          (List.filter
             (fun (r : Pref_data.harvested) -> r.Pref_data.h_explanations <> [])
             records)
      in
      Printf.printf "%d/%d pairs carry counterexample feedback\n" explained
        (List.length records)

let report_cmd =
  let path_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
         ~doc:"Telemetry file written by --trace, or (with $(b,--journal)) \
               an event journal written by `serve --journal`, or (with \
               $(b,--pref-store)) a harvested preference store written by \
               `serve --pref-store`.")
  in
  let journal_arg =
    Arg.(value & flag
         & info [ "journal" ]
             ~doc:"Treat $(i,FILE) as a serving event journal (JSONL, one \
                   event per line) instead of a span trace; exits 1 on any \
                   malformed line.")
  in
  let pref_store_arg =
    Arg.(value & flag
         & info [ "pref-store" ]
             ~doc:"Treat $(i,FILE) as a harvested preference store \
                   (dpoaf-prefstore/1 JSONL) instead of a span trace; exits \
                   1 on any malformed record.")
  in
  let run path journal pref_store =
    match (journal, pref_store) with
    | true, true -> die "--journal and --pref-store are mutually exclusive"
    | true, false -> run_journal_report path
    | false, true -> run_pref_store_report path
    | false, false -> run_report path
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Summarize a recorded trace: per-stage latency, cache hit rates \
             and the spec-violation histograms (aggregate and per domain).  \
             With --journal, summarize a serving event journal; with \
             --pref-store, validate and summarize a harvested preference \
             store.")
    Term.(const run $ path_arg $ journal_arg $ pref_store_arg)

(* ---------------- analyze ---------------- *)

module Analysis = Dpoaf_analysis
module Diag = Dpoaf_analysis.Diagnostic

(* The static sanity layer: spec sanity (satisfiability, tautology,
   pairwise redundancy, model-level vacuity) on the pack's rule book,
   lint on every world model, and structural lint + vacuity on
   controllers — either the --step response or the pack's demo
   responses.  Exits non-zero when any error-severity diagnostic fires,
   so `make check` can gate on a sane rule book. *)
let run_analyze domain steps json out pairwise suite explain =
  let (module D : Domain.S) = domain in
  let specs = D.specs () in
  let free = Dpoaf_logic.Symbol.of_atoms D.actions in
  let universal = D.universal () in
  let spec_diags = Analysis.Spec_sanity.check ~model:universal ~free ~pairwise specs in
  let scenario_models =
    List.map
      (fun sc ->
        match D.model sc with
        | Some m -> m
        | None -> die "domain %S lists scenario %S without a model" D.name sc)
      D.scenarios
  in
  let model_diags =
    Analysis.Model_lint.lint ~specs ~ignore:free universal
    @ List.concat_map
        (fun m ->
          (* scenario proposition sets are deliberately partial: only the
             universal model must cover the whole rule book *)
          Analysis.Model_lint.lint ~specs ~coverage:false m)
        scenario_models
  in
  let controllers =
    match steps with [] -> D.demo_responses | steps -> [ ("cli", steps) ]
  in
  let controller_diags =
    List.concat_map
      (fun (name, steps) ->
        let controller, _ = D.controller_of_steps ~name steps in
        let satisfied =
          (D.profile_of_controller ~model:universal controller)
            .Domain.satisfied
        in
        Analysis.Controller_lint.lint controller
        @ Analysis.Vacuity.diagnostics ~model:universal ~controller ~specs
            ~satisfied)
      controllers
  in
  (* --suite: the whole-book pass — conflict cores, realizability
     against every registered world model, the vocabulary coverage
     matrix, response-pool discrimination and joint redundancy *)
  let suite_diags =
    if not suite then []
    else
      let models =
        ("universal", universal)
        :: List.map2 (fun sc m -> (sc, m)) D.scenarios scenario_models
      in
      let pool =
        List.map
          (fun (name, steps) ->
            ( name,
              (D.profile_of_steps ~model:universal steps).Domain.satisfied ))
          D.demo_responses
      in
      Analysis.Suite_sanity.check ~suite:D.name ~propositions:D.propositions
        ~actions:D.actions ~models ~pool specs
  in
  (* --explain: replay-validated counterexample explanations for every
     violated spec of every analyzed response *)
  let explanations =
    if not explain then []
    else
      List.map
        (fun (name, steps) ->
          (name, Domain.explain_steps domain ~model:universal steps))
        controllers
  in
  let diags =
    Diag.sort (spec_diags @ model_diags @ controller_diags @ suite_diags)
  in
  let rendered =
    if json then begin
      let report_fields =
        match Diag.report_json diags with
        | Dpoaf_util.Json.Obj fields -> fields
        | _ -> assert false
      in
      let header =
        (* the pack name leads the report so multi-pack runs (make
           analysis-check) produce self-identifying artifacts *)
        [
          ("domain", Dpoaf_util.Json.str D.name);
          ("suite_checked", Dpoaf_util.Json.Bool suite);
        ]
      in
      let explain_fields =
        if not explain then []
        else
          [
            ( "explanations",
              Dpoaf_util.Json.arr
                (List.map
                   (fun (name, items) ->
                     Dpoaf_util.Json.obj
                       [
                         ("response", Dpoaf_util.Json.str name);
                         ( "items",
                           Dpoaf_util.Json.arr
                             (List.map Analysis.Explain.to_json items) );
                       ])
                   explanations) );
          ]
      in
      Dpoaf_util.Json.to_string
        (Dpoaf_util.Json.Obj (header @ report_fields @ explain_fields))
      ^ "\n"
    end
    else begin
      let buf = Buffer.create 1024 in
      List.iter
        (fun d -> Buffer.add_string buf (Diag.to_string d ^ "\n"))
        diags;
      List.iter
        (fun (name, items) ->
          if items <> [] then begin
            Buffer.add_string buf
              (Printf.sprintf "explanations for %s:\n" name);
            List.iter
              (fun e ->
                Buffer.add_string buf
                  ("  " ^ Analysis.Explain.to_string e ^ "\n"))
              items
          end)
        explanations;
      Buffer.add_string buf
        (Printf.sprintf
           "%s: %d diagnostic(s): %d error(s), %d warning(s), %d info(s) over \
            %d spec(s), %d model(s), %d controller(s)%s\n"
           D.name (List.length diags)
           (Diag.count Diag.Error diags)
           (Diag.count Diag.Warning diags)
           (Diag.count Diag.Info diags)
           (List.length specs)
           (1 + List.length scenario_models)
           (List.length controllers)
           (if suite then " (suite-level pass included)" else ""));
      Buffer.contents buf
    end
  in
  (match out with
  | None -> print_string rendered
  | Some path ->
      write_file path rendered;
      Printf.printf "analysis written to %s\n" path);
  if Diag.has_errors diags then exit 1

let analyze_cmd =
  let json_arg =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the diagnostic report as JSON (the \
                                 schema validated by test/analysis_validate.exe).")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write the report to $(docv) \
                                                  instead of stdout.")
  in
  let pairwise_arg =
    let doc =
      "Skip the quadratic pairwise-implication sweep over the rule book."
    in
    Term.(const not $ Arg.(value & flag & info [ "no-pairwise" ] ~doc))
  in
  let suite_arg =
    Arg.(value & flag
         & info [ "suite" ]
             ~doc:"Run the whole-suite pass as well: minimal conflict cores \
                   (SUITE001), realizability against every registered world \
                   model (SUITE002/SUITE003), the vocabulary coverage matrix \
                   (SPEC005/SPEC006), response-pool discrimination (SPEC007) \
                   and model-relative joint redundancy (SPEC008).")
  in
  let explain_arg =
    Arg.(value & flag
         & info [ "explain" ]
             ~doc:"Emit a replay-validated counterexample explanation for \
                   every violated specification of every analyzed response.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Static sanity analysis of a pack's rule book, world models and \
             controllers: vacuity, dead states, guard completeness, \
             redundancy.  Exits 1 on any error-severity diagnostic.")
    Term.(const run_analyze $ domain_arg $ steps_arg $ json_arg $ out_arg
          $ pairwise_arg $ suite_arg $ explain_arg)

(* ---------------- smv ---------------- *)

let run_smv domain steps =
  let (module D : Domain.S) = domain in
  let steps =
    if steps <> [] then steps else snd (demo_response_for domain "")
  in
  let controller, _ = D.controller_of_steps ~name:"exported" steps in
  print_string (Dpoaf_automata.Smv.of_controller ~name:"controller" controller
                  ~props:D.propositions)

let smv_cmd =
  Cmd.v
    (Cmd.info "smv" ~doc:"Export a response's controller to NuSMV syntax.")
    Term.(const run_smv $ domain_arg $ steps_arg)

(* ---------------- serve ---------------- *)

module Serve = Dpoaf_serve

let socket_arg =
  let doc = "Unix-domain socket path for the serving daemon." in
  Arg.(value & opt string "/tmp/dpoaf.sock"
       & info [ "socket" ] ~docv:"PATH" ~doc)

let run_serve socket tcp_port shards prompt_cache domains checkpoint jobs
    queue_capacity seed journal_path journal_max_kb
    pref_store_path pref_store_max_kb trace metrics_json =
  with_telemetry ~trace ~metrics_json @@ fun () ->
  let domains =
    match domains with
    | [] -> [ Dpoaf_domain.find_exn Dpoaf_domain.default ]
    | ds -> ds
  in
  if checkpoint <> None && List.length domains > 1 then
    die "--checkpoint applies to a single --domain; drop it to pre-train a \
         model per pack";
  let journal =
    Option.map
      (fun path ->
        Serve.Journal.create ~max_bytes:(journal_max_kb * 1024) path)
      journal_path
  in
  let pref_store =
    Option.map
      (fun path ->
        Refine.Pref_store.create ~max_bytes:(pref_store_max_kb * 1024) path)
      pref_store_path
  in
  let jemit ev attrs =
    match journal with Some j -> Serve.Journal.emit j ev attrs | None -> ()
  in
  let packs =
    List.map
      (fun domain ->
        let corpus = Pipeline.Corpus.build ~domain () in
        let lm =
          match checkpoint with
          | Some path -> (
              try
                let m = Dpoaf_lm.Checkpoint.load path in
                Printf.printf "loaded checkpoint %s\n%!" path;
                jemit "serve.checkpoint_load"
                  [
                    ("path", Dpoaf_util.Json.str path);
                    ("domain", Dpoaf_util.Json.str (Domain.name domain));
                  ];
                m
              with Dpoaf_lm.Checkpoint.Corrupt { path; reason } ->
                Printf.eprintf
                  "error: cannot load checkpoint %s: %s\n\
                   (re-create it with `dpoaf_cli finetune --out %s`)\n%!"
                  path reason path;
                exit 1)
          | None ->
              Printf.printf
                "no --checkpoint given: pre-training a small %s model (seed \
                 %d)...\n\
                 %!"
                (Domain.name domain) seed;
              Pipeline.Corpus.pretrained_model (Rng.create seed) corpus
        in
        (Some lm, corpus))
      domains
  in
  (* one engine + one labelled server per shard: each replica gets its own
     prompt-state caches (bounded by --prompt-cache) while the per-domain
     request counters share the untagged cells, so fleet totals need no
     aggregation.  A single shard keeps the historical untagged names. *)
  let config = { Serve.Server.default_config with jobs; queue_capacity } in
  let make_shard i =
    let tag = if shards = 1 then None else Some (Serve.Router.shard_name i) in
    let engine =
      Serve.Engine.create_multi ?journal ?pref_store ?tag
        ~prompt_cache_capacity:prompt_cache packs
    in
    let server =
      Serve.Server.create ~config ?label:tag
        ~handler:(Serve.Engine.handle engine) ?journal ()
    in
    (engine, server)
  in
  let shard_pairs = List.init shards make_shard in
  let engine0 = fst (List.hd shard_pairs) in
  let router =
    Serve.Router.create (Array.of_list (List.map snd shard_pairs))
  in
  (* the ops plane: stats filtered by the engine's domain registry, health
     composed from the fleet's queue views and per-domain counters *)
  let ops =
    {
      Serve.Daemon.stats =
        (fun ~domain -> Serve.Engine.stats_body engine0 ~domain);
      health =
        (fun ~domain ->
          match Serve.Engine.request_counts engine0 ~domain with
          | Error msg -> Serve.Protocol.Failed msg
          | Ok domains -> Serve.Router.health_report router ~domains);
    }
  in
  Printf.printf
    "serving %s on %s (shards=%d, jobs=%d/shard, queue=%d/shard); SIGINT or \
     SIGTERM drains and stops\n\
     %!"
    (String.concat ", " (Serve.Engine.domains engine0))
    socket shards jobs queue_capacity;
  let stats =
    Serve.Daemon.run ~socket ?tcp_port
      ~on_tcp_listen:(fun port ->
        Printf.printf "tcp listener on 127.0.0.1:%d\n%!" port)
      ~router ~ops ?journal ?pref_store ()
  in
  (match journal with
  | Some j ->
      Serve.Journal.close j;
      Printf.printf "journal written to %s\n" (Serve.Journal.path j)
  | None -> ());
  (match pref_store with
  | Some s ->
      Refine.Pref_store.close s;
      Printf.printf "preference store written to %s\n"
        (Refine.Pref_store.path s)
  | None -> ());
  Printf.printf
    "daemon stopped: connections=%d requests=%d responses=%d \
     protocol_errors=%d outbox_overflows=%d\n"
    stats.Serve.Daemon.connections stats.Serve.Daemon.requests
    stats.Serve.Daemon.responses stats.Serve.Daemon.protocol_errors
    stats.Serve.Daemon.outbox_overflows

let tcp_port_arg =
  Arg.(value & opt (some int) None
       & info [ "tcp-port" ] ~docv:"PORT"
           ~doc:"Use TCP on 127.0.0.1:$(docv) — same NDJSON protocol as the \
                 Unix socket.  For $(b,serve): listen there alongside the \
                 socket (0 picks an ephemeral port, printed at startup); \
                 for client commands: connect there instead of \
                 $(b,--socket).")

let serve_cmd =
  let domains_arg =
    let doc =
      "Serve this domain pack (repeatable; first is the default for \
       requests without a domain field; default: driving)."
    in
    Arg.(value & opt_all domain_conv [] & info [ "domain" ] ~docv:"NAME" ~doc)
  in
  let checkpoint_arg =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"FILE"
             ~doc:"Serve this fine-tuned checkpoint (single-domain only; \
                   default: pre-train a small model per pack at startup).")
  in
  let queue_arg =
    Arg.(value
         & opt int Serve.Server.default_config.Serve.Server.queue_capacity
         & info [ "queue" ] ~docv:"N"
             ~doc:"Admission-queue capacity; beyond it requests are \
                   rejected.")
  in
  let journal_arg =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"FILE"
             ~doc:"Append serving events (requests, rejects, expiries, \
                   checkpoint loads, drains) to a size-rotated \
                   JSONL journal at $(docv); read it back with \
                   `dpoaf_cli report --journal $(docv)`.")
  in
  let journal_max_kb_arg =
    Arg.(value & opt pos_int_conv 1024
         & info [ "journal-max-kb" ] ~docv:"KB"
             ~doc:"Size cap per journal file before rotation (with \
                   $(b,--journal)).")
  in
  let pref_store_arg =
    Arg.(value & opt (some string) None
         & info [ "pref-store" ] ~docv:"FILE"
             ~doc:"Harvest every accepted refine repair as an (original, \
                   repaired) preference pair with per-spec provenance into a \
                   size-rotated JSONL store at $(docv) \
                   (dpoaf-prefstore/1); validate and summarize it with \
                   `dpoaf_cli report --pref-store $(docv)`.")
  in
  let pref_store_max_kb_arg =
    Arg.(value & opt pos_int_conv 1024
         & info [ "pref-store-max-kb" ] ~docv:"KB"
             ~doc:"Size cap per store file before rotation (with \
                   $(b,--pref-store)).")
  in
  let shards_arg =
    Arg.(value & opt pos_int_conv 1
         & info [ "shards" ] ~docv:"N"
             ~doc:"Replica count: requests hash to a shard by prompt \
                   identity so each replica's prompt-state cache stays hot; \
                   every shard gets its own engine, $(b,--jobs) workers and \
                   $(b,--queue)-bounded admission queue.  Responses are \
                   bit-identical for every value.")
  in
  let prompt_cache_arg =
    Arg.(value & opt pos_int_conv 256
         & info [ "prompt-cache" ] ~docv:"N"
             ~doc:"Per-replica prompt-state cache capacity (entries per \
                   domain pack).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the inference-and-verification daemon (line-delimited \
             JSON over a Unix socket and optionally TCP), serving one or \
             more domain packs across one or more shards.")
    Term.(const run_serve $ socket_arg $ tcp_port_arg $ shards_arg
          $ prompt_cache_arg $ domains_arg $ checkpoint_arg $ jobs_arg
          $ queue_arg $ seed_arg $ journal_arg $ journal_max_kb_arg
          $ pref_store_arg $ pref_store_max_kb_arg $ trace_arg
          $ metrics_json_arg)

(* ---------------- loadgen ---------------- *)

(* responses re-encoded with the timing fields zeroed and sorted by id:
   bit-comparable across transports, shard counts and worker counts *)
let normalized_dump responses =
  let lines =
    List.map
      (fun (r : Serve.Protocol.response) ->
        Serve.Protocol.response_to_string
          { r with Serve.Protocol.queue_wait_us = 0.0; execute_us = 0.0 })
      responses
  in
  String.concat "\n" (List.sort compare lines) ^ "\n"

let run_loadgen socket tcp_port domain rate duration mix deadline_ms seed out
    sweep sweep_p99_ms dump =
  let endpoint =
    match tcp_port with
    | Some p -> Printf.sprintf "127.0.0.1:%d" p
    | None -> socket
  in
  let config =
    {
      Serve.Loadgen.socket;
      tcp_port;
      rate;
      duration_s = duration;
      mix;
      deadline_ms;
      domain;
      seed;
    }
  in
  let body () =
    match sweep with
    | Some sweep ->
        if dump <> None then
          die "--dump applies to a single run; drop --sweep";
        let s =
          Serve.Loadgen.run_sweep ~progress:Serve.Loadgen.print_level config
            ~sweep ~p99_budget_ms:sweep_p99_ms
        in
        Serve.Loadgen.print_sweep_report s;
        (match out with
        | None -> ()
        | Some path ->
            write_file path
              (Dpoaf_util.Json.to_string (Serve.Loadgen.sweep_report_json s)
              ^ "\n");
            Printf.printf "sweep report written to %s\n" path)
    | None ->
        let captured = ref [] in
        let capture =
          Option.map
            (fun _ -> fun r -> captured := r :: !captured)
            dump
        in
        let report = Serve.Loadgen.run ?capture config in
        Serve.Loadgen.print_report report;
        (match dump with
        | None -> ()
        | Some path ->
            write_file path (normalized_dump !captured);
            Printf.printf "response dump written to %s\n" path);
        (match out with
        | None -> ()
        | Some path ->
            write_file path
              (Dpoaf_util.Json.to_string (Serve.Loadgen.report_json report)
              ^ "\n");
            Printf.printf "loadgen report written to %s\n" path)
  in
  match body () with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "error: cannot reach daemon at %s: %s\n%!" endpoint
        (Unix.error_message e);
      exit 1
  | exception Invalid_argument msg ->
      Printf.eprintf "error: %s\n%!" msg;
      exit 1
  | exception Failure msg ->
      Printf.eprintf "error: %s\n%!" msg;
      exit 1

let loadgen_cmd =
  let domain_opt_arg =
    let doc =
      "Synthesize traffic from this pack's tasks and tag every request with \
       it (default: untagged traffic for the server's default pack)."
    in
    Arg.(value & opt (some string) None & info [ "domain" ] ~docv:"NAME" ~doc)
  in
  let rate_arg =
    Arg.(value & opt float 200.0
         & info [ "rate" ] ~docv:"RPS" ~doc:"Offered load, requests/second.")
  in
  let duration_arg =
    Arg.(value & opt float 2.0
         & info [ "duration" ] ~docv:"S" ~doc:"Send window in seconds.")
  in
  let mix_conv =
    let parse s =
      match Serve.Loadgen.mix_of_string s with
      | Ok m -> Ok m
      | Error msg -> Error (`Msg msg)
    in
    let print ppf (m : Serve.Loadgen.mix) =
      Format.fprintf ppf "generate=%g,verify=%g,score_pair=%g,refine=%g"
        m.Serve.Loadgen.generate m.Serve.Loadgen.verify
        m.Serve.Loadgen.score_pair m.Serve.Loadgen.refine
    in
    Arg.conv (parse, print)
  in
  let mix_arg =
    Arg.(value & opt mix_conv Serve.Loadgen.default_mix
         & info [ "mix" ] ~docv:"MIX"
             ~doc:"Workload mix, either named classes \
                   ($(b,generate=0.2,verify=0.4,refine=0.4); unlisted \
                   classes weigh 0) or the legacy positional form \
                   $(b,G,V,S) for generate, verify, score_pair.  Unknown \
                   class names are rejected.")
  in
  let deadline_arg =
    Arg.(value & opt (some float) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Attach this deadline to every request.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out"; "o" ] ~docv:"FILE"
             ~doc:"Also write the report as JSON to $(docv), including the \
                   full latency histogram with per-bucket bounds and \
                   counts.")
  in
  let sweep_conv =
    let parse s =
      match Serve.Loadgen.sweep_of_string s with
      | Ok sw -> Ok sw
      | Error msg -> Error (`Msg msg)
    in
    let print ppf (s : Serve.Loadgen.sweep) =
      Format.fprintf ppf "%g:%g:%g" s.Serve.Loadgen.start_rps
        s.Serve.Loadgen.step_rps s.Serve.Loadgen.max_rps
    in
    Arg.conv (parse, print)
  in
  let sweep_arg =
    Arg.(value & opt (some sweep_conv) None
         & info [ "sweep" ] ~docv:"START:STEP:MAX"
             ~doc:"Saturation sweep: step the offered rate from $(b,START) \
                   by $(b,STEP) up to $(b,MAX) rps, one run of \
                   $(b,--duration) each, stopping at the first level the \
                   daemon fails to sustain (p99 over the budget, or any \
                   reject/expiry/error/loss).  Reports the knee and the \
                   achieved rps there ($(b,max_rps_at_p99)).")
  in
  let sweep_p99_arg =
    Arg.(value & opt float 50.0
         & info [ "sweep-p99-ms" ] ~docv:"MS"
             ~doc:"p99 latency budget a sweep level must meet to count as \
                   sustained (with $(b,--sweep)).")
  in
  let dump_arg =
    Arg.(value & opt (some string) None
         & info [ "dump" ] ~docv:"FILE"
             ~doc:"Write every response to $(docv), sorted by request id \
                   with the timing fields zeroed — bit-comparable across \
                   transports, shard counts and worker counts (single \
                   runs only).")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Replay synthetic traffic against a running daemon (Unix socket \
             or TCP) and report throughput and latency percentiles, or find \
             the saturation knee with $(b,--sweep).")
    Term.(const run_loadgen $ socket_arg $ tcp_port_arg $ domain_opt_arg
          $ rate_arg $ duration_arg $ mix_arg $ deadline_arg $ seed_arg
          $ out_arg $ sweep_arg $ sweep_p99_arg $ dump_arg)

(* ---------------- stats / health ---------------- *)

(* One-shot ops-plane client: connect, send one request line, read one
   response line.  Blocking I/O — the daemon answers ops verbs ahead of
   the admission queue, so a response arrives within one loop turn even
   under full load. *)
let ops_roundtrip ?tcp_port socket kind =
  let req = { Serve.Protocol.id = "ops"; kind; deadline_ms = None } in
  let endpoint =
    match tcp_port with
    | Some p -> Printf.sprintf "127.0.0.1:%d" p
    | None -> socket
  in
  let fd =
    try
      match tcp_port with
      | None ->
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX socket);
          fd
      | Some port ->
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          fd
    with Unix.Unix_error (e, _, _) ->
      die "cannot reach daemon at %s: %s" endpoint (Unix.error_message e)
  in
  let socket = endpoint in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let line = Serve.Protocol.request_to_string req ^ "\n" in
  let rec write_all off =
    if off < String.length line then
      write_all
        (off + Unix.write_substring fd line off (String.length line - off))
  in
  (try write_all 0
   with Unix.Unix_error (e, _, _) ->
     die "write to daemon at %s failed: %s" socket (Unix.error_message e));
  let buf = Buffer.create 8192 in
  let chunk = Bytes.create 8192 in
  let rec read_line () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> die "daemon at %s closed the connection before answering" socket
    | n -> (
        Buffer.add_subbytes buf chunk 0 n;
        let s = Buffer.contents buf in
        match String.index_opt s '\n' with
        | Some i -> String.sub s 0 i
        | None -> read_line ())
    | exception Unix.Unix_error (e, _, _) ->
        die "read from daemon at %s failed: %s" socket (Unix.error_message e)
  in
  read_line ()

(* Prometheus text exposition of a stats report: dots become underscores
   under a dpoaf_ prefix; histograms render as cumulative
   _bucket{le=...}/_sum/_count families and their derived flat keys
   (.count/.sum/.min/.max/.p50/...) are dropped from the scalar section. *)
let prom_name s =
  let b = Buffer.create (String.length s + 6) in
  Buffer.add_string b "dpoaf_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    s;
  Buffer.contents b

let prom_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let prometheus_of_stats ~metrics ~histograms ~runtime =
  let b = Buffer.create 4096 in
  let hist_names = List.map fst histograms in
  let hist_derived k =
    List.exists
      (fun h ->
        List.exists
          (fun suffix -> k = h ^ "." ^ suffix)
          [ "count"; "sum"; "min"; "max"; "p50"; "p90"; "p99" ])
      hist_names
  in
  let flat_type k =
    match String.rindex_opt k '.' with
    | None -> "counter"
    | Some i -> (
        match String.sub k (i + 1) (String.length k - i - 1) with
        | "level" | "size" | "min" | "max" | "p50" | "p90" | "p99" -> "gauge"
        | _ -> "counter")
  in
  let scalar ty (k, v) =
    let n = prom_name k in
    Buffer.add_string b
      (Printf.sprintf "# TYPE %s %s\n%s %s\n" n ty n (prom_num v))
  in
  List.iter
    (fun (k, v) -> if not (hist_derived k) then scalar (flat_type k) (k, v))
    metrics;
  List.iter (scalar "gauge") runtime;
  List.iter
    (fun (k, (s : Dpoaf_exec.Metrics.hist_snapshot)) ->
      let n = prom_name k in
      Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" n);
      let cum = ref 0 in
      List.iter
        (fun (_, upper, c) ->
          cum := !cum + c;
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n (prom_num upper)
               !cum))
        s.Dpoaf_exec.Metrics.buckets;
      Buffer.add_string b
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n s.Dpoaf_exec.Metrics.count);
      Buffer.add_string b
        (Printf.sprintf "%s_sum %s\n" n (prom_num s.Dpoaf_exec.Metrics.sum));
      Buffer.add_string b
        (Printf.sprintf "%s_count %d\n" n s.Dpoaf_exec.Metrics.count))
    histograms;
  Buffer.contents b

let run_stats socket tcp_port domain watch format =
  let once () =
    let line =
      ops_roundtrip ?tcp_port socket (Serve.Protocol.Stats { domain })
    in
    match Serve.Protocol.response_of_string line with
    | Error msg -> die "malformed stats response: %s" msg
    | Ok { Serve.Protocol.rbody = Serve.Protocol.Failed msg; _ } ->
        die "%s" msg
    | Ok
        {
          Serve.Protocol.rbody =
            Serve.Protocol.Stats_report { metrics; histograms; runtime };
          _;
        } -> (
        match format with
        | `Json -> print_endline line (* the exact wire bytes *)
        | `Prom ->
            print_string (prometheus_of_stats ~metrics ~histograms ~runtime))
    | Ok _ -> die "unexpected response body to a stats request"
  in
  match watch with
  | None -> once ()
  | Some period ->
      while true do
        once ();
        print_newline ();
        flush stdout;
        Unix.sleepf (float_of_int period)
      done

let ops_domain_arg =
  let doc =
    "Restrict the report to this domain pack (validity is decided by the \
     daemon's registry)."
  in
  Arg.(value & opt (some string) None & info [ "domain" ] ~docv:"NAME" ~doc)

let stats_cmd =
  let watch_arg =
    Arg.(value & opt (some pos_int_conv) None
         & info [ "watch" ] ~docv:"N"
             ~doc:"Refresh every $(docv) seconds until interrupted \
                   (reconnecting each tick; reports are separated by a \
                   blank line).")
  in
  let format_arg =
    let fmt = Arg.enum [ ("json", `Json); ("prom", `Prom) ] in
    Arg.(value & opt fmt `Json
         & info [ "format" ] ~docv:"FORMAT"
             ~doc:"Output format: $(b,json) (the raw response line, exact \
                   wire bytes) or $(b,prom) (Prometheus text exposition).")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Query a running daemon's live metrics: counters, latency \
             histograms with per-bucket bounds, cache hit rates and \
             GC/runtime gauges.  Answered ahead of the admission queue, so \
             it works mid-load.")
    Term.(const run_stats $ socket_arg $ tcp_port_arg $ ops_domain_arg
          $ watch_arg $ format_arg)

let run_health socket tcp_port domain =
  let line =
    ops_roundtrip ?tcp_port socket (Serve.Protocol.Health { domain })
  in
  match Serve.Protocol.response_of_string line with
  | Error msg -> die "malformed health response: %s" msg
  | Ok { Serve.Protocol.rbody = Serve.Protocol.Failed msg; _ } -> die "%s" msg
  | Ok _ -> print_endline line

let health_cmd =
  Cmd.v
    (Cmd.info "health"
       ~doc:"Query a running daemon's liveness: admission-queue depth, \
             in-flight requests, drain state, per-domain request counters \
             and (when sharded) the per-shard breakdown.  Exits 1 if the \
             daemon reports an error.")
    Term.(const run_health $ socket_arg $ tcp_port_arg $ ops_domain_arg)

(* ---------------- main ---------------- *)

let () =
  let info =
    Cmd.info "dpoaf_cli" ~version:"1.0"
      ~doc:"Fine-tuning language models using formal methods feedback (DPO-AF)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ domains_cmd; tasks_cmd; specs_cmd; verify_cmd; synthesize_cmd;
            refine_cmd; finetune_cmd; simulate_cmd; report_cmd; analyze_cmd;
            smv_cmd;
            serve_cmd; loadgen_cmd; stats_cmd; health_cmd ]))
