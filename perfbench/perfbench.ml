(* The repository benchmark.

     perfbench --workload finetune|verify_cold|serve_hot --seed N
               --seconds S --trace 0|1

   prints, as its last line, one JSON object with [correct], [attempted],
   [failed] and [metrics]: the end-to-end metrics with [--trace 0], the
   per-layer metrics with [--trace 1].  See README.md in this directory. *)

module Json = Dpoaf_util.Json

(* Every per-layer metric, printed by every workload; a layer a workload
   does not exercise reads 0. *)
let per_layer =
  [
    ("lm.pretrain_s", "s");
    ("pipeline.collect_ms", "ms");
    ("pipeline.pairs", "count");
    ("pipeline.eval_ms", "ms");
    ("feedback.hit_rate", "fraction");
    ("dpo.train_ms", "ms");
    ("dpo.step_ms", "ms");
    ("dpo.step_alloc_kw", "kw");
    ("tensor.tape_nodes_per_step", "count");
    ("lang.compile_us", "us");
    ("automata.product_us", "us");
    ("automata.product_states", "count");
    ("automata.check_us", "us");
    ("automata.nba_hit_rate", "fraction");
    ("analysis.vacuity_us", "us");
    ("analysis.explain_us", "us");
    ("refine.run_us", "us");
    ("refine.rounds_per_req", "count");
    ("refine.accept_rate", "fraction");
    ("domain.profile_hit_rate", "fraction");
    ("serve.decode_us", "us");
    ("serve.encode_us", "us");
    ("serve.queue_wait_us", "us");
    ("serve.handoff_us", "us");
    ("serve.shard_imbalance", "ratio");
    ("serve.engine.generate_us", "us");
    ("serve.engine.verify_us", "us");
    ("serve.engine.score_pair_us", "us");
    ("serve.engine.refine_us", "us");
    ("lm.prompt_fold_us", "us");
    ("lm.decode_us_per_token", "us");
    ("lm.prompt_hit_rate", "fraction");
    ("gc.minor_per_op", "count");
    ("gc.major_per_op", "count");
    ("trace.ms_per_op", "ms");
    ("trace.untraced_ms_per_op", "ms");
    ("trace.overhead_pct", "%");
    ("trace.accounted_frac", "fraction");
  ]

(* Set-up is measured several times per run: in fresh forked children
   (so process-lifetime caches start cold each time) and once more in
   this process.  The fastest is reported: contention on a shared box
   only ever slows a set-up down, and a single ~1 s pretraining measured
   anywhere from 0.7 to 1.1 s back to back.  With the fastest of three,
   the serving set-ups' medians over ten runs still moved by 16% from one
   set of runs to the next. *)
let setup_repeats = 5

(* Time [setup] in a forked child that starts as cold as this process.
   Must run before this process spawns any domain. *)
let setup_in_child setup =
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let code =
        try
          let t0 = Stat.now () in
          let teardown = setup () in
          let dt = Stat.now () -. t0 in
          teardown ();
          let oc = Unix.out_channel_of_descr w in
          Printf.fprintf oc "%.17g\n" dt;
          close_out oc;
          0
        with e ->
          prerr_endline ("set-up failed: " ^ Printexc.to_string e);
          2
      in
      Unix._exit code
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let line = try Some (input_line ic) with End_of_file -> None in
      close_in ic;
      (match (Unix.waitpid [] pid, line) with
      | (_, Unix.WEXITED 0), Some l -> float_of_string l
      | _ -> failwith "set-up child failed")

let timed f =
  let t0 = Stat.now () in
  let x = f () in
  (x, Stat.now () -. t0)

let emit (r : Report.t) =
  List.iter (fun p -> prerr_endline ("CHECK FAILED: " ^ p)) r.Report.problems;
  print_endline
    (Json.to_string
       (Json.obj
          [
            ("correct", Json.Bool r.Report.correct);
            ("attempted", Json.num (float_of_int r.Report.attempted));
            ("failed", Json.num (float_of_int r.Report.failed));
            ( "metrics",
              Json.obj
                (List.map
                   (fun (m : Report.metric) ->
                     ( m.Report.name,
                       Json.obj
                         [ ("value", Json.num m.Report.value);
                           ("unit", Json.str m.Report.unit_) ] ))
                   r.Report.metrics) );
          ]))

let layer_report (attempted, failed, problems, values) =
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n per_layer) then failwith ("unlisted per-layer metric " ^ n))
    values;
  {
    Report.correct = problems = [];
    attempted;
    failed;
    problems;
    metrics =
      List.map
        (fun (n, u) ->
          Report.metric n u (Option.value ~default:0.0 (List.assoc_opt n values)))
        per_layer;
  }

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " finetune | verify_cold | serve_hot");
      ("--seed", Arg.Set_int seed, " workload seed (inputs are made from it)");
      ("--seconds", Arg.Set_int seconds, " how long one run measures");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
    ]
  in
  let usage = "perfbench --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let seed = !seed and seconds = float_of_int !seconds and traced = !trace = 1 in
  let setup_s ~child ~own =
    let children =
      if traced then []
      else List.init (setup_repeats - 1) (fun _ -> setup_in_child child)
    in
    if traced then Dpoaf_exec.Trace.enable ();
    let env, own_s = timed own in
    Dpoaf_exec.Trace.disable ();
    (env, List.fold_left Float.min own_s children)
  in
  let report =
    match !workload with
    | "finetune" ->
        let env, setup_s =
          setup_s
            ~child:(fun () ->
              ignore (Finetune.setup ~seed : Finetune.env);
              fun () -> ())
            ~own:(fun () -> Finetune.setup ~seed)
        in
        if traced then layer_report (Finetune.traced env ~seconds)
        else Finetune.run env ~seconds ~setup_s
    | ("verify_cold" | "serve_hot") as w ->
        let kind = if w = "verify_cold" then Serving.Cold else Serving.Hot in
        let env, setup_s =
          setup_s
            ~child:(fun () ->
              let env = Serving.setup ~traced:false in
              fun () -> Serving.teardown env)
            ~own:(fun () -> Serving.setup ~traced)
        in
        let r =
          if traced then layer_report (Serving.traced kind env ~seed ~seconds)
          else Serving.run kind env ~seed ~seconds ~setup_s
        in
        Serving.teardown env;
        r
    | w ->
        prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
        exit 2
  in
  emit report
