(* The two serving workloads.  verify_cold sends requests whose steps were
   never seen before (every verify and score_pair misses the profile
   memo, so GLM2FSA, the model checker, vacuity, explanations and
   refinement do the work); serve_hot repeats a small fixed set
   (prompt-state and profile caches hit, so the serving layers, the wire
   codec and the sampler dominate). *)

module D = Dpoaf_domain.Domain
module SP = Dpoaf_serve.Protocol
module Engine = Dpoaf_serve.Engine
module Router = Dpoaf_serve.Router
module Corpus = Dpoaf_pipeline.Corpus
module Model_checker = Dpoaf_automata.Model_checker
module Metrics = Dpoaf_exec.Metrics
module Trace = Dpoaf_exec.Trace
module Pool = Dpoaf_exec.Pool
module Rng = Dpoaf_util.Rng

type kind = Cold | Hot

type env = {
  packs : (Dpoaf_lm.Model.t option * Corpus.t) list;
  fleet : Fleet.t;
  mirrored : bool Atomic.t;  (** handlers run {!Mirror.handle} *)
  mirror : (Mirror.shared * Mirror.t array) option;  (** traced runs only *)
}

(* One rule-book check per pack fills the process-lifetime NBA cache of
   the negated specs, as a long-running server would have. *)
let warm_nba dom =
  let (module P : D.S) = dom in
  let steps =
    match P.demo_responses with
    | (_, s) :: _ -> s
    | [] -> D.candidate_steps dom (List.hd P.tasks)
  in
  let controller, _ = P.controller_of_steps ~name:"warm" steps in
  ignore
    (Model_checker.verify_all ~model:(P.universal ()) ~controller
       ~specs:(P.specs ()))

(* The pretrained models are part of the system under test, not of a
   workload's inputs: every run pretrains from the same seeds. *)
let pretrain_seed = 2024

let setup ~traced =
  let packs =
    List.mapi
      (fun i dom ->
        let corpus = Corpus.build ~domain:dom () in
        let lm =
          Trace.with_span ~cat:Spans.cat "lm.pretrain" (fun () ->
              Corpus.pretrained_model (Rng.create (pretrain_seed + i)) corpus)
        in
        warm_nba dom;
        (Some lm, corpus))
      (Dpoaf_domain.all ())
  in
  let engines =
    Array.init Fleet.shards (fun i ->
        Engine.create_multi ~tag:(Router.shard_name i) packs)
  in
  let mirror =
    if traced then
      let shared = Mirror.shared () in
      Some (shared, Array.init Fleet.shards (fun i -> Mirror.create shared ~shard:i packs))
    else None
  in
  let mirrored = Atomic.make false in
  let fleet =
    Fleet.create (fun i req ->
        match mirror with
        | Some (_, ms) when Atomic.get mirrored -> Mirror.handle ms.(i) req
        | _ -> Engine.handle engines.(i) req)
  in
  { packs; fleet; mirrored; mirror }

let teardown env = Fleet.drain env.fleet

(* ---------------- checking ---------------- *)

let domain_of (req : SP.request) =
  let d =
    match req.SP.kind with
    | SP.Generate { domain; _ } | SP.Verify { domain; _ }
    | SP.Score_pair { domain; _ } | SP.Refine { domain; _ } ->
        domain
    | SP.Stats _ | SP.Health _ -> None
  in
  Dpoaf_domain.find_exn (Option.value ~default:Dpoaf_domain.default d)

(* Fraction of the pack's rule book satisfied by the controller the
   answer stands for: the verified or generated response, the preferred
   side of a comparison, the repaired response. *)
let output_sat (s : Fleet.served) =
  let specs = float_of_int (D.spec_count (domain_of s.Fleet.request)) in
  let frac (p : SP.profile) = float_of_int p.SP.score /. specs in
  match s.Fleet.response.SP.rbody with
  | SP.Verified { profile; _ } | SP.Generated { profile; _ } -> frac profile
  | SP.Compared { preference = "b"; profile_b; _ } -> frac profile_b
  | SP.Compared { profile_a; _ } -> frac profile_a
  | SP.Refined { final_profile; _ } -> frac final_profile
  | _ -> 0.0

let ok (s : Fleet.served) = SP.status_of_body s.Fleet.response.SP.rbody = "ok"

(* Answers are checked as each chunk completes, outside its timing, so a
   run keeps no answers beyond the few the self-test corrupts.  Every
   answer must equal a serial [Engine.handle] of its request, survive its
   own wire line and report the profiles a fresh unmemoized verification
   gives; every [semantic_every]-th distinct request also gets the
   semantic checks of {!Check.body}.  serve_hot repeats one
   chunk, so its answers are checked in full once per chunk position and
   compared structurally after that. *)
type checker = {
  serial : Engine.t;
  seed : int;
  kind : kind;
  reference : (int, SP.body) Hashtbl.t;
  mutable distinct : int;
  mutable problems : string list;
  mutable verified : (Fleet.served * string) list;
  mutable answers : int;
  mutable failed : int;
  mutable sat : float;
}

let checker kind env ~seed =
  {
    serial = Engine.create_multi env.packs;
    seed;
    kind;
    reference = Hashtbl.create 128;
    distinct = 0;
    problems = [];
    verified = [];
    answers = 0;
    failed = 0;
    sat = 0.0;
  }

let semantic_every = function Cold -> 4 | Hot -> 1
let kept_for_self_test = 64

let problem ck fmt = Printf.ksprintf (fun s -> ck.problems <- s :: ck.problems) fmt

let check_in_full ck (s : Fleet.served) ~fresh =
  let req = s.Fleet.request in
  let rid = req.SP.id in
  let body = s.Fleet.response.SP.rbody in
  let serial = Check.wire_body rid (Engine.handle ck.serial req) in
  ck.distinct <- ck.distinct + 1;
  (match Check.same_as_serial ~served:(Check.wire_body rid body) ~serial with
  | Ok () -> ()
  | Error e -> problem ck "%s: %s" rid e);
  (match SP.response_of_string s.Fleet.wire with
  | Ok r when r.SP.rbody = body -> ()
  | _ -> problem ck "%s: wire line does not decode to the answer" rid);
  (match fresh with Ok () -> () | Error e -> problem ck "%s: %s" rid e);
  if ok s && ck.distinct mod semantic_every ck.kind = 0 then
    match
      Check.body (domain_of req) ~seed:(ck.seed + ck.distinct) req.SP.kind body
    with
    | Ok () ->
        if List.length ck.verified < kept_for_self_test then
          ck.verified <- (s, serial) :: ck.verified
    | Error e -> problem ck "%s: %s" rid e

(* The fresh recomputations cost more than serving the answers did, so
   they run on two domains: spawned for each chunk's check and joined
   before the next chunk is timed, so that no extra domain exists while
   the fleet is measured. *)
let recomputed = function
  | [] -> []
  | served ->
      let pool = Pool.create ~jobs:2 in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          Pool.map_on_pool pool
            (fun (s : Fleet.served) ->
              Check.profiles_recomputed (domain_of s.Fleet.request)
                s.Fleet.request.SP.kind s.Fleet.response.SP.rbody)
            served)

let inspect ck served =
  let in_full =
    List.filter
      (fun i -> ck.kind = Cold || not (Hashtbl.mem ck.reference i))
      (List.init (Array.length served) Fun.id)
  in
  let fresh = Hashtbl.create 128 in
  List.iter2 (Hashtbl.add fresh) in_full
    (recomputed (List.map (Array.get served) in_full));
  Array.iteri
    (fun i (s : Fleet.served) ->
      ck.answers <- ck.answers + 1;
      if ok s then ck.sat <- ck.sat +. output_sat s
      else ck.failed <- ck.failed + 1;
      match (ck.kind, Hashtbl.find_opt ck.reference i) with
      | Hot, Some b ->
          if b <> s.Fleet.response.SP.rbody then
            problem ck "%s: answer differs from the same request's first answer"
              s.Fleet.request.SP.id
      | Hot, None ->
          check_in_full ck s ~fresh:(Hashtbl.find fresh i);
          Hashtbl.add ck.reference i s.Fleet.response.SP.rbody
      | Cold, _ -> check_in_full ck s ~fresh:(Hashtbl.find fresh i))
    served

(* ---------------- measuring ---------------- *)

type timing = {
  decode_s : float;
  roundtrip_s : float;
  encode_s : float;
  queue_wait_us : float;
  execute_us : float;
}

type chunk = {
  memo : int * int;  (** hits, misses of the packs' profile memo *)
  wall : float;
  cpu : float;  (** process CPU time over the chunk, all domains *)
  words : float;
  ops : int;
  timings : timing array;  (** traced runs only *)
}

(* Hits and misses so far of the packs' own profile memo: the driving
   pack's [evaluate.profile] cache and the other packs' [eval.profile.<pack>]. *)
let profile_memo_stats () =
  List.fold_left
    (fun (h, m) (key, v) ->
      let memo =
        String.starts_with ~prefix:"cache.evaluate.profile." key
        || String.starts_with ~prefix:"cache.eval.profile." key
      in
      if memo && String.ends_with ~suffix:".hits" key then (h + int_of_float v, m)
      else if memo && String.ends_with ~suffix:".misses" key then (h, m + int_of_float v)
      else (h, m))
    (0, 0) (Metrics.summary ())

let measure ck env ~outstanding ~traced lines =
  let memo_h0, memo_m0 = profile_memo_stats () in
  let h0 = Atomic.get env.fleet.Fleet.handler_words in
  let w0 = Gc.minor_words () in
  let c0 = Stat.cpu () in
  let t0 = Stat.now () in
  let served = Fleet.run ~traced env.fleet ~outstanding lines in
  let wall = Stat.now () -. t0 in
  let cpu = Stat.cpu () -. c0 in
  let words =
    Gc.minor_words () -. w0
    +. float_of_int (Atomic.get env.fleet.Fleet.handler_words - h0)
  in
  let memo_h1, memo_m1 = profile_memo_stats () in
  inspect ck served;
  let timings =
    if not traced then [||]
    else
      Array.map
        (fun (s : Fleet.served) ->
          {
            decode_s = s.Fleet.decode_s;
            roundtrip_s = s.Fleet.roundtrip_s;
            encode_s = s.Fleet.encode_s;
            queue_wait_us = s.Fleet.response.SP.queue_wait_us;
            execute_us = s.Fleet.response.SP.execute_us;
          })
        served
  in
  { memo = (memo_h1 - memo_h0, memo_m1 - memo_m0); wall; cpu;
    words; ops = Array.length lines; timings }

(* Whole chunks until [seconds] of measured time have passed. *)
let loop ~seconds next f =
  let rec go acc spent =
    if acc <> [] && spent >= seconds then List.rev acc
    else
      let c = f (next ()) in
      go (c :: acc) (spent +. c.wall)
  in
  go [] 0.0

let domains env = List.map (fun (_, c) -> c.Corpus.domain) env.packs

let stream kind env ~seed =
  let g = Inputs.create ~seed:((seed * 31) + 17) in
  match kind with
  | Cold -> fun () -> Inputs.cold_chunk g (domains env)
  | Hot ->
      let lines = Inputs.hot_chunk g (domains env) in
      fun () -> lines

let ms_per_op chunks =
  let xs = List.map (fun c -> 1000.0 *. c.wall /. float_of_int c.ops) chunks in
  Stat.describe "ms per op over chunks" xs;
  Stat.low_time xs

let alloc_kw_per_op chunks =
  Stat.median (List.map (fun c -> c.words /. 1000.0 /. float_of_int c.ops) chunks)

(* Each checker must reject a corrupted copy of an answer it accepted. *)
let self_test ~seed verified =
  let rejects what (s : Fleet.served) body =
    match Check.body (domain_of s.Fleet.request) ~seed s.Fleet.request.SP.kind body with
    | Error _ -> None
    | Ok () -> Some (what ^ " accepted")
  in
  let first f = List.find_map f verified in
  let flip dom (p : SP.profile) =
    match p.SP.satisfied with
    | [] -> None
    | s :: rest ->
        Some
          {
            SP.score = p.SP.score - 1;
            satisfied = rest;
            violated =
              List.filter
                (fun n -> n = s || List.mem n p.SP.violated)
                (D.spec_names dom);
            vacuous = List.filter (( <> ) s) p.SP.vacuous;
          }
  in
  let cases =
    [
      ( "flipped verdict",
        first (fun ((s : Fleet.served), _) ->
            match s.Fleet.response.SP.rbody with
            | SP.Verified ({ profile; _ } as v) ->
                Option.map
                  (fun p -> (s, SP.Verified { v with profile = p }))
                  (flip (domain_of s.Fleet.request) profile)
            | _ -> None) );
      ( "swapped preference",
        first (fun ((s : Fleet.served), _) ->
            match s.Fleet.response.SP.rbody with
            | SP.Compared c ->
                let swapped =
                  match c.preference with "a" -> "b" | "b" -> "a" | _ -> "a"
                in
                Some (s, SP.Compared { c with preference = swapped })
            | _ -> None) );
      ( "wrong margin",
        first (fun ((s : Fleet.served), _) ->
            match s.Fleet.response.SP.rbody with
            | SP.Compared c -> Some (s, SP.Compared { c with margin = c.margin + 1 })
            | _ -> None) );
      ( "reversed repair",
        first (fun ((s : Fleet.served), _) ->
            match s.Fleet.response.SP.rbody with
            | SP.Refined r
              when Check.violations r.final_profile
                   < Check.violations r.original_profile ->
                Some
                  ( s,
                    SP.Refined
                      { r with
                        final_profile = r.original_profile;
                        original_profile = r.final_profile;
                        final_steps =
                          (match s.Fleet.request.SP.kind with
                          | SP.Refine { steps; _ } -> steps
                          | _ -> r.final_steps);
                      } )
            | _ -> None) );
    ]
  in
  let failures =
    List.filter_map
      (fun (what, case) ->
        match case with
        | None -> None
        | Some (s, body) -> rejects what s body)
      cases
  in
  (* a flipped verdict must not pass as a fresh verification either *)
  let flipped_fresh =
    match cases with
    | (_, Some ((s : Fleet.served), body)) :: _ -> (
        match
          Check.profiles_recomputed (domain_of s.Fleet.request) s.Fleet.request.SP.kind body
        with
        | Ok () -> [ "flipped verdict matched a fresh verification" ]
        | Error _ -> [])
    | _ -> []
  in
  (* a tampered answer must not pass as the serial one *)
  let tampered =
    match cases with
    | (_, Some (s, body)) :: _ ->
        let rid = s.Fleet.request.SP.id in
        let serial =
          snd (List.find (fun ((v : Fleet.served), _) -> v == s) verified)
        in
        if Result.is_ok (Check.same_as_serial ~served:(Check.wire_body rid body) ~serial)
        then [ "tampered answer matched the serial one" ]
        else []
    | _ -> [ "no verified answer to corrupt" ]
  in
  let exercised = List.length (List.filter (fun (_, c) -> c <> None) cases) in
  (failures @ flipped_fresh @ tampered, exercised)

(* ---------------- the runs ---------------- *)

(* Requests kept in flight.  serve_hot's requests take ~25 us, about as
   long as waking a sleeping domain on this box; with two in flight its
   throughput followed the host's wake-up latency (runs slowed by up to
   70% for their whole length), so it keeps two per shard queued and the
   shards' workers rarely sleep. *)
let outstanding = function Cold -> 2 | Hot -> 4

let finish_checks ck =
  let st, exercised = self_test ~seed:ck.seed ck.verified in
  Printf.eprintf
    "checked %d answers (%d in full against a serial engine); self-test: %d corruptions tried\n%!"
    ck.answers ck.distinct (exercised + 2);
  List.rev ck.problems @ List.map (fun s -> "self-test: " ^ s) st

let run kind env ~seed ~seconds ~setup_s =
  let ck = checker kind env ~seed in
  let next = stream kind env ~seed in
  let chunks = loop ~seconds next (measure ck env ~outstanding:(outstanding kind) ~traced:false) in
  let rss = Stat.peak_rss_mb () in
  let total f = List.fold_left (fun acc c -> acc +. f c) 0.0 chunks in
  Printf.eprintf "cores kept busy (process CPU / wall over the chunks): %.2f\n"
    (total (fun c -> c.cpu) /. total (fun c -> c.wall));
  let problems = finish_checks ck in
  {
    Report.correct = problems = [];
    attempted = ck.answers;
    failed = ck.failed;
    problems;
    metrics =
      [
        Report.metric "setup_s" "s" setup_s;
        Report.metric "ms_per_op" "ms" (ms_per_op chunks);
        Report.metric "alloc_kw_per_op" "kw" (alloc_kw_per_op chunks);
        Report.metric "peak_rss_mb" "MiB" rss;
        Report.metric "spec_sat" "fraction"
          (ck.sat /. float_of_int (ck.answers - ck.failed));
      ];
  }

let summary_value summary key =
  Option.value ~default:0.0 (List.assoc_opt key summary)

let hit_rate (h0, m0) (h1, m1) =
  Stat.ratio (float_of_int (h1 - h0)) (float_of_int (h1 - h0 + m1 - m0))

let nba_stats () =
  let s = Metrics.summary () in
  ( int_of_float (summary_value s "cache.automata.nba.hits"),
    int_of_float (summary_value s "cache.automata.nba.misses") )

(* The traced run: half the time untraced through the engine, half traced
   through the mirror, both one request outstanding so that the stages of
   a request tile the loop's wall time. *)
let traced kind env ~seed ~seconds =
  let shared, mirrors = Option.get env.mirror in
  let ck = checker kind env ~seed in
  let next = stream kind env ~seed in
  let gc0 = Stat.collections () in
  let plain = loop ~seconds:(seconds /. 2.0) next (measure ck env ~outstanding:1 ~traced:false) in
  let gc1 = Stat.collections () in
  let plain_ops = float_of_int (List.fold_left (fun acc c -> acc + c.ops) 0 plain) in
  Atomic.set env.mirrored true;
  let prompt_stats () =
    Array.fold_left
      (fun (h, m) t ->
        let h', m' = Mirror.prompt_stats t in
        (h + h', m + m'))
      (0, 0) mirrors
  in
  let p0 = prompt_stats () and nba0 = nba_stats () in
  let admitted0 = Fleet.admitted env.fleet in
  let c = shared.Mirror.counters in
  let read a = float_of_int (Atomic.get a) in
  let counters0 =
    List.map read
      [ c.Mirror.products; c.product_states; c.tokens; c.refines;
        c.refine_rounds; c.refine_accepted ]
  in
  let pretrain_s = Spans.pretrain_s () in
  Spans.start ();
  let traced_chunks =
    loop ~seconds:(seconds /. 2.0) next (measure ck env ~outstanding:1 ~traced:true)
  in
  Trace.disable ();
  Atomic.set env.mirrored false;
  let counters =
    List.map2
      (fun a b -> read a -. b)
      [ c.Mirror.products; c.product_states; c.tokens; c.refines;
        c.refine_rounds; c.refine_accepted ]
      counters0
  in
  let products, states, tokens, refines, rounds, accepted =
    match counters with
    | [ a; b; c; d; e; f ] -> (a, b, c, d, e, f)
    | _ -> assert false
  in
  let admitted =
    Array.map2 ( - ) (Fleet.admitted env.fleet) admitted0
    |> Array.to_list |> List.map float_of_int
  in
  let events = Spans.collect () in
  let s = Spans.summarize events in
  let reqs = List.concat_map (fun c -> Array.to_list c.timings) traced_chunks in
  let sum f = List.fold_left (fun acc x -> acc +. f x) 0.0 reqs in
  let us x = x *. 1e6 in
  let queue_wait = sum (fun r -> r.queue_wait_us) in
  let execute = sum (fun r -> r.execute_us) in
  let roundtrip = sum (fun r -> us r.roundtrip_s) in
  let engine_spans =
    List.fold_left (fun acc k -> acc +. Spans.total_us s ("serve.engine." ^ k)) 0.0
      [ "generate"; "verify"; "score_pair"; "refine" ]
  in
  (* the round trip is not a stage of its own: it splits into queue wait,
     the handler (whose spans already count) and the handoffs *)
  Hashtbl.remove s.Spans.self "serve.roundtrip";
  Hashtbl.replace s.Spans.self "serve.queue_wait" queue_wait;
  Hashtbl.replace s.Spans.self "serve.handoff" (roundtrip -. queue_wait -. execute);
  Hashtbl.replace s.Spans.self "serve.execute_outside_handler" (execute -. engine_spans);
  let wall_us = us (List.fold_left (fun acc c -> acc +. c.wall) 0.0 traced_chunks) in
  Spans.print_self_table s ~ops:(List.length reqs) ~wall_us;
  let traced_ms = ms_per_op traced_chunks and plain_ms = ms_per_op plain in
  let handoffs =
    List.map
      (fun r -> us r.roundtrip_s -. r.queue_wait_us -. r.execute_us)
      reqs
  in
  let gc_minor = float_of_int (fst gc1 - fst gc0) /. plain_ops
  and gc_major = float_of_int (snd gc1 - snd gc0) /. plain_ops in
  let mean_admitted = Stat.mean admitted in
  let layer =
    [
      ("lm.pretrain_s", pretrain_s);
      ("lang.compile_us", Spans.median_us s "lang.compile");
      ("automata.product_us", Spans.median_us s "automata.product");
      ("automata.product_states", Stat.ratio states products);
      ("automata.check_us", Spans.median_us s "automata.check");
      ("automata.nba_hit_rate", hit_rate nba0 (nba_stats ()));
      ("analysis.vacuity_us", Spans.median_us s "analysis.vacuity");
      ("analysis.explain_us", Spans.median_us s "analysis.explain");
      ("refine.run_us", Spans.median_us s "refine.run");
      ("refine.rounds_per_req", Stat.ratio rounds refines);
      ("refine.accept_rate", Stat.ratio accepted rounds);
      ( "domain.profile_hit_rate",
        (* the program's own memo, over the untraced half *)
        hit_rate (0, 0)
          (List.fold_left
             (fun (h, m) c -> (h + fst c.memo, m + snd c.memo))
             (0, 0) plain) );
      ("serve.decode_us", Spans.median_us s "serve.decode");
      ("serve.encode_us", Spans.median_us s "serve.encode");
      ("serve.queue_wait_us", Stat.median (List.map (fun r -> r.queue_wait_us) reqs));
      ("serve.handoff_us", Stat.median handoffs);
      ( "serve.shard_imbalance",
        Stat.ratio (List.fold_left Float.max 0.0 admitted) mean_admitted );
      ("serve.engine.generate_us", Spans.median_us s "serve.engine.generate");
      ("serve.engine.verify_us", Spans.median_us s "serve.engine.verify");
      ("serve.engine.score_pair_us", Spans.median_us s "serve.engine.score_pair");
      ("serve.engine.refine_us", Spans.median_us s "serve.engine.refine");
      ("lm.prompt_fold_us", Spans.median_us s "lm.prompt_fold");
      ("lm.decode_us_per_token", Stat.ratio (Spans.total_us s "lm.decode") tokens);
      ("lm.prompt_hit_rate", hit_rate p0 (prompt_stats ()));
      ("gc.minor_per_op", gc_minor);
      ("gc.major_per_op", gc_major);
      ("trace.ms_per_op", traced_ms);
      ("trace.untraced_ms_per_op", plain_ms);
      ("trace.overhead_pct", 100.0 *. Stat.ratio (traced_ms -. plain_ms) plain_ms);
      ("trace.accounted_frac", Stat.ratio (Spans.self_total_us s) wall_us);
    ]
  in
  Trace.write_chrome (Output.path (match kind with Cold -> "verify_cold" | Hot -> "serve_hot"));
  let problems = finish_checks ck in
  (ck.answers, ck.failed, problems, layer)
