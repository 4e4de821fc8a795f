module Model = Dpoaf_lm.Model
module Lora = Dpoaf_tensor.Lora
module Grammar = Dpoaf_lm.Grammar
module Optim = Dpoaf_tensor.Optim
module Tensor = Dpoaf_tensor.Tensor
module Rng = Dpoaf_util.Rng
module Json = Dpoaf_util.Json
module Metrics = Dpoaf_exec.Metrics
module Trace = Dpoaf_exec.Trace

type config = {
  beta : float;
  lr : float;
  epochs : int;
  batch : int;
  checkpoint_every : int;
  shuffle_each_epoch : bool;
}

let default_config =
  {
    beta = 0.5;
    lr = 5e-3;
    epochs = 200;
    batch = 16;
    checkpoint_every = 20;
    shuffle_each_epoch = true;
  }

type epoch_stats = { epoch : int; loss : float; accuracy : float; margin : float }

type run = {
  seed : int;
  stats : epoch_stats list;
  checkpoints : (int * Model.t) list;
  final : Model.t;
}

(* ---------------- per-step telemetry ---------------- *)

type step_record = {
  seed : int;
  epoch : int;
  step : int;
  loss : float;
  accuracy : float;
  margin : float;
  logp_gap : float;
  grad_norm : float;
  update_norm : float;
  seconds : float;
}

type sink = step_record -> unit

let csv_header =
  "seed,epoch,step,loss,accuracy,margin,logp_gap,grad_norm,update_norm,seconds"

let csv_line r =
  Printf.sprintf "%d,%d,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f" r.seed r.epoch
    r.step r.loss r.accuracy r.margin r.logp_gap r.grad_norm r.update_norm
    r.seconds

let jsonl_line r =
  Json.to_string
    (Json.obj
       [
         ("seed", Json.num (float_of_int r.seed));
         ("epoch", Json.num (float_of_int r.epoch));
         ("step", Json.num (float_of_int r.step));
         ("loss", Json.num r.loss);
         ("accuracy", Json.num r.accuracy);
         ("margin", Json.num r.margin);
         ("logp_gap", Json.num r.logp_gap);
         ("grad_norm", Json.num r.grad_norm);
         ("update_norm", Json.num r.update_norm);
         ("seconds", Json.num r.seconds);
       ])

(* Domain-safe file sink: [train_seeds] fans seeds out over workers, so
   writes are serialized by a mutex.  Row order between seeds is therefore
   arbitrary — sort on the seed/step columns when analysing. *)
let file_sink path =
  let oc = open_out path in
  let mutex = Mutex.create () in
  let csv = Filename.check_suffix path ".csv" in
  if csv then begin
    output_string oc csv_header;
    output_char oc '\n'
  end;
  let sink r =
    Mutex.lock mutex;
    output_string oc (if csv then csv_line r else jsonl_line r);
    output_char oc '\n';
    Mutex.unlock mutex
  in
  let close () =
    Mutex.lock mutex;
    close_out oc;
    Mutex.unlock mutex
  in
  (sink, close)

let step_latency = Metrics.histogram "dpo.step"
let steps_run = Metrics.counter "dpo.steps"

let l2_norm tensors =
  sqrt
    (List.fold_left
       (fun acc t ->
         let s = ref 0.0 in
         for i = 0 to Tensor.numel t - 1 do
           let x = Tensor.get t i in
           s := !s +. (x *. x)
         done;
         acc +. !s)
       0.0 tensors)

(* ---------------- frozen features ---------------- *)

(* DPO trains only the adapter of [logits = (W + A·B) h + bias]
   (Appendix E).  At each scored position of each pair, the allowed rows,
   the target, [h] and [W h] therefore stay the same for the whole run:
   they are computed once, and a step computes only [u = B h], the logits
   [(W h + A u) + bias] over the allowed rows, and closed-form gradients
   for [A] and [B].

   The step is bit-identical to scoring both legs on an autodiff tape with
   [Autodiff.lora_logit_logprob] and back-propagating the DPO loss through
   it (test/test_dpo.ml keeps that tape step as the oracle).  It performs
   the same float operations, and it accumulates the gradients in the
   order the tape's reverse pass does: pairs last to first, the chosen leg
   before the rejected one, positions last to first, with the tape's
   [0.0 +.] adds and [<> 0.0] skips.

   A run's features live in a few flat arrays indexed by position (every
   scored token of every leg, legs in pair order).  They live as long as
   the run, so one small block per position would be promoted to the
   major heap and leave it fragmented after the run; a handful of large
   blocks does not. *)

type features = {
  d : int;
  rank : int;
  first : int array;
      (* position [p]'s allowed rows are [rows.(first.(p))] to
         [rows.(first.(p + 1) - 1)] *)
  target : int array;  (* index into [rows] of position [p]'s token *)
  rows : int array;  (* the grammar's allowed tokens *)
  wh : float array;  (* [W h] on each allowed row *)
  h : float array;  (* position [p]'s conditioning vector, at [p * d] *)
  u : float array;  (* [B h] of the current step for position [p], at [p * rank] *)
  ls : float array;  (* the current step's log-softmax on each allowed row *)
}

(* A pair's chosen leg is positions [chosen] to [rejected - 1], its
   rejected leg [rejected] to [stop - 1]. *)
type example = { chosen : int; rejected : int; stop : int; refs : Dpo.ref_logprobs }

(* The log-probability of position [p] under adapter [(ad, bd)]; leaves
   its [u] and [ls] for {!position_backward}. *)
let position_logprob f ~ad ~bd ~biasd p =
  let d = f.d and rank = f.rank and h = f.h and u = f.u and ls = f.ls in
  let ho = p * d and uo = p * rank in
  for i = 0 to rank - 1 do
    let acc = ref 0.0 in
    let off = i * d in
    for j = 0 to d - 1 do
      acc := !acc +. (bd.(off + j) *. h.(ho + j))
    done;
    u.(uo + i) <- !acc
  done;
  let k0 = f.first.(p) and k1 = f.first.(p + 1) - 1 in
  for k = k0 to k1 do
    let acc = ref 0.0 in
    let off = f.rows.(k) * rank in
    for i = 0 to rank - 1 do
      acc := !acc +. (ad.(off + i) *. u.(uo + i))
    done;
    ls.(k) <- (f.wh.(k) +. !acc) +. biasd.(f.rows.(k))
  done;
  let m = ref neg_infinity in
  for k = k0 to k1 do
    m := Float.max !m ls.(k)
  done;
  let z = ref 0.0 in
  for k = k0 to k1 do
    z := !z +. exp (ls.(k) -. !m)
  done;
  let log_z = !m +. log !z in
  for k = k0 to k1 do
    ls.(k) <- ls.(k) -. log_z
  done;
  ls.(f.target.(p))

(* The tape's sum of positions [p0 .. p1 - 1], last to first. *)
let leg_logprob f ~ad ~bd ~biasd p0 p1 =
  let acc = ref 0.0 in
  for p = p1 - 1 downto p0 do
    acc := !acc +. position_logprob f ~ad ~bd ~biasd p
  done;
  !acc

(* Adds position [p]'s adapter gradients, for adjoint [g] of its
   log-probability, into [agrad] and [bgrad]; [bhg] is rank-sized
   scratch. *)
let position_backward f ~ad ~agrad ~bgrad ~bhg p g =
  let d = f.d and rank = f.rank in
  let lsg_t = 0.0 +. g in
  Array.fill bhg 0 rank 0.0;
  let uo = p * rank in
  for k = f.first.(p) to f.first.(p + 1) - 1 do
    let gk = if k = f.target.(p) then lsg_t else 0.0 in
    let abxg = 0.0 +. (0.0 +. ((0.0 +. gk) -. (lsg_t *. exp f.ls.(k)))) in
    if abxg <> 0.0 then begin
      let off = f.rows.(k) * rank in
      for i = 0 to rank - 1 do
        agrad.(off + i) <- agrad.(off + i) +. (abxg *. f.u.(uo + i));
        bhg.(i) <- bhg.(i) +. (abxg *. ad.(off + i))
      done
    end
  done;
  let ho = p * d in
  for i = 0 to rank - 1 do
    let gi = bhg.(i) in
    if gi <> 0.0 then begin
      let off = i * d in
      for j = 0 to d - 1 do
        bgrad.(off + j) <- bgrad.(off + j) +. (gi *. f.h.(ho + j))
      done
    end
  done

let leg_backward f ~ad ~agrad ~bgrad ~bhg p0 p1 g =
  for p = p1 - 1 downto p0 do
    position_backward f ~ad ~agrad ~bgrad ~bhg p (0.0 +. g)
  done

(* The features of every pair's legs under [model]'s frozen tensors, and
   each pair's reference log-probabilities under its adapter. *)
let features (model : Model.t) pairs =
  let d = model.Model.config.Model.dim and rank = model.Model.config.Model.lora_rank in
  let n =
    List.fold_left
      (fun acc (p : Pref_data.pair) ->
        acc + List.length p.Pref_data.chosen + List.length p.Pref_data.rejected)
      0 pairs
  in
  let first = Array.make (n + 1) 0 and target = Array.make n 0 in
  let h = Array.make (n * d) 0.0 in
  let rows = ref (Array.make (8 * n) 0) in
  let pos = ref 0 in
  let leg (pair : Pref_data.pair) tokens =
    let grammar = pair.Pref_data.grammar in
    let rec walk gstate state = function
      | [] ->
          if not (Grammar.is_final grammar gstate) then
            invalid_arg "Trainer: incomplete response"
      | tok :: rest -> (
          let allowed =
            Grammar.allowed grammar ~min_clauses:pair.Pref_data.min_clauses
              ~max_clauses:pair.Pref_data.max_clauses gstate
          in
          match Grammar.advance grammar gstate tok with
          | None -> invalid_arg "Trainer: grammar rejects token"
          | Some gstate' ->
              let p = !pos in
              let at = first.(p) in
              (match List.find_index (fun r -> r = tok) allowed with
              | Some i -> target.(p) <- at + i
              | None -> invalid_arg "Trainer: target not allowed");
              let stop = at + List.length allowed in
              if stop > Array.length !rows then begin
                let bigger = Array.make (2 * stop) 0 in
                Array.blit !rows 0 bigger 0 at;
                rows := bigger
              end;
              List.iteri (fun k r -> !rows.(at + k) <- r) allowed;
              first.(p + 1) <- stop;
              Array.blit (Model.Fwd.hidden model state) 0 h (p * d) d;
              pos := p + 1;
              walk gstate' (Model.Fwd.extend model state tok) rest)
    in
    walk (Grammar.start grammar) (Model.Fwd.init model ~prompt:pair.Pref_data.prompt)
      tokens
  in
  let legs =
    List.map
      (fun (pair : Pref_data.pair) ->
        let chosen = !pos in
        leg pair pair.Pref_data.chosen;
        let rejected = !pos in
        leg pair pair.Pref_data.rejected;
        (chosen, rejected, !pos))
      pairs
  in
  let rows = Array.sub !rows 0 first.(n) in
  let based = model.Model.out.Lora.base.Tensor.data in
  let wh = Array.make (Array.length rows) 0.0 in
  for p = 0 to n - 1 do
    for k = first.(p) to first.(p + 1) - 1 do
      let acc = ref 0.0 in
      let off = rows.(k) * d in
      for j = 0 to d - 1 do
        acc := !acc +. (based.(off + j) *. h.((p * d) + j))
      done;
      wh.(k) <- !acc
    done
  done;
  let f =
    { d; rank; first; target; rows; wh; h; u = Array.make (n * rank) 0.0;
      ls = Array.make (Array.length rows) 0.0 }
  in
  let lp =
    leg_logprob f ~ad:model.Model.out.Lora.a.Tensor.data
      ~bd:model.Model.out.Lora.b.Tensor.data ~biasd:model.Model.bias.Tensor.data
  in
  ( f,
    List.map
      (fun (chosen, rejected, stop) ->
        { chosen; rejected; stop;
          refs = { Dpo.ref_chosen = lp chosen rejected; ref_rejected = lp rejected stop } })
      legs )

(* One optimizer step over [examples.(first .. first + size - 1)], with
   the adapter gradients written into [ga] and [gb].  The gradient and LoRA-update norms require an extra pass
   over the adapter parameters, so they are computed only when a
   telemetry sink is attached; the returned [(loss, accuracy, margin)]
   triple always feeds the epoch statistics. *)
let batch_step ~want_norms policy opt ~beta ~ga ~gb f examples ~first ~size =
  let t0 = Unix.gettimeofday () in
  let ad = policy.Model.out.Lora.a.Tensor.data
  and bd = policy.Model.out.Lora.b.Tensor.data
  and biasd = policy.Model.bias.Tensor.data in
  (* forward: x = β((lp_w − lp_l) − (ref_w − ref_l)); loss = softplus(−x) *)
  let w = Array.make size 0.0 and l = Array.make size 0.0 and nx = Array.make size 0.0 in
  let total = ref 0.0 in
  for k = 0 to size - 1 do
    let e = examples.(first + k) in
    w.(k) <- leg_logprob f ~ad ~bd ~biasd e.chosen e.rejected;
    l.(k) <- leg_logprob f ~ad ~bd ~biasd e.rejected e.stop;
    let x = beta *. ((w.(k) -. l.(k)) -. (e.refs.Dpo.ref_chosen -. e.refs.Dpo.ref_rejected)) in
    nx.(k) <- (-1.0) *. x;
    total := !total +. (Float.max nx.(k) 0.0 +. log1p (exp (-.abs_float nx.(k))))
  done;
  let c = 1.0 /. float_of_int size in
  (* backward, seeded with 1 at the mean loss *)
  Tensor.fill ga 0.0;
  Tensor.fill gb 0.0;
  let agrad = ga.Tensor.data and bgrad = gb.Tensor.data and bhg = Array.make f.rank 0.0 in
  let loss_g = 0.0 +. (0.0 +. (c *. 1.0)) in
  for k = size - 1 downto 0 do
    let e = examples.(first + k) in
    let x_g = 0.0 +. ((-1.0) *. (0.0 +. (loss_g *. (1.0 /. (1.0 +. exp (-.nx.(k))))))) in
    let diff_g = 0.0 +. (0.0 +. (beta *. x_g)) in
    leg_backward f ~ad ~agrad ~bgrad ~bhg e.chosen e.rejected (0.0 +. diff_g);
    leg_backward f ~ad ~agrad ~bgrad ~bhg e.rejected e.stop (0.0 -. diff_g)
  done;
  let grads = List.combine (Model.params_lora policy) [ ga; gb ] in
  let grad_norm = if want_norms then l2_norm [ ga; gb ] else 0.0 in
  let before =
    if want_norms then
      List.map (fun ((p : Optim.param), _) -> Tensor.copy p.Optim.tensor) grads
    else []
  in
  Optim.Adam.step opt grads;
  let update_norm =
    if want_norms then
      l2_norm
        (List.map2
           (fun old ((p : Optim.param), _) ->
             Tensor.map2 (fun a b -> a -. b) p.Optim.tensor old)
           before grads)
    else 0.0
  in
  let pairs = List.init size (fun k -> (examples.(first + k).refs, w.(k), l.(k))) in
  let acc = Dpoaf_util.Stats.fraction (fun (_, w, l) -> w > l) pairs in
  let margin =
    Dpoaf_util.Stats.mean
      (List.map
         (fun ((refs : Dpo.ref_logprobs), w, l) ->
           w -. refs.Dpo.ref_chosen -. (l -. refs.Dpo.ref_rejected))
         pairs)
  in
  let logp_gap = Dpoaf_util.Stats.mean (List.map (fun (_, w, l) -> w -. l) pairs) in
  let seconds = Unix.gettimeofday () -. t0 in
  Metrics.observe step_latency seconds;
  Metrics.incr steps_run;
  ((c *. !total, acc, margin), (logp_gap, grad_norm, update_norm, seconds))

let train ?sink ~reference ~pairs config ~seed =
  let policy = Model.clone reference in
  let f, examples = features reference pairs in
  let examples = Array.of_list examples in
  let opt = Optim.Adam.create ~lr:config.lr () in
  let rng = Rng.create seed in
  let ga = Tensor.zeros (Tensor.dims policy.Model.out.Lora.a)
  and gb = Tensor.zeros (Tensor.dims policy.Model.out.Lora.b) in
  let checkpoints = ref [ (0, reference) ] in
  let stats = ref [] in
  let want_norms = sink <> None in
  let global_step = ref 0 in
  for epoch = 1 to config.epochs do
    if config.shuffle_each_epoch then Rng.shuffle rng examples;
    let n = Array.length examples in
    let epoch_totals = ref [] in
    let i = ref 0 in
    while !i < n do
      let size = min config.batch (n - !i) in
      let ((loss, acc, margin) as triple), (logp_gap, grad_norm, update_norm, dt)
          =
        batch_step ~want_norms policy opt ~beta:config.beta ~ga ~gb f
          examples ~first:!i ~size
      in
      incr global_step;
      (match sink with
      | None -> ()
      | Some emit ->
          emit
            {
              seed;
              epoch;
              step = !global_step;
              loss;
              accuracy = acc;
              margin;
              logp_gap;
              grad_norm;
              update_norm;
              seconds = dt;
            });
      epoch_totals := (triple, size) :: !epoch_totals;
      i := !i + size
    done;
    let weight f =
      let total = List.fold_left (fun acc (_, s) -> acc + s) 0 !epoch_totals in
      List.fold_left (fun acc (t, s) -> acc +. (f t *. float_of_int s)) 0.0 !epoch_totals
      /. float_of_int (max 1 total)
    in
    stats :=
      {
        epoch;
        loss = weight (fun (l, _, _) -> l);
        accuracy = weight (fun (_, a, _) -> a);
        margin = weight (fun (_, _, m) -> m);
      }
      :: !stats;
    if config.checkpoint_every > 0 && epoch mod config.checkpoint_every = 0 then
      checkpoints := (epoch, Model.clone policy) :: !checkpoints
  done;
  {
    seed;
    stats = List.rev !stats;
    checkpoints = List.rev !checkpoints;
    final = policy;
  }

(* Each seed's run touches only its own clone of the reference (the shared
   reference weights are read-only after pre-training) and draws from its
   own RNG stream [Rng.create seed], so seeds train in parallel without
   any cross-seed effect on the results. *)
let train_seeds ?jobs ?sink ~reference ~pairs config ~seeds =
  Dpoaf_exec.Pool.parallel_map ?jobs
    (fun seed ->
      Trace.with_span ~cat:"dpo" ~attrs:[ ("seed", string_of_int seed) ]
        "dpo.train_seed" (fun () ->
          Metrics.time "dpo.train_seed" (fun () ->
              train ?sink ~reference ~pairs config ~seed)))
    seeds
