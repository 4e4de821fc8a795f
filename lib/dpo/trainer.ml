module Model = Dpoaf_lm.Model
module Lora = Dpoaf_tensor.Lora
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

(* ---------------- DPO on frozen features ---------------- *)

(* A step is bit-identical to scoring both legs of each pair on an
   autodiff tape and back-propagating the loss (test/oracle keeps that
   tape step).  {!Features} accumulates each leg's gradients as the tape's
   reverse pass does; the step backs the legs up in the tape's order:
   pairs last to first, the chosen leg before the rejected one. *)

type ref_logprobs = { ref_chosen : float; ref_rejected : float }

(* A pair's chosen leg is feature leg [leg], its rejected leg [leg + 1]. *)
type example = { leg : int; refs : ref_logprobs }

(* The features of every pair's legs under [model]'s frozen tensors, and
   each pair's reference log-probabilities under its adapter. *)
let features (model : Model.t) pairs =
  let leg (pair : Pref_data.pair) tokens =
    { Features.prompt = pair.Pref_data.prompt; grammar = pair.Pref_data.grammar;
      min_clauses = pair.Pref_data.min_clauses; max_clauses = pair.Pref_data.max_clauses;
      tokens }
  in
  let f =
    Features.create model
      (List.concat_map
         (fun (pair : Pref_data.pair) ->
           [ leg pair pair.Pref_data.chosen; leg pair pair.Pref_data.rejected ])
         pairs)
  in
  ( f,
    List.mapi
      (fun i _ ->
        let leg = 2 * i in
        { leg;
          refs =
            { ref_chosen = Features.leg_logprob f model leg;
              ref_rejected = Features.leg_logprob f model (leg + 1) } })
      pairs )

(* One optimizer step over [examples.(first .. first + size - 1)], with
   the adapter gradients written into [ga] and [gb].  The gradient and
   LoRA-update norms require an extra pass over the adapter parameters,
   so they are computed only when a telemetry sink is attached; the
   returned [(loss, accuracy, margin)] triple always feeds the epoch
   statistics. *)
let batch_step ~want_norms policy opt ~beta ~ga ~gb f examples ~first ~size =
  let t0 = Unix.gettimeofday () in
  (* forward: x = β((lp_w − lp_l) − (ref_w − ref_l)); loss = softplus(−x) *)
  let w = Array.make size 0.0 and l = Array.make size 0.0 and nx = Array.make size 0.0 in
  let total = ref 0.0 in
  for k = 0 to size - 1 do
    let e = examples.(first + k) in
    w.(k) <- Features.leg_logprob f policy e.leg;
    l.(k) <- Features.leg_logprob f policy (e.leg + 1);
    let x = beta *. ((w.(k) -. l.(k)) -. (e.refs.ref_chosen -. e.refs.ref_rejected)) in
    nx.(k) <- (-1.0) *. x;
    total := !total +. (Float.max nx.(k) 0.0 +. log1p (exp (-.abs_float nx.(k))))
  done;
  let c = 1.0 /. float_of_int size in
  (* backward, seeded with 1 at the mean loss *)
  Tensor.fill ga 0.0;
  Tensor.fill gb 0.0;
  let agrad = ga.Tensor.data and bgrad = gb.Tensor.data in
  let loss_g = 0.0 +. (0.0 +. (c *. 1.0)) in
  for k = size - 1 downto 0 do
    let e = examples.(first + k) in
    let x_g = 0.0 +. ((-1.0) *. (0.0 +. (loss_g *. (1.0 /. (1.0 +. exp (-.nx.(k))))))) in
    let diff_g = 0.0 +. (0.0 +. (beta *. x_g)) in
    Features.leg_backward f policy ~agrad ~bgrad e.leg (0.0 +. diff_g);
    Features.leg_backward f policy ~agrad ~bgrad (e.leg + 1) (0.0 -. diff_g)
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
         (fun (refs, w, l) -> w -. refs.ref_chosen -. (l -. refs.ref_rejected))
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
