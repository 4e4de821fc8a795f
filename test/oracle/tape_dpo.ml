(* DPO on an autodiff tape: every step scores both legs of each pair
   through {!Tape_model} on a fresh tape and back-propagates the loss.
   [Trainer.train] steps on frozen features without a tape and must train
   exactly like this, bit for bit.  [evaluate] scores pairs on the tape
   too. *)

module Model = Dpoaf_lm.Model
module Pref_data = Dpoaf_dpo.Pref_data
module Trainer = Dpoaf_dpo.Trainer
module Optim = Dpoaf_tensor.Optim
module Tensor = Dpoaf_tensor.Tensor
module Rng = Dpoaf_util.Rng
module Stats = Dpoaf_util.Stats

type ref_logprobs = { ref_chosen : float; ref_rejected : float }

let logprob model (pair : Pref_data.pair) tokens =
  Tape_model.response_logprob model ~prompt:pair.Pref_data.prompt
    ~grammar:pair.Pref_data.grammar ~min_clauses:pair.Pref_data.min_clauses
    ~max_clauses:pair.Pref_data.max_clauses ~tokens

let reference_logprobs reference pair =
  {
    ref_chosen = logprob reference pair pair.Pref_data.chosen;
    ref_rejected = logprob reference pair pair.Pref_data.rejected;
  }

(* The paper's metrics (§5.2) over a pair set, without touching
   parameters: mean loss, accuracy and marginal preference. *)
type stats = { loss : float; accuracy : float; margin : float }

let evaluate ~policy ~reference ~beta pairs =
  match pairs with
  | [] -> { loss = 0.0; accuracy = 0.0; margin = 0.0 }
  | _ ->
      let n = float_of_int (List.length pairs) in
      let l, a, m =
        List.fold_left
          (fun (l, a, m) pair ->
            let refs = reference_logprobs reference pair in
            let lp_w = logprob policy pair pair.Pref_data.chosen in
            let lp_l = logprob policy pair pair.Pref_data.rejected in
            let margin = lp_w -. refs.ref_chosen -. (lp_l -. refs.ref_rejected) in
            let x = beta *. margin in
            let loss = Float.max (-.x) 0.0 +. log1p (exp (-.abs_float x)) in
            (l +. loss, (if lp_w > lp_l then a +. 1.0 else a), m +. margin))
          (0.0, 0.0, 0.0) pairs
      in
      { loss = l /. n; accuracy = a /. n; margin = m /. n }

(* x = β((lp_w − lp_l) − (ref_w − ref_l)); loss = softplus(−x) *)
let pair_loss_node ~policy ~bound ~beta refs (pair : Pref_data.pair) =
  let tape = bound.Tape_model.tape in
  let lp tokens =
    Tape_model.response_logprob_node policy bound ~prompt:pair.Pref_data.prompt
      ~grammar:pair.Pref_data.grammar ~min_clauses:pair.Pref_data.min_clauses
      ~max_clauses:pair.Pref_data.max_clauses ~tokens
  in
  (* the rejected leg goes on the tape first, so the reverse pass backs
     the chosen leg up first *)
  let lp_l = lp pair.Pref_data.rejected in
  let lp_w = lp pair.Pref_data.chosen in
  let diff = Autodiff.sub tape lp_w lp_l in
  let shift = Autodiff.const tape (Tensor.scalar (refs.ref_chosen -. refs.ref_rejected)) in
  let x = Autodiff.scale tape beta (Autodiff.sub tape diff shift) in
  let loss = Autodiff.softplus tape (Autodiff.neg tape x) in
  (loss, Tensor.get (Autodiff.value lp_w) 0, Tensor.get (Autodiff.value lp_l) 0)

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

let batch_step policy opt ~beta refs_pairs =
  let tape = Autodiff.Tape.create () in
  let bound = Tape_model.bind policy tape in
  let n = float_of_int (List.length refs_pairs) in
  let results =
    List.map
      (fun (refs, pair) -> pair_loss_node ~policy ~bound ~beta refs pair)
      refs_pairs
  in
  let total = Autodiff.add_list tape (List.map (fun (l, _, _) -> l) results) in
  let mean_loss = Autodiff.scale tape (1.0 /. n) total in
  Autodiff.backward tape mean_loss;
  let grads = Tape_model.lora_grads policy bound in
  let grad_norm = l2_norm (List.map snd grads) in
  let before = List.map (fun ((p : Optim.param), _) -> Tensor.copy p.Optim.tensor) grads in
  Optim.Adam.step opt grads;
  let update_norm =
    l2_norm
      (List.map2
         (fun old ((p : Optim.param), _) -> Tensor.map2 (fun a b -> a -. b) p.Optim.tensor old)
         before grads)
  in
  let acc = Stats.fraction (fun (_, w, l) -> w > l) results in
  let margin =
    Stats.mean
      (List.map2
         (fun (refs, _) (_, w, l) -> w -. refs.ref_chosen -. (l -. refs.ref_rejected))
         refs_pairs results)
  in
  let logp_gap = Stats.mean (List.map (fun (_, w, l) -> w -. l) results) in
  ((Tensor.get (Autodiff.value mean_loss) 0, acc, margin), (logp_gap, grad_norm, update_norm))

(* Step records carry a zero wall time. *)
let train ?sink ~reference ~pairs (config : Trainer.config) ~seed =
  let policy = Model.clone reference in
  let arr =
    Array.of_list (List.map (fun pair -> (reference_logprobs reference pair, pair)) pairs)
  in
  let opt = Optim.Adam.create ~lr:config.Trainer.lr () in
  let rng = Rng.create seed in
  let checkpoints = ref [ (0, reference) ] in
  let stats = ref [] in
  let global_step = ref 0 in
  for epoch = 1 to config.Trainer.epochs do
    if config.Trainer.shuffle_each_epoch then Rng.shuffle rng arr;
    let n = Array.length arr in
    let totals = ref [] in
    let i = ref 0 in
    while !i < n do
      let size = min config.Trainer.batch (n - !i) in
      let ((loss, accuracy, margin) as triple), (logp_gap, grad_norm, update_norm) =
        batch_step policy opt ~beta:config.Trainer.beta
          (Array.to_list (Array.sub arr !i size))
      in
      incr global_step;
      Option.iter
        (fun emit ->
          emit
            { Trainer.seed; epoch; step = !global_step; loss; accuracy; margin; logp_gap;
              grad_norm; update_norm; seconds = 0.0 })
        sink;
      totals := (triple, size) :: !totals;
      i := !i + size
    done;
    let weight f =
      let total = List.fold_left (fun acc (_, s) -> acc + s) 0 !totals in
      List.fold_left (fun acc (t, s) -> acc +. (f t *. float_of_int s)) 0.0 !totals
      /. float_of_int (max 1 total)
    in
    stats :=
      { Trainer.epoch; loss = weight (fun (l, _, _) -> l);
        accuracy = weight (fun (_, a, _) -> a); margin = weight (fun (_, _, m) -> m) }
      :: !stats;
    if config.Trainer.checkpoint_every > 0 && epoch mod config.Trainer.checkpoint_every = 0
    then checkpoints := (epoch, Model.clone policy) :: !checkpoints
  done;
  { Trainer.seed; stats = List.rev !stats; checkpoints = List.rev !checkpoints; final = policy }
