(* Pre-training on an autodiff tape: every batch scores its examples
   through {!Tape_model}'s primitive-op composition on a fresh tape,
   back-propagates the mean negative log-likelihood and takes an Adam
   step.  [Pretrain.train] writes the gradient out by hand and must train
   exactly like this, bit for bit. *)

module Model = Dpoaf_lm.Model
module Pretrain = Dpoaf_lm.Pretrain
module Optim = Dpoaf_tensor.Optim
module Tensor = Dpoaf_tensor.Tensor

let batch_step model opt (examples : Pretrain.example list) =
  let tape = Autodiff.Tape.create () in
  let bound = Tape_model.bind model tape in
  let terms =
    List.map
      (fun (ex : Pretrain.example) ->
        Tape_model.response_logprob_node model bound
          ~prompt:ex.Pretrain.prompt ~grammar:ex.Pretrain.grammar
          ~min_clauses:ex.Pretrain.min_clauses ~max_clauses:ex.Pretrain.max_clauses
          ~tokens:ex.Pretrain.tokens)
      examples
  in
  let total = Autodiff.add_list tape terms in
  let loss =
    Autodiff.scale tape (-1.0 /. float_of_int (max 1 (List.length examples))) total
  in
  Autodiff.backward tape loss;
  Optim.Adam.step opt (List.combine (Model.params_pretrain model) (Tape_model.pretrain_grads bound));
  Tensor.get (Autodiff.value loss) 0

(* [Pretrain.train]'s loop: shuffled minibatches, mean loss per epoch. *)
let train model examples ~epochs ~batch ~lr rng =
  let opt = Optim.Adam.create ~lr () in
  let arr = Array.of_list examples in
  List.init epochs (fun _ ->
      Dpoaf_util.Rng.shuffle rng arr;
      let n = Array.length arr in
      let losses = ref [] in
      let i = ref 0 in
      while !i < n do
        let size = min batch (n - !i) in
        losses := batch_step model opt (Array.to_list (Array.sub arr !i size)) :: !losses;
        i := !i + size
      done;
      Dpoaf_util.Stats.mean !losses)
