module Tensor = Dpoaf_tensor.Tensor
module Autodiff = Dpoaf_tensor.Autodiff
module Optim = Dpoaf_tensor.Optim

type example = {
  prompt : int list;
  tokens : int list;
  grammar : Grammar.t;
  min_clauses : int;
  max_clauses : int;
}

let logprob_node model bound ex =
  Model.response_logprob_node model bound ~prompt:ex.prompt ~grammar:ex.grammar
    ~min_clauses:ex.min_clauses ~max_clauses:ex.max_clauses ~tokens:ex.tokens

let nll model ex =
  -.Model.response_logprob model ~prompt:ex.prompt ~grammar:ex.grammar
      ~min_clauses:ex.min_clauses ~max_clauses:ex.max_clauses ~tokens:ex.tokens

(* Arena accounting for pre-training: nodes recorded, summed over batch
   steps, and adjoint buffers served from the pool, added once per run. *)
let tape_nodes = Dpoaf_exec.Metrics.counter "tape.nodes"
let tape_buffer_reuse = Dpoaf_exec.Metrics.counter "tape.buffer_reuse"

let batch_step model opt tape examples =
  Autodiff.Tape.reset tape;
  let bound = Model.bind model tape in
  let terms = List.map (fun ex -> logprob_node model bound ex) examples in
  let total = Autodiff.add_list tape terms in
  let loss =
    Autodiff.scale tape (-1.0 /. float_of_int (max 1 (List.length examples))) total
  in
  Autodiff.backward tape loss;
  Optim.Adam.step opt (Model.pretrain_grads model bound);
  Dpoaf_exec.Metrics.add tape_nodes (Autodiff.Tape.length tape);
  Tensor.get (Autodiff.value loss) 0

let train model examples ~epochs ~batch ~lr rng =
  let opt = Optim.Adam.create ~lr () in
  let arr = Array.of_list examples in
  (* one pooled arena for the whole run *)
  let tape = Autodiff.Tape.create () in
  let losses =
    List.init epochs (fun _ ->
        Dpoaf_util.Rng.shuffle rng arr;
        let n = Array.length arr in
        let losses = ref [] in
        let i = ref 0 in
        while !i < n do
          let size = min batch (n - !i) in
          let chunk = Array.to_list (Array.sub arr !i size) in
          losses := batch_step model opt tape chunk :: !losses;
          i := !i + size
        done;
        Dpoaf_util.Stats.mean !losses)
  in
  Dpoaf_exec.Metrics.add tape_buffer_reuse
    (Autodiff.Tape.stats tape).Autodiff.Tape.buffers_reused;
  losses
