module Tensor = Dpoaf_tensor.Tensor
module Lora = Dpoaf_tensor.Lora
module Optim = Dpoaf_tensor.Optim

type example = {
  prompt : int list;
  tokens : int list;
  grammar : Grammar.t;
  min_clauses : int;
  max_clauses : int;
}

(* The gradient is written out by hand.  Every float operation is the
   one the autodiff tape of the reference implementation (test/oracle)
   performs, and every accumulator receives its terms in the tape's
   reverse creation order: examples last to first, and within an example
   the positions last to first, a GRU step's backward before the head of
   the position it feeds.  So the trained tensors are bit-identical to
   the tape's.  The tape's [0.0 +.] pass-through adds and [<> 0.0] skips
   can only change the sign of a zero adjoint, which no trained tensor
   can see (Adam's moments start at +0.0), so they are left out where
   they would only cost time. *)

(* The gradient buffers, one per pre-trained tensor. *)
type grads = {
  emb : float array;
  base : float array;
  bias : float array;
  gru : float array array;  (* wz uz bz wr ur br wh uh bh; [||] for Bow *)
}

(* One scored position: what its backward reads. *)
type position = {
  h : float array;  (* the conditioning vector *)
  rows : int array;  (* the grammar's allowed tokens *)
  target : int;  (* index in [rows] of the scored token *)
  ls : float array;  (* log-softmax over [rows] *)
}

(* [logits = (W h + A (B h)) + bias] on the allowed rows, then the
   log-softmax; the operations of the tape's head composition. *)
let head_forward (m : Model.t) h allowed tok =
  let d = m.Model.config.Model.dim and rank = m.Model.config.Model.lora_rank in
  let based = m.Model.out.Lora.base.Tensor.data
  and ad = m.Model.out.Lora.a.Tensor.data
  and bd = m.Model.out.Lora.b.Tensor.data
  and biasd = m.Model.bias.Tensor.data in
  let rows = Array.of_list allowed in
  let target =
    match List.find_index (fun r -> r = tok) allowed with
    | Some i -> i
    | None -> invalid_arg "Pretrain: target not allowed"
  in
  let u =
    Array.init rank (fun i ->
        let acc = ref 0.0 in
        for j = 0 to d - 1 do
          acc := !acc +. (bd.((i * d) + j) *. h.(j))
        done;
        !acc)
  in
  let ls =
    Array.map
      (fun r ->
        let wx = ref 0.0 in
        for j = 0 to d - 1 do
          wx := !wx +. (based.((r * d) + j) *. h.(j))
        done;
        let abx = ref 0.0 in
        for i = 0 to rank - 1 do
          abx := !abx +. (ad.((r * rank) + i) *. u.(i))
        done;
        (!wx +. !abx) +. biasd.(r))
      rows
  in
  let mx = Array.fold_left Float.max neg_infinity ls in
  let z = ref 0.0 in
  Array.iter (fun l -> z := !z +. exp (l -. mx)) ls;
  let log_z = mx +. log !z in
  Array.iteri (fun k l -> ls.(k) <- l -. log_z) ls;
  { h; rows; target; ls }

(* Adds the position's gradients, for adjoint [g] of its log-probability,
   into the bias and output base and into [gh], the adjoint of [h]: the
   adapter path first, then the base path. *)
let head_backward (m : Model.t) grads g p ~gh =
  let d = m.Model.config.Model.dim and rank = m.Model.config.Model.lora_rank in
  let based = m.Model.out.Lora.base.Tensor.data
  and ad = m.Model.out.Lora.a.Tensor.data
  and bd = m.Model.out.Lora.b.Tensor.data in
  let lg = Array.mapi (fun k l -> (if k = p.target then g else 0.0) -. (g *. exp l)) p.ls in
  Array.iteri (fun k r -> grads.bias.(r) <- grads.bias.(r) +. lg.(k)) p.rows;
  let bhg = Array.make rank 0.0 in
  Array.iteri
    (fun k r ->
      let gk = lg.(k) in
      if gk <> 0.0 then
        for i = 0 to rank - 1 do
          bhg.(i) <- bhg.(i) +. (gk *. ad.((r * rank) + i))
        done)
    p.rows;
  for i = 0 to rank - 1 do
    let gi = bhg.(i) in
    if gi <> 0.0 then
      for j = 0 to d - 1 do
        gh.(j) <- gh.(j) +. (gi *. bd.((i * d) + j))
      done
  done;
  Array.iteri
    (fun k r ->
      let gk = lg.(k) in
      if gk <> 0.0 then begin
        let off = r * d in
        for j = 0 to d - 1 do
          grads.base.(off + j) <- grads.base.(off + j) +. (gk *. p.h.(j));
          gh.(j) <- gh.(j) +. (gk *. based.(off + j))
        done
      end)
    p.rows

(* The scored positions of an example, in order, each with the state it
   was scored from: [hidden] reads a state's conditioning vector and
   [extend] pushes a token (not after the last one). *)
let walk (m : Model.t) ex ~init ~hidden ~extend =
  let grammar = ex.grammar in
  let rec go gstate state acc = function
    | [] ->
        if Grammar.is_final grammar gstate then Array.of_list (List.rev acc)
        else invalid_arg "Pretrain: incomplete response"
    | tok :: rest -> (
        let allowed =
          Grammar.allowed grammar ~min_clauses:ex.min_clauses ~max_clauses:ex.max_clauses
            gstate
        in
        match Grammar.advance grammar gstate tok with
        | None -> invalid_arg "Pretrain: grammar rejects token"
        | Some gstate' ->
            let acc = (state, head_forward m (hidden state) allowed tok) :: acc in
            go gstate' (if rest = [] then state else extend state tok) acc rest)
  in
  go (Grammar.start grammar) init [] ex.tokens

(* The tape sums an example's positions last to first. *)
let example_logprob positions =
  let acc = ref 0.0 in
  for t = Array.length positions - 1 downto 0 do
    let _, p = positions.(t) in
    acc := !acc +. p.ls.(p.target)
  done;
  !acc

(* Bow: head, then [tanh], then the window mean into the embedding. *)
let bow_example (m : Model.t) grads g ex =
  let d = m.Model.config.Model.dim in
  let positions =
    walk m ex ~init:(Model.Fwd.init m ~prompt:ex.prompt) ~hidden:(Model.Fwd.hidden m)
      ~extend:(Model.Fwd.extend m)
  in
  for t = Array.length positions - 1 downto 0 do
    let state, p = positions.(t) in
      let gh = Array.make d 0.0 in
      head_backward m grads g p ~gh;
      let mg = Array.mapi (fun j y -> gh.(j) *. (1.0 -. (y *. y))) p.h in
      let window = match state with Model.Fwd.Bow_w w -> w | Model.Fwd.Gru_h _ -> [] in
      let k = float_of_int (max 1 (List.length window)) in
      List.iter
        (fun r ->
          let off = r * d in
          for j = 0 to d - 1 do
            grads.emb.(off + j) <- grads.emb.(off + j) +. (mg.(j) /. k)
          done)
        window
  done;
  example_logprob positions

(* [mg += g ⊗ v] and [vg += mᵀ g] for [m v] with [m] [d×d], as the tape's
   matvec pull does. *)
let matvec_backward ~d md mg v vg g =
  for i = 0 to d - 1 do
    let gi = g.(i) in
    if gi <> 0.0 then begin
      let off = i * d in
      for j = 0 to d - 1 do
        mg.(off + j) <- mg.(off + j) +. (gi *. v.(j));
        vg.(j) <- vg.(j) +. (gi *. md.(off + j))
      done
    end
  done

let add_into acc g = Array.iteri (fun i x -> acc.(i) <- acc.(i) +. x) g

(* Back-propagates adjoint [g] of one GRU step's output (from [h] on
   [tok]) into the GRU weights [w] and [tok]'s embedding row; returns the
   adjoint of [h].  The tape reaches the step's nodes in this order: the
   output mix, the candidate, the reset gate, the update gate, the input
   row. *)
let gru_step_backward (m : Model.t) grads w (h, tok, (s : Model.Fwd.gates)) g =
  let d = m.Model.config.Model.dim in
  let wd i = w.(i).Tensor.data and gw = grads.gru in
  let x = Array.sub m.Model.embedding.Tensor.data (tok * d) d in
  let gh = Array.make d 0.0 and zg = Array.make d 0.0 and cg = Array.make d 0.0 in
  for i = 0 to d - 1 do
    let gi = g.(i) and z = s.Model.Fwd.z.(i) and y = s.Model.Fwd.candidate.(i) in
    gh.(i) <- gi *. (1.0 -. z);
    zg.(i) <- (gi *. y) -. (gi *. h.(i));
    cg.(i) <- (gi *. z) *. (1.0 -. (y *. y))
  done;
  let r = s.Model.Fwd.r in
  add_into gw.(8) cg;
  let xg = Array.make d 0.0 in
  matvec_backward ~d (wd 6) gw.(6) x xg cg;
  let rh = Array.init d (fun j -> r.(j) *. h.(j)) in
  let rhg = Array.make d 0.0 in
  matvec_backward ~d (wd 7) gw.(7) rh rhg cg;
  let rg = Array.init d (fun i -> (rhg.(i) *. h.(i)) *. (r.(i) *. (1.0 -. r.(i)))) in
  for i = 0 to d - 1 do
    gh.(i) <- gh.(i) +. (rhg.(i) *. r.(i))
  done;
  add_into gw.(5) rg;
  matvec_backward ~d (wd 3) gw.(3) x xg rg;
  matvec_backward ~d (wd 4) gw.(4) h gh rg;
  let z = s.Model.Fwd.z in
  let zg = Array.mapi (fun i gz -> gz *. (z.(i) *. (1.0 -. z.(i)))) zg in
  add_into gw.(2) zg;
  matvec_backward ~d (wd 0) gw.(0) x xg zg;
  matvec_backward ~d (wd 1) gw.(1) h gh zg;
  let off = tok * d in
  for j = 0 to d - 1 do
    grads.emb.(off + j) <- grads.emb.(off + j) +. xg.(j)
  done;
  gh

(* GRU: back-propagation through time.  The steps folding [<bos>] and the
   prompt come first, then one step between consecutive scored tokens. *)
let gru_example (m : Model.t) grads g ex =
  let d = m.Model.config.Model.dim in
  let w =
    match m.Model.gru with
    | Some w -> Model.[| w.wz; w.uz; w.bz; w.wr; w.ur; w.br; w.wh; w.uh; w.bh |]
    | None -> invalid_arg "Pretrain: not a GRU model"
  in
  let steps = ref [] in
  let step h tok =
    let s = Model.Fwd.gru_gates m h tok in
    steps := (h, tok, s) :: !steps;
    s.Model.Fwd.next
  in
  let h0 = List.fold_left step (Array.make d 0.0) (Vocab.bos m.Model.vocab :: ex.prompt) in
  let positions = walk m ex ~init:h0 ~hidden:Fun.id ~extend:step in
  (* [!steps] is newest first; the [back]-th newest produces the state of
     position [n - 1 - back], if that is a position at all. *)
  let n = Array.length positions in
  let gh = ref (Array.make d 0.0) in
  List.iteri
    (fun back s ->
      let t = n - 1 - back in
      if t >= 0 then head_backward m grads g (snd positions.(t)) ~gh:!gh;
      gh := gru_step_backward m grads w s !gh)
    !steps;
  example_logprob positions

(* One Adam step on the mean negative log-likelihood of [examples];
   returns that loss. *)
let batch_step model opt params grads examples =
  List.iter (fun a -> Array.fill a 0 (Array.length a) 0.0)
    (grads.emb :: grads.base :: grads.bias :: Array.to_list grads.gru);
  let c = -1.0 /. float_of_int (max 1 (List.length examples)) in
  let example = match model.Model.gru with None -> bow_example | Some _ -> gru_example in
  (* backward from the last example to the first; the loss sums them
     first to last *)
  let logprobs = List.rev_map (example model grads c) (List.rev examples) in
  let total = List.fold_left ( +. ) 0.0 logprobs in
  Optim.Adam.step opt params;
  c *. total

let train model examples ~epochs ~batch ~lr rng =
  let opt = Optim.Adam.create ~lr () in
  let params = Model.params_pretrain model in
  let tensors = List.map (fun (p : Optim.param) -> Tensor.zeros (Tensor.dims p.Optim.tensor)) params in
  let grads =
    match List.map (fun t -> t.Tensor.data) tensors with
    | emb :: base :: bias :: gru -> { emb; base; bias; gru = Array.of_list gru }
    | _ -> assert false
  in
  let params = List.combine params tensors in
  let arr = Array.of_list examples in
  List.init epochs (fun _ ->
      Dpoaf_util.Rng.shuffle rng arr;
      let n = Array.length arr in
      let losses = ref [] in
      let i = ref 0 in
      while !i < n do
        let size = min batch (n - !i) in
        let chunk = Array.to_list (Array.sub arr !i size) in
        losses := batch_step model opt params grads chunk :: !losses;
        i := !i + size
      done;
      Dpoaf_util.Stats.mean !losses)
