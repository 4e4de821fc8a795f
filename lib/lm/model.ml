module Tensor = Dpoaf_tensor.Tensor
module Lora = Dpoaf_tensor.Lora
module Optim = Dpoaf_tensor.Optim

type arch = Bow | Gru

type config = { dim : int; context : int; lora_rank : int; arch : arch }

let default_config = { dim = 24; context = 12; lora_rank = 4; arch = Bow }

(* Gated-recurrent-unit conditioner: h' = (1-z)∘h + z∘tanh(Wh x + Uh (r∘h) + bh). *)
type gru = {
  wz : Tensor.t; uz : Tensor.t; bz : Tensor.t;
  wr : Tensor.t; ur : Tensor.t; br : Tensor.t;
  wh : Tensor.t; uh : Tensor.t; bh : Tensor.t;
}

let gru_tensors g = [ g.wz; g.uz; g.bz; g.wr; g.ur; g.br; g.wh; g.uh; g.bh ]

let gru_names = [ "gru.wz"; "gru.uz"; "gru.bz"; "gru.wr"; "gru.ur"; "gru.br";
                  "gru.wh"; "gru.uh"; "gru.bh" ]

type t = {
  config : config;
  vocab : Vocab.t;
  embedding : Tensor.t;
  out : Lora.t;
  bias : Tensor.t;
  gru : gru option;  (* Some iff config.arch = Gru *)
}

let create rng config vocab =
  let v = Vocab.size vocab and d = config.dim in
  let scale = 1.0 /. sqrt (float_of_int d) in
  let mat () = Tensor.gaussian rng [| d; d |] ~stddev:scale in
  {
    config;
    vocab;
    embedding = Tensor.gaussian rng [| v; d |] ~stddev:scale;
    out = Lora.create rng ~base:(Tensor.gaussian rng [| v; d |] ~stddev:scale)
        ~rank:config.lora_rank;
    bias = Tensor.zeros [| v |];
    gru =
      (match config.arch with
      | Bow -> None
      | Gru ->
          Some
            {
              wz = mat (); uz = mat (); bz = Tensor.zeros [| d |];
              wr = mat (); ur = mat (); br = Tensor.zeros [| d |];
              wh = mat (); uh = mat (); bh = Tensor.zeros [| d |];
            });
  }

let clone t = { t with out = Lora.clone t.out }

let params_pretrain t =
  [
    Optim.param "embedding" t.embedding;
    Optim.param "out.base" t.out.Lora.base;
    Optim.param "bias" t.bias;
  ]
  @
  match t.gru with
  | None -> []
  | Some g -> List.map2 Optim.param gru_names (gru_tensors g)

let params_lora t = Lora.params ~prefix:"out" t.out

let context_of t ~prompt ~prefix =
  let all = (Vocab.bos t.vocab :: prompt) @ prefix in
  match t.config.arch with
  | Gru -> all (* the recurrence carries unbounded history *)
  | Bow ->
      let n = List.length all in
      let k = t.config.context in
      if n <= k then all
      else List.filteri (fun i _ -> i >= n - k) all

(* The rolling Bow context: pushing [tok] onto a window kept at
   [context_of]'s value gives exactly [context_of] for the longer prefix,
   without rebuilding the list — the O(T²) → O(T) step. *)
let bow_push t window tok =
  let w = window @ [ tok ] in
  if List.length w > t.config.context then List.tl w else w

(* The forward pass, shared by the sampler, the serving layer and
   training.  Mirrors the tape oracle's hidden path operation for
   operation, so sampled distributions agree with scored log-probabilities;
   the differential tests in test/test_lm.ml pin the two together.  States
   are immutable, so they can be cached and shared across domains. *)
module Fwd = struct
  type state = Bow_w of int list | Gru_h of float array

  let bow_hidden t context =
    let d = t.config.dim in
    let emb = t.embedding.Tensor.data in
    let h = Array.make d 0.0 in
    let k = float_of_int (max 1 (List.length context)) in
    List.iter
      (fun tok ->
        let off = tok * d in
        for j = 0 to d - 1 do
          h.(j) <- h.(j) +. (emb.(off + j) /. k)
        done)
      context;
    Array.map tanh h

  let sigmoid x = 1.0 /. (1.0 +. exp (-.x))

  type gates = { z : float array; r : float array; candidate : float array; next : float array }

  let gru_gates_of t g h tok =
    let d = t.config.dim in
    let matvec (m : Tensor.t) v =
      let md = m.Tensor.data in
      Array.init d (fun i ->
          let acc = ref 0.0 in
          let off = i * d in
          for j = 0 to d - 1 do
            acc := !acc +. (md.(off + j) *. v.(j))
          done;
          !acc)
    in
    let emb = t.embedding.Tensor.data in
    let x = Array.init d (fun j -> emb.((tok * d) + j)) in
    let gate w u bv =
      let wx = matvec w x and uh = matvec u h in
      let bvd = bv.Tensor.data in
      Array.init d (fun j -> sigmoid (wx.(j) +. uh.(j) +. bvd.(j)))
    in
    let z = gate g.wz g.uz g.bz in
    let r = gate g.wr g.ur g.br in
    let rh = Array.init d (fun j -> r.(j) *. h.(j)) in
    let wx = matvec g.wh x and uh = matvec g.uh rh in
    let bhd = g.bh.Tensor.data in
    let candidate = Array.init d (fun j -> tanh (wx.(j) +. uh.(j) +. bhd.(j))) in
    let next =
      Array.init d (fun j -> ((1.0 -. z.(j)) *. h.(j)) +. (z.(j) *. candidate.(j)))
    in
    { z; r; candidate; next }

  let gru_step t g h tok = (gru_gates_of t g h tok).next

  let gru_gates t h tok =
    match t.gru with
    | Some g -> gru_gates_of t g h tok
    | None -> invalid_arg "Model.Fwd.gru_gates: not a GRU model"

  let gru_fold t g context =
    List.fold_left (gru_step t g) (Array.make t.config.dim 0.0) context

  let hidden_of_context t context =
    match t.gru with
    | None -> bow_hidden t context
    | Some g -> gru_fold t g context

  let init t ~prompt =
    match t.gru with
    | None -> Bow_w (context_of t ~prompt ~prefix:[])
    | Some g -> Gru_h (gru_fold t g (Vocab.bos t.vocab :: prompt))

  let extend t state tok =
    match (state, t.gru) with
    | Bow_w w, _ -> Bow_w (bow_push t w tok)
    | Gru_h h, Some g -> Gru_h (gru_step t g h tok)
    | Gru_h _, None -> invalid_arg "Model.Fwd.extend: state does not match model"

  let hidden t = function Bow_w w -> bow_hidden t w | Gru_h h -> h
end
