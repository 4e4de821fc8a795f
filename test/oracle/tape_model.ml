(* The language model's scoring path on an autodiff tape, composed from
   the primitive ops: the reference the hand-written gradients of
   pre-training ([Pretrain]) and fine-tuning ([Features]) are
   differentially tested against.  The Bow context is rebuilt from the
   whole prefix at every position; the GRU carries its recurrence. *)

module Model = Dpoaf_lm.Model
module Grammar = Dpoaf_lm.Grammar
module Vocab = Dpoaf_lm.Vocab
module Lora = Dpoaf_tensor.Lora
module Optim = Dpoaf_tensor.Optim
module Tensor = Dpoaf_tensor.Tensor

type bound = {
  tape : Autodiff.Tape.t;
  emb : Autodiff.t;
  base : Autodiff.t;
  a : Autodiff.t;
  b : Autodiff.t;
  bias : Autodiff.t;
  gru : Autodiff.t list;  (* wz uz bz wr ur br wh uh bh; [] for Bow *)
}

let bind (m : Model.t) tape =
  let var = Autodiff.var tape in
  {
    tape;
    emb = var m.Model.embedding;
    base = var m.Model.out.Lora.base;
    a = var m.Model.out.Lora.a;
    b = var m.Model.out.Lora.b;
    bias = var m.Model.bias;
    gru =
      (match m.Model.gru with
      | None -> []
      | Some g -> List.map var Model.[ g.wz; g.uz; g.bz; g.wr; g.ur; g.br; g.wh; g.uh; g.bh ]);
  }

(* After a backward pass: the adapter gradients, paired for an optimizer
   step. *)
let lora_grads m bound =
  List.combine (Model.params_lora m) [ Autodiff.grad bound.a; Autodiff.grad bound.b ]

(* After a backward pass: the gradients of the tensors pre-training
   trains, in [Model.params_pretrain] order. *)
let pretrain_grads bound =
  List.map Autodiff.grad ([ bound.emb; bound.base; bound.bias ] @ bound.gru)

(* [W x + A (B x)] on the tape. *)
let lora_forward tape ~base ~a ~b x =
  Autodiff.add tape (Autodiff.matvec tape base x)
    (Autodiff.matvec tape a (Autodiff.matvec tape b x))

(* One GRU update: h' = (1-z)∘h + z∘tanh(Wh x + Uh (r∘h) + bh). *)
let gru_step_node (m : Model.t) bound h tok =
  let tape = bound.tape in
  match bound.gru with
  | [ wz; uz; bz; wr; ur; br; wh; uh; bh ] ->
      let d = m.Model.config.Model.dim in
      let ones = Autodiff.const tape (Tensor.create [| d |] 1.0) in
      let x = Autodiff.rows_mean tape bound.emb [ tok ] in
      let gate w u bias_v =
        Autodiff.add tape
          (Autodiff.add tape (Autodiff.matvec tape w x) (Autodiff.matvec tape u h))
          bias_v
      in
      let z = Autodiff.sigmoid tape (gate wz uz bz) in
      let r = Autodiff.sigmoid tape (gate wr ur br) in
      let rh = Autodiff.mul tape r h in
      let candidate =
        Autodiff.tanh_ tape
          (Autodiff.add tape
             (Autodiff.add tape (Autodiff.matvec tape wh x) (Autodiff.matvec tape uh rh))
             bh)
      in
      let keep = Autodiff.sub tape ones z in
      Autodiff.add tape (Autodiff.mul tape keep h) (Autodiff.mul tape z candidate)
  | _ -> invalid_arg "Tape_model.gru_step_node: not a GRU model"

let gru_fold m bound context =
  List.fold_left (gru_step_node m bound)
    (Autodiff.const bound.tape (Tensor.zeros [| m.Model.config.Model.dim |]))
    context

(* The conditioning vector for [context]: the windowed mean embedding
   (Bow) or a GRU pass over it. *)
let hidden_node m bound ~context =
  match bound.gru with
  | [] -> Autodiff.tanh_ bound.tape (Autodiff.rows_mean bound.tape bound.emb context)
  | _ -> gru_fold m bound context

let logprob_from_hidden bound ~h ~allowed ~target =
  let target_pos =
    match List.find_index (fun tok -> tok = target) allowed with
    | Some i -> i
    | None -> invalid_arg "Tape_model: target not allowed"
  in
  let tape = bound.tape in
  let wx = Autodiff.gather_matvec tape bound.base h allowed in
  let bh = Autodiff.matvec tape bound.b h in
  let abx = Autodiff.gather_matvec tape bound.a bh allowed in
  let bias = Autodiff.gather tape bound.bias allowed in
  let logits = Autodiff.add tape (Autodiff.add tape wx abx) bias in
  Autodiff.pick tape (Autodiff.log_softmax tape logits) target_pos

(* Log-probability of [target] among [allowed] after [context]. *)
let step_logprob m bound ~context ~allowed ~target =
  logprob_from_hidden bound ~h:(hidden_node m bound ~context) ~allowed ~target

(* Total log-probability of a grammar-accepted response: Bow rebuilds the
   context window and its hidden node at every position; the GRU carries
   its recurrence from one prompt fold. *)
let response_logprob_node (m : Model.t) bound ~prompt ~grammar ~min_clauses
    ~max_clauses ~tokens =
  let rec walk gstate prefix h acc = function
    | [] ->
        if Grammar.is_final grammar gstate then acc
        else invalid_arg "Tape_model: incomplete response"
    | tok :: rest -> (
        let allowed = Grammar.allowed grammar ~min_clauses ~max_clauses gstate in
        match Grammar.advance grammar gstate tok with
        | None -> invalid_arg "Tape_model: grammar rejects token"
        | Some gstate' ->
            let lp =
              match h with
              | Some h -> logprob_from_hidden bound ~h ~allowed ~target:tok
              | None ->
                  let context = Model.context_of m ~prompt ~prefix:(List.rev prefix) in
                  step_logprob m bound ~context ~allowed ~target:tok
            in
            let h = Option.map (fun h -> gru_step_node m bound h tok) h in
            walk gstate' (tok :: prefix) h (lp :: acc) rest)
  in
  let h0 =
    match bound.gru with
    | [] -> None
    | _ -> Some (gru_fold m bound (Vocab.bos m.Model.vocab :: prompt))
  in
  Autodiff.add_list bound.tape (walk (Grammar.start grammar) [] h0 [] tokens)

(* The value of {!response_logprob_node} on a fresh tape. *)
let response_logprob m ~prompt ~grammar ~min_clauses ~max_clauses ~tokens =
  let bound = bind m (Autodiff.Tape.create ()) in
  Tensor.get
    (Autodiff.value
       (response_logprob_node m bound ~prompt ~grammar ~min_clauses ~max_clauses ~tokens))
    0
