module Model = Dpoaf_lm.Model
module Grammar = Dpoaf_lm.Grammar
module Lora = Dpoaf_tensor.Lora
module Tensor = Dpoaf_tensor.Tensor

type leg = {
  prompt : int list;
  grammar : Grammar.t;
  min_clauses : int;
  max_clauses : int;
  tokens : int list;
}

(* The features live in a few flat arrays indexed by position (every
   scored token of every leg, legs in order).  A DPO run keeps them for
   the whole run, so one small block per position would be promoted to
   the major heap and leave it fragmented after the run; a handful of
   large blocks does not. *)
type t = {
  d : int;
  rank : int;
  leg_first : int array;  (* leg [i] is positions [leg_first.(i)] to [leg_first.(i + 1) - 1] *)
  first : int array;
      (* position [p]'s allowed rows are [rows.(first.(p))] to
         [rows.(first.(p + 1) - 1)] *)
  target : int array;  (* index into [rows] of position [p]'s token *)
  rows : int array;  (* the grammar's allowed tokens *)
  wh : float array;  (* [W h] on each allowed row *)
  h : float array;  (* position [p]'s conditioning vector, at [p * d] *)
  u : float array;  (* [B h] of the last forward for position [p], at [p * rank] *)
  ls : float array;  (* the last forward's log-softmax on each allowed row *)
  bhg : float array;  (* rank-sized backward scratch *)
}

(* The log-probability of position [p] under adapter [(ad, bd)]; leaves
   its [u] and [ls] for [position_backward]. *)
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

(* The tape's sum of the leg's positions, last to first. *)
let leg_logprob f (model : Model.t) i =
  let ad = model.Model.out.Lora.a.Tensor.data
  and bd = model.Model.out.Lora.b.Tensor.data
  and biasd = model.Model.bias.Tensor.data in
  let acc = ref 0.0 in
  for p = f.leg_first.(i + 1) - 1 downto f.leg_first.(i) do
    acc := !acc +. position_logprob f ~ad ~bd ~biasd p
  done;
  !acc

(* Adds position [p]'s adapter gradients, for adjoint [g] of its
   log-probability, into [agrad] and [bgrad]. *)
let position_backward f ~ad ~agrad ~bgrad p g =
  let d = f.d and rank = f.rank and bhg = f.bhg in
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

(* The leg's sum node hands each position [0.0 +. g]. *)
let leg_backward f (model : Model.t) ~agrad ~bgrad i g =
  let ad = model.Model.out.Lora.a.Tensor.data in
  for p = f.leg_first.(i + 1) - 1 downto f.leg_first.(i) do
    position_backward f ~ad ~agrad ~bgrad p (0.0 +. g)
  done

let create (model : Model.t) legs =
  let d = model.Model.config.Model.dim and rank = model.Model.config.Model.lora_rank in
  let n = List.fold_left (fun acc leg -> acc + List.length leg.tokens) 0 legs in
  let first = Array.make (n + 1) 0 and target = Array.make n 0 in
  let h = Array.make (n * d) 0.0 in
  let rows = ref (Array.make (8 * n) 0) in
  let pos = ref 0 in
  let walk_leg leg =
    let grammar = leg.grammar in
    let rec walk gstate state = function
      | [] ->
          if not (Grammar.is_final grammar gstate) then
            invalid_arg "Features: incomplete response"
      | tok :: rest -> (
          let allowed =
            Grammar.allowed grammar ~min_clauses:leg.min_clauses
              ~max_clauses:leg.max_clauses gstate
          in
          match Grammar.advance grammar gstate tok with
          | None -> invalid_arg "Features: grammar rejects token"
          | Some gstate' ->
              let p = !pos in
              let at = first.(p) in
              (match List.find_index (fun r -> r = tok) allowed with
              | Some i -> target.(p) <- at + i
              | None -> invalid_arg "Features: target not allowed");
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
    walk (Grammar.start grammar) (Model.Fwd.init model ~prompt:leg.prompt) leg.tokens
  in
  let leg_first = Array.make (List.length legs + 1) 0 in
  List.iteri
    (fun i leg ->
      walk_leg leg;
      leg_first.(i + 1) <- !pos)
    legs;
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
  { d; rank; leg_first; first; target; rows; wh; h; u = Array.make (n * rank) 0.0;
    ls = Array.make (Array.length rows) 0.0; bhg = Array.make rank 0.0 }
