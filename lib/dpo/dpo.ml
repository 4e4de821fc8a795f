module Model = Dpoaf_lm.Model

type ref_logprobs = { ref_chosen : float; ref_rejected : float }

let logprob model (pair : Pref_data.pair) tokens =
  Model.response_logprob model ~prompt:pair.Pref_data.prompt
    ~grammar:pair.Pref_data.grammar ~min_clauses:pair.Pref_data.min_clauses
    ~max_clauses:pair.Pref_data.max_clauses ~tokens

let reference_logprobs reference pair =
  {
    ref_chosen = logprob reference pair pair.Pref_data.chosen;
    ref_rejected = logprob reference pair pair.Pref_data.rejected;
  }

type stats = { loss : float; accuracy : float; margin : float }

let evaluate ~policy ~reference ~beta pairs =
  match pairs with
  | [] -> { loss = 0.0; accuracy = 0.0; margin = 0.0 }
  | _ ->
      let n = float_of_int (List.length pairs) in
      let totals =
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
      let l, a, m = totals in
      { loss = l /. n; accuracy = a /. n; margin = m /. n }
