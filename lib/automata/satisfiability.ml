let witness phi =
  (* Tableau construction already discards contradictory nodes, so every
     state is enterable by the symbol of exactly its positive atoms. *)
  let nba = Buchi.degeneralize (Tableau.gnba_of_ltl phi) in
  match
    Graph.fair_lasso nba.Buchi.succs ~roots:nba.Buchi.initial
      ~accepting:(fun v -> nba.Buchi.accepting.(v))
  with
  | None -> None
  | Some (prefix, cycle) ->
      let label v = nba.Buchi.pos.(v) in
      Some
        ( Array.of_list (List.map label prefix),
          Array.of_list (List.map label cycle) )

let is_satisfiable phi = witness phi <> None
