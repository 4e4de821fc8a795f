let witness phi =
  (* Tableau construction already discards contradictory nodes, so every
     state is enterable by the symbol of exactly its positive atoms. *)
  let nba = Buchi.degeneralize (Tableau.gnba_of_ltl phi) in
  match
    Graph.fair_lasso (Graph.of_lists nba.Buchi.succs) ~roots:nba.Buchi.initial
      ~accepting:nba.Buchi.accepting
  with
  | None, _ -> None
  | Some (prefix, cycle), _ ->
      let label v = nba.Buchi.pos.(v) in
      Some
        ( Array.of_list (List.map label prefix),
          Array.of_list (List.map label cycle) )

let is_satisfiable phi = witness phi <> None
