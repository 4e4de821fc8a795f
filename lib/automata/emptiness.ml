type lasso = { prefix : int list; cycle : int list }

(* The product state (kripke state ks, automaton state bs) is the int
   [ks * a.n + bs]; successors are listed Kripke-major, as the product
   numbering and therefore the lassos depend on that order. *)
let find_accepting_lasso (k : Kripke.t) (a : Buchi.nba) =
  let nb = a.Buchi.n in
  let pairs kss bss =
    List.fold_right
      (fun ks acc ->
        List.fold_right
          (fun bs acc ->
            if
              Buchi.consistent ~pos:a.Buchi.pos.(bs) ~neg:a.Buchi.neg.(bs)
                k.Kripke.labels.(ks)
            then (ks * nb) + bs :: acc
            else acc)
          bss acc)
      kss []
  in
  let g =
    Graph.explore
      ~initial:(pairs k.Kripke.initial a.Buchi.initial)
      ~succs:(fun p -> pairs k.Kripke.succs.(p / nb) a.Buchi.succs.(p mod nb))
      ()
  in
  Graph.fair_lasso g.Graph.succs ~roots:g.Graph.roots ~accepting:(fun v ->
      a.Buchi.accepting.(g.Graph.states.(v) mod nb))
  |> Option.map (fun (prefix, cycle) ->
         let kripke_of = List.map (fun v -> g.Graph.states.(v) / nb) in
         { prefix = kripke_of prefix; cycle = kripke_of cycle })
