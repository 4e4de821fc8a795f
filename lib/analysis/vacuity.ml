module Fsa = Dpoaf_automata.Fsa
module Ts = Dpoaf_automata.Ts
module Kripke = Dpoaf_automata.Kripke
module Product = Dpoaf_automata.Product
module Graph = Dpoaf_automata.Graph

(* The Kripke encoding of M ⊗ C has one state per product edge, labeled
   λ_M(p) ∪ a over P ∪ P_A — so a propositional antecedent can be evaluated
   directly on each reachable label, no atoms left free. *)
let reachable_labels (k : Kripke.t) =
  let seen = Graph.reachable k.Kripke.succs ~roots:k.Kripke.initial in
  List.filteri (fun q _ -> seen.(q)) (Array.to_list k.Kripke.labels)

let vacuous_in kripke ~specs ~satisfied =
  let labels = reachable_labels kripke in
  let triggered (_, phi) =
    match Option.bind (Spec_sanity.antecedent phi) Spec_sanity.guard_of_prop with
    | None -> true (* no antecedent shape: conservatively "triggered" *)
    | Some g -> List.exists (fun label -> Fsa.eval_guard g label) labels
  in
  let triggered = List.map fst (List.filter triggered specs) in
  List.filter (fun name -> not (List.mem name triggered)) satisfied

let vacuously_satisfied ~model ~controller ~specs ~satisfied =
  vacuous_in (Product.to_kripke (Product.build ~model ~controller)) ~specs
    ~satisfied

let diagnostics ~model ~controller ~specs ~satisfied =
  List.map
    (fun name ->
      Diagnostic.make ~code:"VAC001" ~severity:Diagnostic.Info
        ~artifact:(Diagnostic.Controller controller.Fsa.name) ~witness:name
        (Printf.sprintf
           "satisfies %s only vacuously: its antecedent never triggers in \
            the product with model %s"
           name model.Ts.name))
    (vacuously_satisfied ~model ~controller ~specs ~satisfied)
