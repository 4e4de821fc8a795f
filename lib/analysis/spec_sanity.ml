module Ltl = Dpoaf_logic.Ltl
module Symbol = Dpoaf_logic.Symbol
module Fsa = Dpoaf_automata.Fsa
module Ts = Dpoaf_automata.Ts
module Sat = Dpoaf_automata.Satisfiability
module Graph = Dpoaf_automata.Graph

let rec propositional = function
  | Ltl.True | Ltl.False | Ltl.Atom _ -> true
  | Ltl.Not a -> propositional a
  | Ltl.And (a, b) | Ltl.Or (a, b) | Ltl.Implies (a, b) ->
      propositional a && propositional b
  | Ltl.Next _ | Ltl.Until _ | Ltl.Release _ | Ltl.Eventually _ | Ltl.Always _
    ->
      false

(* Propositional LTL shares its boolean structure with controller guards,
   so antecedent reachability reuses the exact DNF engine of {!Guards}. *)
let rec guard_of_prop = function
  | Ltl.True -> Some Fsa.Gtrue
  | Ltl.False -> Some (Fsa.Gnot Fsa.Gtrue)
  | Ltl.Atom a -> Some (Fsa.Gatom a)
  | Ltl.Not a -> Option.map (fun g -> Fsa.Gnot g) (guard_of_prop a)
  | Ltl.And (a, b) -> map2 (fun x y -> Fsa.Gand (x, y)) a b
  | Ltl.Or (a, b) -> map2 (fun x y -> Fsa.Gor (x, y)) a b
  | Ltl.Implies (a, b) -> map2 (fun x y -> Fsa.Gor (Fsa.Gnot x, y)) a b
  | _ -> None

and map2 f a b =
  match (guard_of_prop a, guard_of_prop b) with
  | Some x, Some y -> Some (f x y)
  | _ -> None

let antecedent = function
  | Ltl.Always (Ltl.Implies (a, _)) when propositional a -> Some a
  | _ -> None

let unsatisfiable phi = not (Sat.is_satisfiable phi)

let tautological phi = not (Sat.is_satisfiable (Ltl.Not phi))

(* φi implies φj (as LTL validity) iff φi ∧ ¬φj has no model — one tableau
   emptiness check per ordered pair. *)
let implies phi_i phi_j = not (Sat.is_satisfiable (Ltl.And (phi_i, Ltl.Not phi_j)))

let implications specs =
  List.concat_map
    (fun (ni, pi) ->
      List.filter_map
        (fun (nj, pj) ->
          if ni <> nj && implies pi pj then Some (ni, nj) else None)
        specs)
    specs

let reachable_labels (m : Ts.t) =
  let seen = Graph.reachable m.Ts.succs ~roots:m.Ts.initial in
  List.filteri (fun q _ -> seen.(q)) (Array.to_list m.Ts.labels)

(* A spec of shape □(a ⇒ c) with propositional [a] is vacuous against a
   world model when no reachable state can trigger [a] — atoms in [free]
   (the controller's action atoms) are unconstrained, everything else is
   fixed by the state label.  Such a spec holds for any controller, so it
   contributes pure noise to the ranking feedback. *)
let vacuous_in_model ~model ?(free = Symbol.empty) phi =
  match Option.bind (antecedent phi) guard_of_prop with
  | None -> false
  | Some g ->
      not
        (List.exists
           (fun label -> Guards.satisfiable_under ~free label g)
           (reachable_labels model))

let check ?model ?(free = Symbol.empty) ?(pairwise = true) specs =
  let diag name ~code ~severity ?witness msg =
    Diagnostic.make ~code ~severity ~artifact:(Diagnostic.Spec name) ?witness msg
  in
  let per_spec =
    List.concat_map
      (fun (name, phi) ->
        let unsat =
          if unsatisfiable phi then
            [
              diag name ~code:"SPEC001" ~severity:Diagnostic.Error
                (Printf.sprintf
                   "%s is unsatisfiable: no behaviour can ever satisfy it, so \
                    every controller fails it"
                   (Ltl.to_string phi));
            ]
          else []
        in
        let taut =
          if (not (unsatisfiable phi)) && tautological phi then
            [
              diag name ~code:"SPEC002" ~severity:Diagnostic.Error
                (Printf.sprintf
                   "%s is a tautology: every controller satisfies it, so it \
                    contributes no ranking signal"
                   (Ltl.to_string phi));
            ]
          else []
        in
        let vac =
          match model with
          | Some m when vacuous_in_model ~model:m ~free phi ->
              [
                diag name ~code:"SPEC004" ~severity:Diagnostic.Warning
                  ~witness:(m.Ts.name)
                  (Printf.sprintf
                     "antecedent of %s can never trigger in model %s: the \
                      specification is vacuously satisfied by any controller"
                     (Ltl.to_string phi) (m.Ts.name));
              ]
          | _ -> []
        in
        unsat @ taut @ vac)
      specs
  in
  let redundant =
    if not pairwise then []
    else
      List.map
        (fun (ni, nj) ->
          diag nj ~code:"SPEC003" ~severity:Diagnostic.Info ~witness:ni
            (Printf.sprintf
               "%s is implied by %s: any controller satisfying %s satisfies \
                %s, shrinking the effective rule book"
               nj ni ni nj))
        (implications specs)
  in
  Diagnostic.sort (per_spec @ redundant)
