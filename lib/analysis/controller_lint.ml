module Fsa = Dpoaf_automata.Fsa
module Graph = Dpoaf_automata.Graph
module Symbol = Dpoaf_logic.Symbol

(* Transitions that can ever fire: unsatisfiable guards carry no behaviour,
   so they are excluded from reachability, cycles and overlap analysis
   (a transition with an unsatisfiable guard is itself reported). *)
let live_transitions (c : Fsa.t) =
  List.filter (fun (tr : Fsa.transition) -> Guards.satisfiable tr.Fsa.guard) c.Fsa.transitions

(* Successor lists of [transitions], in transition order. *)
let successors (c : Fsa.t) transitions =
  let succs = Array.make c.Fsa.n_states [] in
  List.iter
    (fun (tr : Fsa.transition) -> succs.(tr.Fsa.src) <- tr.Fsa.dst :: succs.(tr.Fsa.src))
    (List.rev transitions);
  succs

(* Each check below takes [seen], the states reachable over live
   transitions, so that [lint] computes it once per controller. *)
let reachable (c : Fsa.t) =
  Graph.reachable (successors c (live_transitions c)) ~roots:[ c.Fsa.init ]

let unreachable_states (c : Fsa.t) seen =
  List.filter (fun q -> not seen.(q)) (List.init c.Fsa.n_states Fun.id)

let out_guards (c : Fsa.t) q =
  List.filter_map
    (fun (tr : Fsa.transition) ->
      if tr.Fsa.src = q then Some tr.Fsa.guard else None)
    c.Fsa.transitions

let stuck_states c seen =
  List.filter
    (fun q -> seen.(q) && not (Guards.satisfiable (Guards.disjunction (out_guards c q))))
    (List.init c.Fsa.n_states Fun.id)

(* Nondeterminism: two transitions out of the same reachable state whose
   guards can hold at once and whose outcomes (action, destination) differ.
   Same-outcome overlap is harmless duplication and not reported. *)
let overlaps (c : Fsa.t) seen =
  let rec pairs = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest
  in
  List.filter_map
    (fun ((t1 : Fsa.transition), (t2 : Fsa.transition)) ->
      if
        t1.Fsa.src = t2.Fsa.src
        && seen.(t1.Fsa.src)
        && (t1.Fsa.dst <> t2.Fsa.dst || not (Symbol.equal t1.Fsa.action t2.Fsa.action))
      then
        Option.map (fun w -> (t1, t2, w)) (Guards.overlap_witness t1.Fsa.guard t2.Fsa.guard)
      else None)
    (pairs (live_transitions c))

(* A reachable state is incomplete when some observation enables none of
   its transitions — the controller would block, silently pruning model
   behaviours from the product.  The verdict is independent of the ambient
   atom universe: atoms no outgoing guard mentions are don't-cares, so the
   DNF complement over each state's own guard atoms is exact.  Stuck states
   (no observation enabled at all) are reported separately and skipped
   here. *)
let incomplete_states (c : Fsa.t) seen ~stuck =
  List.filter_map
    (fun q ->
      if (not seen.(q)) || List.mem q stuck then None
      else
        Option.map (fun w -> (q, w)) (Guards.complement_witness (out_guards c q)))
    (List.init c.Fsa.n_states Fun.id)

let incompleteness c =
  let seen = reachable c in
  incomplete_states c seen ~stuck:(stuck_states c seen)

(* Strongly connected components of the ε-action subgraph (transitions
   whose action symbol is empty), restricted to reachable states; a
   nontrivial SCC or an ε self-loop means the controller can cycle forever
   without ever emitting an action. *)
let epsilon_cycles (c : Fsa.t) seen =
  let eps =
    successors c
      (List.filter
         (fun (tr : Fsa.transition) ->
           Symbol.is_empty tr.Fsa.action && seen.(tr.Fsa.src) && seen.(tr.Fsa.dst))
         (live_transitions c))
  in
  let roots = List.filter (fun q -> seen.(q)) (List.init c.Fsa.n_states Fun.id) in
  let { Graph.members; _ } = Graph.sccs eps ~roots in
  List.filter
    (function [ q ] -> List.mem q eps.(q) | _ -> true)
    (List.rev (Array.to_list members))

let lint (c : Fsa.t) =
  let name q = c.Fsa.state_names.(q) in
  let artifact = Diagnostic.Controller c.Fsa.name in
  let seen = reachable c in
  let stuck_qs = stuck_states c seen in
  let diag ~code ~severity ?witness msg =
    Diagnostic.make ~code ~severity ~artifact ?witness msg
  in
  let unreachable =
    List.map
      (fun q ->
        diag ~code:"CTL001" ~severity:Diagnostic.Warning ~witness:(name q)
          (Printf.sprintf "state %s is unreachable from the initial state %s"
             (name q) (name c.Fsa.init)))
      (unreachable_states c seen)
  in
  let stuck =
    List.map
      (fun q ->
        diag ~code:"CTL002" ~severity:Diagnostic.Error ~witness:(name q)
          (Printf.sprintf
             "state %s is reachable but no observation enables any of its \
              transitions (the controller freezes there)"
             (name q)))
      stuck_qs
  in
  let overlap =
    List.map
      (fun ((t1 : Fsa.transition), (t2 : Fsa.transition), w) ->
        diag ~code:"CTL003" ~severity:Diagnostic.Warning
          ~witness:(Symbol.to_string w)
          (Printf.sprintf
             "transitions from %s overlap: [%s / %s -> %s] and [%s / %s -> %s] \
              are both enabled"
             (name t1.Fsa.src)
             (Format.asprintf "%a" Fsa.pp_guard t1.Fsa.guard)
             (Symbol.to_string t1.Fsa.action) (name t1.Fsa.dst)
             (Format.asprintf "%a" Fsa.pp_guard t2.Fsa.guard)
             (Symbol.to_string t2.Fsa.action) (name t2.Fsa.dst)))
      (overlaps c seen)
  in
  let incomplete =
    List.map
      (fun (q, w) ->
        diag ~code:"CTL004" ~severity:Diagnostic.Error
          ~witness:(Symbol.to_string w)
          (Printf.sprintf
             "state %s has no enabled transition for some observation (the \
              product silently drops those model behaviours)"
             (name q)))
      (incomplete_states c seen ~stuck:stuck_qs)
  in
  let eps =
    List.map
      (fun comp ->
        diag ~code:"CTL005" ~severity:Diagnostic.Warning
          (Printf.sprintf
             "states {%s} form an ε-action cycle: the controller can loop \
              forever without emitting any action"
             (String.concat ", " (List.map name comp))))
      (epsilon_cycles c seen)
  in
  let dead_guards =
    List.filter_map
      (fun (tr : Fsa.transition) ->
        if Guards.satisfiable tr.Fsa.guard then None
        else
          Some
            (diag ~code:"CTL006" ~severity:Diagnostic.Info
               (Printf.sprintf "transition %s -> %s has an unsatisfiable guard %s"
                  (name tr.Fsa.src) (name tr.Fsa.dst)
                  (Format.asprintf "%a" Fsa.pp_guard tr.Fsa.guard))))
      c.Fsa.transitions
  in
  Diagnostic.sort (unreachable @ stuck @ overlap @ incomplete @ eps @ dead_guards)
