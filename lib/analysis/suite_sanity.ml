(* Whole-suite static analysis of an LTL rule book.

   Three layers, all suite-level (PR 3's Spec_sanity looks at one or two
   specifications at a time; this module looks at all of them together):

   - minimal conflict cores: jointly-unsatisfiable subsets found by
     increasing-size tableau search, so every reported core is minimal by
     construction (every proper subset was already checked satisfiable);

   - realizability against a world model: can ANY controller running in
     the model satisfy the whole book at once?  The joint tableau blows
     up ~10x per specification (measured: 8 of the driving specs take
     minutes), so the book is compiled spec-by-spec into the anchored
     product instead: propositional invariants restrict the model x action
     graph directly, the response/liveness shapes that the Spec_gen
     templates produce become 2-3-state deterministic Buchi monitors
     (zero branching), and only formulas outside those shapes fall back
     to a nondeterministic tableau automaton under a product-state
     budget.  All fifteen driving specifications against the universal
     model decide in under a millisecond this way;

   - a coverage matrix over the domain vocabulary: propositions and
     actions no specification constrains, specifications that never
     distinguish any pair in a response pool, and specifications that
     are jointly redundant relative to the model (every model trace
     satisfying the others satisfies them too — strictly beyond the
     pairwise implication sweep). *)

module Ltl = Dpoaf_logic.Ltl
module Symbol = Dpoaf_logic.Symbol
module Trace = Dpoaf_logic.Trace
module Ts = Dpoaf_automata.Ts
module Buchi = Dpoaf_automata.Buchi
module Tableau = Dpoaf_automata.Tableau
module Sat = Dpoaf_automata.Satisfiability
module Graph = Dpoaf_automata.Graph

(* ---------------- conflict cores ---------------- *)

let conjunction = function
  | [] -> Ltl.True
  | phi :: rest -> List.fold_left (fun acc p -> Ltl.And (acc, p)) phi rest

(* All size-k subsets of [xs] (as lists, order-preserving). *)
let rec subsets k xs =
  if k = 0 then [ [] ]
  else
    match xs with
    | [] -> []
    | x :: rest ->
        List.map (fun s -> x :: s) (subsets (k - 1) rest) @ subsets k rest

let conflict_cores ?(max_core = 3) specs =
  (* individually-unsatisfiable specifications are SPEC001's finding;
     excluding them keeps every core genuinely joint (and keeps their
     supersets, all trivially unsatisfiable, out of the report) *)
  let sat_specs =
    List.filter (fun (_, phi) -> Sat.is_satisfiable phi) specs
  in
  let cores = ref [] in
  let covered subset =
    List.exists
      (fun core -> List.for_all (fun n -> List.mem n subset) core)
      !cores
  in
  for size = 2 to max_core do
    List.iter
      (fun subset ->
        let names = List.map fst subset in
        if not (covered names) then
          if not (Sat.is_satisfiable (conjunction (List.map snd subset)))
          then cores := names :: !cores)
      (subsets size sat_specs)
  done;
  List.rev !cores

(* ---------------- the anchored product ---------------- *)

(* The "anchor": the world model with every state split per controller
   action, labeled with the state's propositions plus that one action
   atom.  Its infinite paths are exactly the traces some controller
   could produce in the model, which makes suite realizability an
   emptiness question on a finite graph. *)
type anchor = {
  labels : Symbol.t array;
  succs : int list array;
  initial : int list;
}

let anchor_of_model (m : Ts.t) actions =
  let na = List.length actions in
  let acts = Array.of_list actions in
  let nm = Ts.n_states m in
  let idx mi ai = (mi * na) + ai in
  let labels =
    Array.init (nm * na) (fun k ->
        Symbol.add acts.(k mod na) (Ts.label m (k / na)))
  in
  let succs =
    Array.init (nm * na) (fun k ->
        List.concat_map
          (fun mj -> List.init na (fun aj -> idx mj aj))
          (Ts.successors m (k / na)))
  in
  let initial =
    List.concat_map
      (fun mi -> List.init na (fun ai -> idx mi ai))
      m.Ts.initial
  in
  { labels; succs; initial }

(* ---------------- per-spec compilation ---------------- *)

(* A deterministic Buchi monitor: accepting states must recur. *)
type monitor = {
  m_start : int;
  m_step : int -> Symbol.t -> int;
  m_acc : int -> bool;
}

type component =
  | Restrict of Ltl.t  (* propositional invariant body *)
  | Det of monitor
  | Nondet of Buchi.nba

let eval_prop sigma phi = Trace.eval_finite phi [| sigma |]

(* The Spec_gen template shapes (and all of the driving book's temporal
   specifications) are deterministic-Buchi recognizable; anything else
   falls back to the tableau. *)
let compile phi =
  let prop = Spec_sanity.propositional in
  match phi with
  | Ltl.Always b when prop b -> Restrict b
  | Ltl.Always (Ltl.Implies (a, Ltl.Eventually b)) when prop a && prop b ->
      (* response obligation: 0 = discharged (accepting), 1 = pending *)
      Det
        {
          m_start = 0;
          m_step =
            (fun s sigma ->
              match s with
              | 0 -> if eval_prop sigma a && not (eval_prop sigma b) then 1 else 0
              | _ -> if eval_prop sigma b then 0 else 1);
          m_acc = (fun s -> s = 0);
        }
  | Ltl.Implies (Ltl.Eventually e, Ltl.Eventually g) when prop e && prop g ->
      (* liveness: 0 = enable unseen (accepting), 1 = enabled and unmet,
         2 = goal met (accepting sink) *)
      Det
        {
          m_start = 0;
          m_step =
            (fun s sigma ->
              match s with
              | 2 -> 2
              | s ->
                  if eval_prop sigma g then 2
                  else if s = 1 || eval_prop sigma e then 1
                  else 0);
          m_acc = (fun s -> s <> 1);
        }
  | Ltl.Eventually g when prop g ->
      Det
        {
          m_start = 0;
          m_step = (fun s sigma -> if s = 1 || eval_prop sigma g then 1 else 0);
          m_acc = (fun s -> s = 1);
        }
  | Ltl.Always (Ltl.Eventually g) when prop g ->
      Det
        {
          m_start = 0;
          m_step = (fun _ sigma -> if eval_prop sigma g then 1 else 0);
          m_acc = (fun s -> s = 1);
        }
  | phi -> Nondet (Buchi.degeneralize (Tableau.gnba_of_ltl phi))

let restrict anchor bodies =
  let ok =
    Array.map (fun sigma -> List.for_all (eval_prop sigma) bodies) anchor.labels
  in
  {
    labels = anchor.labels;
    succs =
      Array.mapi
        (fun i ss -> if ok.(i) then List.filter (fun j -> ok.(j)) ss else [])
        anchor.succs;
    initial = List.filter (fun i -> ok.(i)) anchor.initial;
  }

type realizability = Realizable | Unrealizable | Unknown

(* Emptiness of the anchored product under generalized Buchi acceptance
   (one accepting set per Det/Nondet component): explore the tuples
   [anchor state; det states; nondet states] from the anchor's initial
   states, then split them into SCCs — a nontrivial SCC touching every
   component's accepting set witnesses a lasso every specification
   accepts.
   @raise Graph.Budget_exceeded past [budget] product states. *)
let product_realizable anchor ~dets ~nbas ~budget =
  let nd = Array.length dets and nn = Array.length nbas in
  (* the product tuples at anchor state [k]: deterministic parts are
     fixed, nondeterministic parts range over their candidates *)
  let expand k det_states (cands : int list array) =
    if Array.exists (( = ) []) cands then []
    else begin
      let tup = Array.make (1 + nd + nn) k in
      Array.blit det_states 0 tup 1 nd;
      let out = ref [] in
      let rec go i =
        if i = nn then out := Array.copy tup :: !out
        else
          List.iter
            (fun q ->
              tup.(1 + nd + i) <- q;
              go (i + 1))
            cands.(i)
      in
      go 0;
      List.rev !out
    end
  in
  let consistent nba sigma =
    List.filter (fun q ->
        Buchi.consistent ~pos:nba.Buchi.pos.(q) ~neg:nba.Buchi.neg.(q) sigma)
  in
  let initial =
    List.concat_map
      (fun k ->
        let sigma = anchor.labels.(k) in
        expand k
          (Array.map (fun m -> m.m_step m.m_start sigma) dets)
          (Array.map (fun nba -> consistent nba sigma nba.Buchi.initial) nbas))
      anchor.initial
  in
  let succs tup =
    List.concat_map
      (fun k' ->
        let sigma = anchor.labels.(k') in
        expand k'
          (Array.mapi (fun di m -> m.m_step tup.(1 + di) sigma) dets)
          (Array.mapi
             (fun ni nba -> consistent nba sigma nba.Buchi.succs.(tup.(1 + nd + ni)))
             nbas))
      anchor.succs.(tup.(0))
  in
  let g = Graph.explore ~budget ~initial ~succs () in
  let { Graph.members; _ } = Graph.sccs g.Graph.succs ~roots:g.Graph.roots in
  let hits scc slot acc = List.exists (fun v -> acc g.Graph.states.(v).(slot)) scc in
  let fair scc =
    (match scc with [ v ] -> List.mem v g.Graph.succs.(v) | _ -> true)
    && List.for_all (fun di -> hits scc (1 + di) dets.(di).m_acc) (List.init nd Fun.id)
    && List.for_all
         (fun ni -> hits scc (1 + nd + ni) (Array.get nbas.(ni).Buchi.accepting))
         (List.init nn Fun.id)
  in
  Array.exists fair members

let default_budget = 50_000

let realizable ~model ~actions ?(budget = default_budget) specs =
  if actions = [] then Unknown
  else
    let anchor = anchor_of_model model actions in
    let components = List.map (fun (_, phi) -> compile phi) specs in
    let bodies =
      List.filter_map (function Restrict b -> Some b | _ -> None) components
    in
    let dets =
      Array.of_list
        (List.filter_map (function Det m -> Some m | _ -> None) components)
    in
    let nbas =
      Array.of_list
        (List.filter_map (function Nondet a -> Some a | _ -> None) components)
    in
    let restricted = restrict anchor bodies in
    match product_realizable restricted ~dets ~nbas ~budget with
    | true -> Realizable
    | false -> Unrealizable
    | exception Graph.Budget_exceeded -> Unknown

(* Deletion-based minimization: drop each member that leaves the rest
   unrealizable.  Minimal w.r.t. deletion; an Unknown keeps the member
   (conservative). *)
let unrealizable_core ~model ~actions ?budget specs =
  let rec minimize keep = function
    | [] -> List.rev keep
    | spec :: rest ->
        let without = List.rev_append keep rest in
        if realizable ~model ~actions ?budget without = Unrealizable then
          minimize keep rest
        else minimize (spec :: keep) rest
  in
  List.map fst (minimize [] specs)

(* ---------------- coverage matrix ---------------- *)

let coverage ~vocabulary specs =
  List.map
    (fun atom ->
      ( atom,
        List.filter_map
          (fun (name, phi) ->
            if Symbol.mem atom (Ltl.atoms phi) then Some name
            else None)
          specs ))
    vocabulary

let undistinguishing ~pool specs =
  match pool with
  | [] | [ _ ] -> []
  | _ ->
      List.filter_map
        (fun (name, _) ->
          let statuses =
            List.map (fun (_, satisfied) -> List.mem name satisfied) pool
          in
          match statuses with
          | [] -> None
          | first :: rest ->
              if List.for_all (( = ) first) rest then Some name else None)
        specs

(* phi is jointly redundant relative to [model] when no model trace
   satisfies the other specifications but not phi — i.e. the book with
   phi replaced by its negation is unrealizable.  Strictly beyond the
   pairwise sweep: the whole rest of the book is the antecedent. *)
let joint_redundancies ~model ~actions ?budget specs =
  if List.length specs < 3 then []
  else
    List.filter_map
      (fun (name, phi) ->
        let others = List.filter (fun (n, _) -> n <> name) specs in
        let pairwise_implied =
          List.exists (fun (_, psi) -> Spec_sanity.implies psi phi) others
        in
        if pairwise_implied then None (* already SPEC003 *)
        else
          match
            realizable ~model ~actions ?budget
              (("neg_" ^ name, Ltl.Not phi) :: others)
          with
          | Unrealizable -> Some name
          | Realizable | Unknown -> None)
      specs

(* ---------------- the suite-level check ---------------- *)

let check ~suite ?(max_core = 3) ?budget ?(propositions = [])
    ?(actions = []) ?(models = []) ?(pool = []) ?(redundancy = true) specs =
  let diag = ref [] in
  let add d = diag := d :: !diag in
  let artifact = Diagnostic.Suite suite in
  (* SUITE001: minimal jointly-unsatisfiable cores *)
  List.iter
    (fun core ->
      add
        (Diagnostic.make ~code:"SUITE001" ~severity:Diagnostic.Error ~artifact
           ~witness:(String.concat ", " core)
           (Printf.sprintf
              "jointly unsatisfiable: {%s} has no model at all (minimal \
               conflict core: removing any member restores satisfiability)"
              (String.concat ", " core))))
    (conflict_cores ~max_core specs);
  (* SUITE002/SUITE003: realizability against each world model *)
  List.iter
    (fun (model_name, model) ->
      match realizable ~model ~actions ?budget specs with
      | Realizable -> ()
      | Unrealizable ->
          let core = unrealizable_core ~model ~actions ?budget specs in
          add
            (Diagnostic.make ~code:"SUITE002" ~severity:Diagnostic.Error
               ~artifact
               ~witness:(String.concat ", " core)
               (Printf.sprintf
                  "unrealizable against world model %s: no controller can \
                   satisfy the whole book (minimal core: {%s})"
                  model_name (String.concat ", " core)))
      | Unknown ->
          add
            (Diagnostic.make ~code:"SUITE003" ~severity:Diagnostic.Info
               ~artifact ~witness:model_name
               (Printf.sprintf
                  "realizability against world model %s undecided (product \
                   budget exceeded)"
                  model_name)))
    models;
  (* SPEC005/SPEC006: unconstrained vocabulary *)
  List.iter
    (fun (atom, constrainers) ->
      if constrainers = [] then
        add
          (Diagnostic.make ~code:"SPEC005" ~severity:Diagnostic.Warning
             ~artifact ~witness:atom
             (Printf.sprintf
                "proposition %S is constrained by no specification — \
                 behavior on it is formally unchecked"
                atom)))
    (coverage ~vocabulary:propositions specs);
  List.iter
    (fun (atom, constrainers) ->
      if constrainers = [] then
        add
          (Diagnostic.make ~code:"SPEC006" ~severity:Diagnostic.Warning
             ~artifact ~witness:atom
             (Printf.sprintf
                "action %S is constrained by no specification — \
                 controllers may emit it freely"
                atom)))
    (coverage ~vocabulary:actions specs);
  (* SPEC007: specifications that never split the response pool *)
  List.iter
    (fun name ->
      add
        (Diagnostic.make ~code:"SPEC007" ~severity:Diagnostic.Info
           ~artifact:(Diagnostic.Spec name)
           ~witness:(Printf.sprintf "%d-response pool" (List.length pool))
           (Printf.sprintf
              "%s never distinguishes any pair in the response pool — it \
               contributes nothing to the ranking signal"
              name)))
    (undistinguishing ~pool specs);
  (* SPEC008: model-relative joint redundancy, strictly beyond SPEC003 *)
  (match (models, redundancy) with
  | (model_name, model) :: _, true ->
      List.iter
        (fun name ->
          add
            (Diagnostic.make ~code:"SPEC008" ~severity:Diagnostic.Info
               ~artifact:(Diagnostic.Spec name) ~witness:model_name
               (Printf.sprintf
                  "%s is jointly redundant over %s: every model trace \
                   satisfying the rest of the book satisfies it too (not \
                   implied by any single specification)"
                  name model_name)))
        (joint_redundancies ~model ~actions ?budget specs)
  | _ -> ());
  Diagnostic.sort !diag
