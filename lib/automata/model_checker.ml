module Ltl = Dpoaf_logic.Ltl
module Symbol = Dpoaf_logic.Symbol

type counterexample = {
  prefix : Symbol.t list;
  cycle : Symbol.t list;
  prefix_descr : string list;
  cycle_descr : string list;
  prefix_tags : int list;
  cycle_tags : int list;
}

type verdict = Holds | Fails of counterexample

let is_holds = function Holds -> true | Fails _ -> false

(* The NBA of a negated specification only depends on the formula, while a
   fresh Kripke structure arrives with every scored response — memoizing
   the tableau construction turns the 15-spec rule book into 15 total
   tableau builds per process instead of 15 per response. *)
let nba_cache : (Ltl.t, Buchi.nba) Dpoaf_exec.Cache.t =
  Dpoaf_exec.Cache.create ~name:"automata.nba" ()

let nba_of_negation negated =
  Dpoaf_exec.Cache.find_or_add nba_cache negated (fun () ->
      Buchi.degeneralize (Tableau.gnba_of_ltl negated))

let checks = Dpoaf_exec.Metrics.counter "mc.checks"

let check_kripke kripke formula =
  Dpoaf_exec.Metrics.incr checks;
  let kripke =
    if Kripke.is_total kripke then kripke else Kripke.stutter_extend kripke
  in
  let negated = Ltl.neg formula in
  let nba = nba_of_negation negated in
  match Emptiness.find_accepting_lasso kripke nba with
  | None -> Holds
  | Some { Emptiness.prefix; cycle } ->
      let labels = List.map (fun i -> kripke.Kripke.labels.(i)) in
      let descrs = List.map kripke.Kripke.descr in
      let tags = List.map (fun i -> kripke.Kripke.tags.(i)) in
      Fails
        {
          prefix = labels prefix;
          cycle = labels cycle;
          prefix_descr = descrs prefix;
          cycle_descr = descrs cycle;
          prefix_tags = tags prefix;
          cycle_tags = tags cycle;
        }

let kripke_of ~model ~controller =
  Product.to_kripke (Product.build ~model ~controller)

let check ~model ~controller formula = check_kripke (kripke_of ~model ~controller) formula

let verify_all ~model ~controller ~specs =
  let kripke = kripke_of ~model ~controller in
  List.map (fun (name, phi) -> (name, phi, check_kripke kripke phi)) specs

let count_satisfied ~model ~controller ~specs =
  verify_all ~model ~controller ~specs
  |> List.filter (fun (_, _, v) -> is_holds v)
  |> List.length

let rec propositional = function
  | Ltl.True | Ltl.False | Ltl.Atom _ -> true
  | Ltl.Not f -> propositional f
  | Ltl.And (a, b) | Ltl.Or (a, b) | Ltl.Implies (a, b) ->
      propositional a && propositional b
  | Ltl.Next _ | Ltl.Until _ | Ltl.Release _ | Ltl.Eventually _ | Ltl.Always _ ->
      false

let blame ~spec cex =
  let instants =
    List.combine (cex.prefix @ cex.cycle) (cex.prefix_tags @ cex.cycle_tags)
  in
  let culprits =
    match spec with
    | Ltl.Always body when propositional body ->
        List.filter
          (fun (label, _) ->
            not (Dpoaf_logic.Trace.eval_finite body [| label |]))
          instants
    | _ -> instants
  in
  List.filter_map (fun (_, tag) -> if tag >= 0 then Some tag else None) culprits
  |> List.sort_uniq compare

let pp_verdict ppf = function
  | Holds -> Format.pp_print_string ppf "holds"
  | Fails cex ->
      Format.fprintf ppf "@[<v>fails; counterexample:@,";
      List.iter2
        (fun sym d -> Format.fprintf ppf "  %a  %s@," Symbol.pp sym d)
        cex.prefix cex.prefix_descr;
      Format.fprintf ppf "  -- cycle --@,";
      List.iter2
        (fun sym d -> Format.fprintf ppf "  %a  %s@," Symbol.pp sym d)
        cex.cycle cex.cycle_descr;
      Format.fprintf ppf "@]"
