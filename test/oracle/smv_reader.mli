(** Parser and interpreter for the SMV subset written by {!Dpoaf_automata.Smv.of_kripke}.

    Together with the exporter this closes the NuSMV-substitution loop: a
    module can be exported, re-parsed and re-checked, and the verdicts must
    agree (a property exercised by the test suite).  The accepted subset:

    {v
 MODULE <ident>
 VAR
   state : 0..<n>;
 DEFINE
   <ident> := <bool expr over "state = k">;
 INIT
   <bool expr>
 TRANS
   case
     <bool expr> : <bool expr over next(state)>;
     ...
   esac
 LTLSPEC NAME <ident> := <ltl>;  -- optional trailing comment
    v}

    Boolean expressions use [TRUE], [FALSE], [!], [&], [|], [->], [=],
    [next(state)], parentheses, and previously-[DEFINE]d names. *)

type t = {
  name : string;
  kripke : Dpoaf_automata.Kripke.t;
  specs : (string * Dpoaf_logic.Ltl.t) list;
}

val parse : string -> (t, string) result

val parse_exn : string -> t
(** @raise Invalid_argument with the parse error. *)
