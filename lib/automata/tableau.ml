module Ltl = Dpoaf_logic.Ltl
module Symbol = Dpoaf_logic.Symbol
module Fset = Set.Make (Ltl)
module Iset = Set.Make (Int)

(* Completed nodes are found by their [(old, next)] pair. *)
module Key_map = Map.Make (struct
  type t = Fset.t * Fset.t

  let compare (o1, n1) (o2, n2) =
    let c = Fset.compare o1 o2 in
    if c <> 0 then c else Fset.compare n1 n2
end)

(* A tableau node under construction.  [incoming] holds the names of
   completed predecessor nodes (0 is the virtual initial node). *)
type node = {
  name : int;
  incoming : Iset.t;
  new_ : Fset.t;
  old : Fset.t;
  next : Fset.t;
}

type completed = { c_name : int; c_incoming : Iset.t ref; c_old : Fset.t }

let init_name = 0

let gnba_of_ltl formula =
  let formula = Ltl.nnf formula in
  let counter = ref 0 in
  let fresh () = incr counter; !counter in
  let completed : completed list ref = ref [] in
  let by_key = ref Key_map.empty in
  let rec expand node =
    if Fset.is_empty node.new_ then
      match Key_map.find_opt (node.old, node.next) !by_key with
      | Some c -> c.c_incoming := Iset.union !(c.c_incoming) node.incoming
      | None ->
          let c =
            {
              c_name = node.name;
              c_incoming = ref node.incoming;
              c_old = node.old;
            }
          in
          completed := c :: !completed;
          by_key := Key_map.add (node.old, node.next) c !by_key;
          expand
            {
              name = fresh ();
              incoming = Iset.singleton node.name;
              new_ = node.next;
              old = Fset.empty;
              next = Fset.empty;
            }
    else
      let f = Fset.choose node.new_ in
      let new_ = Fset.remove f node.new_ in
      let node = { node with new_ } in
      match f with
      | Ltl.False -> ()
      | Ltl.True -> expand { node with old = Fset.add f node.old }
      | Ltl.Atom a ->
          if Fset.mem (Ltl.Not (Ltl.Atom a)) node.old then ()
          else expand { node with old = Fset.add f node.old }
      | Ltl.Not (Ltl.Atom a) ->
          if Fset.mem (Ltl.Atom a) node.old then ()
          else expand { node with old = Fset.add f node.old }
      | Ltl.And (a, b) ->
          expand
            {
              node with
              new_ = Fset.add a (Fset.add b node.new_);
              old = Fset.add f node.old;
            }
      | Ltl.Or (a, b) ->
          let old = Fset.add f node.old in
          expand { node with name = fresh (); new_ = Fset.add a node.new_; old };
          expand { node with name = fresh (); new_ = Fset.add b node.new_; old }
      | Ltl.Until (a, b) ->
          let old = Fset.add f node.old in
          expand
            {
              node with
              name = fresh ();
              new_ = Fset.add a node.new_;
              old;
              next = Fset.add f node.next;
            };
          expand { node with name = fresh (); new_ = Fset.add b node.new_; old }
      | Ltl.Release (a, b) ->
          let old = Fset.add f node.old in
          expand
            {
              node with
              name = fresh ();
              new_ = Fset.add b node.new_;
              old;
              next = Fset.add f node.next;
            };
          expand
            {
              node with
              name = fresh ();
              new_ = Fset.add a (Fset.add b node.new_);
              old;
            }
      | Ltl.Next g ->
          expand
            { node with old = Fset.add f node.old; next = Fset.add g node.next }
      | Ltl.Not _ | Ltl.Implies _ | Ltl.Eventually _ | Ltl.Always _ ->
          (* impossible: the input was normalized to NNF *)
          assert false
  in
  expand
    {
      name = fresh ();
      incoming = Iset.singleton init_name;
      new_ = Fset.singleton formula;
      old = Fset.empty;
      next = Fset.empty;
    };
  let nodes = Array.of_list (List.rev !completed) in
  let n = Array.length nodes in
  let index_of_name = Hashtbl.create n in
  Array.iteri (fun i c -> Hashtbl.add index_of_name c.c_name i) nodes;
  let initial = ref [] in
  let succs = Array.make n [] in
  Array.iteri
    (fun i c ->
      Iset.iter
        (fun pred ->
          if pred = init_name then initial := i :: !initial
          else
            match Hashtbl.find_opt index_of_name pred with
            | Some j -> succs.(j) <- i :: succs.(j)
            | None -> ())
        !(c.c_incoming))
    nodes;
  let pos =
    Array.map
      (fun c ->
        Fset.fold
          (fun f acc -> match f with Ltl.Atom a -> Symbol.add a acc | _ -> acc)
          c.c_old Symbol.empty)
      nodes
  in
  let neg =
    Array.map
      (fun c ->
        Fset.fold
          (fun f acc ->
            match f with Ltl.Not (Ltl.Atom a) -> Symbol.add a acc | _ -> acc)
          c.c_old Symbol.empty)
      nodes
  in
  (* One acceptance set per Until subformula of the normalized formula. *)
  let untils =
    let rec collect f acc =
      let acc = match f with Ltl.Until _ -> Fset.add f acc | _ -> acc in
      match f with
      | Ltl.True | Ltl.False | Ltl.Atom _ -> acc
      | Ltl.Not g | Ltl.Next g | Ltl.Eventually g | Ltl.Always g -> collect g acc
      | Ltl.And (a, b) | Ltl.Or (a, b) | Ltl.Implies (a, b)
      | Ltl.Until (a, b) | Ltl.Release (a, b) ->
          collect a (collect b acc)
    in
    Fset.elements (collect formula Fset.empty)
  in
  let accept =
    Array.of_list
      (List.map
         (fun u ->
           let b = match u with Ltl.Until (_, b) -> b | _ -> assert false in
           List.filter
             (fun i -> Fset.mem b nodes.(i).c_old || not (Fset.mem u nodes.(i).c_old))
             (List.init n Fun.id))
         untils)
  in
  {
    Buchi.n;
    initial = List.sort_uniq compare !initial;
    pos;
    neg;
    succs = Array.map (List.sort_uniq compare) succs;
    accept;
  }
