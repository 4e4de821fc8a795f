(** The one graph kernel behind Büchi emptiness, LTL satisfiability,
    suite realizability and the controller and vacuity lints: interning
    exploration, reachability, Tarjan SCCs and the fair-lasso search.

    A graph is a dense successor array: states are [0 .. n-1] and
    [succs.(v)] lists [v]'s successors.  Every traversal follows those
    lists in order, so state numbering, component numbering and lassos
    are deterministic functions of the input. *)

type 'a explored = {
  states : 'a array;  (** [states.(i)] is the state numbered [i]. *)
  succs : int list array;
      (** Successor numbers of each state, in the order the [succs]
          callback listed them (duplicates kept). *)
  roots : int list;  (** Numbers of the distinct initial states, ascending. *)
}

exception Budget_exceeded

val explore :
  ?budget:int -> initial:'a list -> succs:('a -> 'a list) -> unit -> 'a explored
(** Breadth-first exploration from [initial], numbering states in
    first-seen order (initial states first, then each state's successors
    in callback order).  States are interned with polymorphic hashing and
    equality, so they must not be mutated once returned by [succs].
    @raise Budget_exceeded when a state would be numbered [budget]
    (default: unbounded). *)

val reachable : int list array -> roots:int list -> bool array
(** [reachable succs ~roots] marks the states reachable from [roots]
    (roots included). *)

type sccs = {
  comp : int array;
      (** Component of each state, numbered in Tarjan completion order;
          [-1] when the state is unreachable from the roots. *)
  members : int list array;
      (** Members of each component, the component's DFS root first,
          then in DFS discovery order. *)
}

val sccs : int list array -> roots:int list -> sccs
(** Strongly connected components of the part reachable from [roots],
    by one recursive Tarjan started from each unvisited root in order. *)

val fair_lasso :
  int list array ->
  roots:int list ->
  accepting:(int -> bool) ->
  (int list * int list) option
(** [Some (prefix, cycle)] iff some reachable nontrivial component (two
    or more states, or one with a self-loop) holds an accepting state.
    The seed is the lowest-numbered such accepting state [s]; [prefix]
    is a shortest path from a root to [s] without [s] itself, and
    [cycle] starts at [s] and is a shortest way back to [s] inside its
    component, without the closing [s].  [cycle] is never empty. *)
