module Symbol = Dpoaf_logic.Symbol

type gnba = {
  n : int;
  initial : int list;
  pos : Symbol.t array;
  neg : Symbol.t array;
  succs : int list array;
  accept : int list array;
}

type nba = {
  n : int;
  initial : int list;
  pos : Symbol.t array;
  neg : Symbol.t array;
  succs : int list array;
  accepting : bool array;
}

let consistent ~pos ~neg sym =
  Symbol.subset pos sym && Symbol.is_empty (Symbol.inter neg sym)

let degeneralize (g : gnba) : nba =
  let k = max 1 (Array.length g.accept) in
  let in_accept i q =
    if Array.length g.accept = 0 then true
    else List.mem q g.accept.(i)
  in
  let id q i = (q * k) + i in
  let n = g.n * k in
  let pos = Array.make n Symbol.empty in
  let neg = Array.make n Symbol.empty in
  let succs = Array.make n [] in
  let accepting = Array.make n false in
  for q = 0 to g.n - 1 do
    for i = 0 to k - 1 do
      let s = id q i in
      pos.(s) <- g.pos.(q);
      neg.(s) <- g.neg.(q);
      let j = if in_accept i q then (i + 1) mod k else i in
      succs.(s) <- List.map (fun q' -> id q' j) g.succs.(q);
      accepting.(s) <- i = 0 && in_accept 0 q
    done
  done;
  { n; initial = List.map (fun q -> id q 0) g.initial; pos; neg; succs; accepting }
