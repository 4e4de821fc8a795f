type 'a explored = { states : 'a array; succs : int list array; roots : int list }

exception Budget_exceeded

(* [arr.(i) <- x] on a growable array whose live prefix is [0 .. i-1]. *)
let grow_set arr i x =
  if i = Array.length !arr then begin
    let bigger = Array.make (max 16 (2 * i)) x in
    Array.blit !arr 0 bigger 0 i;
    arr := bigger
  end;
  !arr.(i) <- x

let explore ?(budget = max_int) ~initial ~succs () =
  let ids = Hashtbl.create 256 in
  let states = ref [||] in
  let count = ref 0 in
  let intern s =
    match Hashtbl.find ids s with
    | i -> i
    | exception Not_found ->
        let i = !count in
        if i >= budget then raise Budget_exceeded;
        Hashtbl.add ids s i;
        grow_set states i s;
        count := i + 1;
        i
  in
  List.iter (fun s -> ignore (intern s)) initial;
  let roots = List.init !count Fun.id in
  (* states are expanded in number order, which is BFS order; List.map
     interns the successors left to right *)
  let out = ref [||] in
  let v = ref 0 in
  while !v < !count do
    grow_set out !v (List.map intern (succs !states.(!v)));
    incr v
  done;
  let n = !count in
  { states = Array.sub !states 0 n; succs = Array.sub !out 0 n; roots }

let reachable succs ~roots =
  let seen = Array.make (Array.length succs) false in
  let rec visit v =
    if not seen.(v) then begin
      seen.(v) <- true;
      List.iter visit succs.(v)
    end
  in
  List.iter visit roots;
  seen

type sccs = { comp : int array; members : int list array }

let sccs succs ~roots =
  let n = Array.length succs in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let stack = ref [] in
  let next_index = ref 0 in
  let found = ref [] in
  let ncomp = ref 0 in
  let rec strong v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strong w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      succs.(v);
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            comp.(w) <- !ncomp;
            if w = v then w :: acc else pop (w :: acc)
      in
      found := pop [] :: !found;
      incr ncomp
    end
  in
  List.iter (fun v -> if index.(v) < 0 then strong v) roots;
  { comp; members = Array.of_list (List.rev !found) }

(* Shortest path from any allowed source to [target] through allowed
   states, both endpoints included. *)
let bfs_path succs ~sources ~target ~allowed =
  let parent = Array.make (Array.length succs) (-2) in
  let q = Queue.create () in
  List.iter
    (fun s ->
      if allowed s && parent.(s) = -2 then begin
        parent.(s) <- -1;
        Queue.add s q
      end)
    sources;
  let found = ref false in
  while (not !found) && not (Queue.is_empty q) do
    let v = Queue.pop q in
    if v = target then found := true
    else
      List.iter
        (fun w ->
          if allowed w && parent.(w) = -2 then begin
            parent.(w) <- v;
            Queue.add w q
          end)
        succs.(v)
  done;
  assert !found;
  let rec unwind v acc =
    if parent.(v) = -1 then v :: acc else unwind parent.(v) (v :: acc)
  in
  unwind target []

let rec drop_last = function [] | [ _ ] -> [] | x :: rest -> x :: drop_last rest

let fair_lasso succs ~roots ~accepting =
  let { comp; members } = sccs succs ~roots in
  let n = Array.length succs in
  let fair v =
    comp.(v) >= 0
    && accepting v
    && match members.(comp.(v)) with [ w ] -> List.mem w succs.(w) | _ -> true
  in
  let rec seed v = if v = n then None else if fair v then Some v else seed (v + 1) in
  match seed 0 with
  | None -> None
  | Some s ->
      let prefix =
        bfs_path succs ~sources:roots ~target:s ~allowed:(fun v -> comp.(v) >= 0)
      in
      let in_comp v = comp.(v) = comp.(s) in
      let cycle =
        bfs_path succs ~sources:(List.filter in_comp succs.(s)) ~target:s
          ~allowed:in_comp
      in
      (* prefix = r..s and cycle = s1..s with s1 a successor of s *)
      Some (drop_last prefix, s :: drop_last cycle)
