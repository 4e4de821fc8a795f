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

type t = { n : int; off : int array; adj : int array }

let of_lists succs =
  let n = Array.length succs in
  let off = Array.make (n + 1) 0 in
  Array.iteri (fun v l -> off.(v + 1) <- off.(v) + List.length l) succs;
  let adj = Array.make off.(n) 0 in
  Array.iteri (fun v l -> List.iteri (fun i w -> adj.(off.(v) + i) <- w) l) succs;
  { n; off; adj }

let self_loop g v =
  let rec go e = e < g.off.(v + 1) && (g.adj.(e) = v || go (e + 1)) in
  go g.off.(v)

(* Per-domain work arrays of the SCC and path searches, grown to the
   largest graph seen and reused, so a search allocates no array of
   graph size (which would land in the major heap past 256 words).
   Between searches [index] and [comp] hold -1 and [parent] -2 on every
   entry; a search restores that on [0 .. n-1] when it ends, normally or
   not.  No caller code runs while the arrays are borrowed, so a search
   never meets its own domain's arrays in use; [busy] enforces it. *)
type scratch = {
  mutable busy : bool;
  mutable index : int array;  (** DFS discovery number, -1 unvisited *)
  mutable low : int array;
  mutable comp : int array;  (** component, -1 unassigned *)
  mutable order : int array;  (** [order.(i)] is the vertex discovered i-th *)
  mutable stack : int array;
  mutable size : int array;  (** members per component *)
  mutable parent : int array;  (** BFS tree: -2 unseen, -1 source *)
  mutable queue : int array;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        busy = false;
        index = [||];
        low = [||];
        comp = [||];
        order = [||];
        stack = [||];
        size = [||];
        parent = [||];
        queue = [||];
      })

let grown a n clean =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) clean in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let with_scratch n f =
  let s = Domain.DLS.get scratch_key in
  if s.busy then invalid_arg "Graph: scratch arrays already borrowed";
  if Array.length s.index < n then begin
    s.index <- grown s.index n (-1);
    s.low <- grown s.low n 0;
    s.comp <- grown s.comp n (-1);
    s.order <- grown s.order n 0;
    s.stack <- grown s.stack n 0;
    s.size <- grown s.size n 0;
    s.parent <- grown s.parent n (-2);
    s.queue <- grown s.queue n 0
  end;
  s.busy <- true;
  Fun.protect
    ~finally:(fun () ->
      Array.fill s.index 0 n (-1);
      Array.fill s.comp 0 n (-1);
      Array.fill s.parent 0 n (-2);
      s.busy <- false)
    (fun () -> f s)

(* One recursive Tarjan from each unvisited root in order, over the
   borrowed arrays.  A visited vertex without a component is on the
   stack.  Returns (vertices visited, components found). *)
let tarjan g s roots =
  let count = ref 0 and sp = ref 0 and ncomp = ref 0 in
  let rec strong v =
    let i = !count in
    s.index.(v) <- i;
    s.low.(v) <- i;
    s.order.(i) <- v;
    count := i + 1;
    s.stack.(!sp) <- v;
    incr sp;
    for e = g.off.(v) to g.off.(v + 1) - 1 do
      let w = g.adj.(e) in
      if s.index.(w) < 0 then begin
        strong w;
        if s.low.(w) < s.low.(v) then s.low.(v) <- s.low.(w)
      end
      else if s.comp.(w) < 0 && s.index.(w) < s.low.(v) then
        s.low.(v) <- s.index.(w)
    done;
    if s.low.(v) = i then begin
      let c = !ncomp and top = !sp in
      let rec pop () =
        decr sp;
        let w = s.stack.(!sp) in
        s.comp.(w) <- c;
        if w <> v then pop ()
      in
      pop ();
      s.size.(c) <- top - !sp;
      ncomp := c + 1
    end
  in
  List.iter (fun v -> if s.index.(v) < 0 then strong v) roots;
  (!count, !ncomp)

type sccs = { comp : int array; members : int list array }

let sccs succs ~roots =
  let g = of_lists succs in
  with_scratch g.n (fun (s : scratch) ->
      let visited, ncomp = tarjan g s roots in
      let members = Array.make ncomp [] in
      (* discovery order puts each component's DFS root first *)
      for i = visited - 1 downto 0 do
        let v = s.order.(i) in
        members.(s.comp.(v)) <- v :: members.(s.comp.(v))
      done;
      { comp = Array.sub s.comp 0 g.n; members })

(* Shortest path from any allowed source to [target] through allowed
   states, both endpoints included; allowed means in component [c], or
   in any component when [c] is -1.  Leaves [parent] clean. *)
let bfs_path g (s : scratch) ~sources ~target ~c =
  let allowed v = if c < 0 then s.comp.(v) >= 0 else s.comp.(v) = c in
  let tail = ref 0 in
  let visit v p =
    if allowed v && s.parent.(v) = -2 then begin
      s.parent.(v) <- p;
      s.queue.(!tail) <- v;
      incr tail
    end
  in
  List.iter (fun v -> visit v (-1)) sources;
  let head = ref 0 and found = ref false in
  while (not !found) && !head < !tail do
    let v = s.queue.(!head) in
    incr head;
    if v = target then found := true
    else
      for e = g.off.(v) to g.off.(v + 1) - 1 do
        visit g.adj.(e) v
      done
  done;
  assert !found;
  let rec unwind v acc =
    if s.parent.(v) = -1 then v :: acc else unwind s.parent.(v) (v :: acc)
  in
  let path = unwind target [] in
  for i = 0 to !tail - 1 do
    s.parent.(s.queue.(i)) <- -2
  done;
  path

let rec drop_last = function [] | [ _ ] -> [] | x :: rest -> x :: drop_last rest

let fair_lasso g ~roots ~accepting =
  with_scratch g.n (fun (s : scratch) ->
      let _, ncomp = tarjan g s roots in
      let fair v =
        s.comp.(v) >= 0 && accepting.(v)
        && (s.size.(s.comp.(v)) > 1 || self_loop g v)
      in
      let rec seed v = if v = g.n then None else if fair v then Some v else seed (v + 1) in
      match seed 0 with
      | None -> (None, ncomp)
      | Some v ->
          let prefix = bfs_path g s ~sources:roots ~target:v ~c:(-1) in
          let c = s.comp.(v) in
          let rec back e acc =
            if e < g.off.(v) then acc
            else
              let w = g.adj.(e) in
              back (e - 1) (if s.comp.(w) = c then w :: acc else acc)
          in
          let cycle =
            bfs_path g s ~sources:(back (g.off.(v + 1) - 1) []) ~target:v ~c
          in
          (* prefix = r..v and cycle = v1..v with v1 a successor of v *)
          (Some (drop_last prefix, v :: drop_last cycle), ncomp))
