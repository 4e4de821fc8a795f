type lasso = { prefix : int list; cycle : int list }

let product_states = Dpoaf_exec.Metrics.counter "mc.product_states"
let sccs = Dpoaf_exec.Metrics.counter "mc.sccs"

(* Per-domain work arrays of the product search, grown to the largest
   product seen and reused.  [id] maps a product state [ks * nb + bs] to
   its number (-1 when not yet seen) and holds -1 everywhere between
   checks: a check resets the entries it numbered when it ends, normally
   or not.  [code] maps numbers back to product states; [off]/[adj] are
   the product graph in compressed rows ([off] is kept one longer than
   [code], for the row end of the last state); [acc] marks accepting
   numbers.
   No caller code runs while the arrays are borrowed; [busy] enforces
   it. *)
type scratch = {
  mutable busy : bool;
  mutable count : int;  (** product states numbered so far *)
  mutable id : int array;
  mutable code : int array;
  mutable acc : bool array;
  mutable off : int array;
  mutable adj : int array;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        busy = false;
        count = 0;
        id = [||];
        code = Array.make 64 0;
        acc = Array.make 64 false;
        off = Array.make 65 0;
        adj = Array.make 64 0;
      })

let grown a n fill =
  let b = Array.make (max n (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Does Kripke state [ks]'s label satisfy the literal masks of NBA state
   [bs]?  Word by word: every positive atom present, no negative one. *)
let rec fits (masks : int array) km (pos : int array) (neg : int array) bm words w =
  w = words
  ||
  let l = masks.(km + w) in
  l land pos.(bm + w) = pos.(bm + w)
  && l land neg.(bm + w) = 0
  && fits masks km pos neg bm words (w + 1)

(* NBA literals as masks over the Kripke structure's alphabet.  A
   positive atom outside the alphabet holds in no Kripke state, so its
   NBA state is [dead]; a negative one is absent everywhere already. *)
let literal_masks (k : Kripke.t) (a : Buchi.nba) =
  let words = k.Kripke.words in
  let pos = Array.make (a.Buchi.n * words) 0
  and neg = Array.make (a.Buchi.n * words) 0
  and dead = Array.make a.Buchi.n false in
  for bs = 0 to a.Buchi.n - 1 do
    dead.(bs) <- not (Kripke.mask_into k pos (bs * words) a.Buchi.pos.(bs));
    ignore (Kripke.mask_into k neg (bs * words) a.Buchi.neg.(bs) : bool)
  done;
  (pos, neg, dead)

(* The product state (kripke state ks, automaton state bs) is the int
   [ks * nb + bs], numbered in first-seen breadth-first order: initial
   pairs first, then each state's successors, listed Kripke-major — the
   numbering, and therefore the lassos, depend on that order. *)
let search s (k : Kripke.t) (a : Buchi.nba) =
  let nb = a.Buchi.n and words = k.Kripke.words and masks = k.Kripke.masks in
  let pos, neg, dead = literal_masks k a in
  let m = ref 0 in
  let intern p =
    let i = s.id.(p) in
    if i >= 0 then i
    else begin
      let i = s.count in
      if i = Array.length s.code then begin
        s.code <- grown s.code (i + 1) 0;
        s.acc <- grown s.acc (i + 1) false;
        s.off <- grown s.off (i + 2) 0
      end;
      s.code.(i) <- p;
      s.acc.(i) <- a.Buchi.accepting.(p mod nb);
      s.id.(p) <- i;
      s.count <- i + 1;
      i
    end
  in
  let push i =
    if !m = Array.length s.adj then s.adj <- grown s.adj (!m + 1) 0;
    s.adj.(!m) <- i;
    incr m
  in
  let rec each emit ks = function
    | [] -> ()
    | bs :: more ->
        if (not dead.(bs)) && fits masks (ks * words) pos neg (bs * words) words 0
        then emit ((ks * nb) + bs);
        each emit ks more
  in
  let rec pairs emit kss bss =
    match kss with
    | [] -> ()
    | ks :: rest ->
        each emit ks bss;
        pairs emit rest bss
  in
  pairs (fun p -> ignore (intern p)) k.Kripke.initial a.Buchi.initial;
  let roots = List.init s.count Fun.id in
  let expand p = push (intern p) in
  let v = ref 0 in
  while !v < s.count do
    let p = s.code.(!v) in
    s.off.(!v) <- !m;
    pairs expand k.Kripke.succs.(p / nb) a.Buchi.succs.(p mod nb);
    incr v
  done;
  s.off.(s.count) <- !m;
  let g = { Graph.n = s.count; off = s.off; adj = s.adj } in
  let found, components = Graph.fair_lasso g ~roots ~accepting:s.acc in
  Dpoaf_exec.Metrics.add product_states s.count;
  Dpoaf_exec.Metrics.add sccs components;
  Option.map
    (fun (prefix, cycle) ->
      let kripke_of = List.map (fun v -> s.code.(v) / nb) in
      { prefix = kripke_of prefix; cycle = kripke_of cycle })
    found

let find_accepting_lasso (k : Kripke.t) (a : Buchi.nba) =
  let s = Domain.DLS.get scratch_key in
  if s.busy then invalid_arg "Emptiness: scratch arrays already borrowed";
  let size = Kripke.n_states k * a.Buchi.n in
  if Array.length s.id < size then s.id <- grown s.id size (-1);
  s.busy <- true;
  s.count <- 0;
  Fun.protect
    ~finally:(fun () ->
      for v = 0 to s.count - 1 do
        s.id.(s.code.(v)) <- -1
      done;
      s.busy <- false)
    (fun () -> search s k a)
