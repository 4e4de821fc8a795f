(* Request streams, made from the workload seed alone: the program only
   ever sees the generated request lines. *)

module D = Dpoaf_domain.Domain
module SP = Dpoaf_serve.Protocol
module Rng = Dpoaf_util.Rng

type t = {
  rng : Rng.t;
  seen : (string * string list, unit) Hashtbl.t;
  mutable next_id : int;
}

let create ~seed = { rng = Rng.create seed; seen = Hashtbl.create 4096; next_id = 0 }

(* An ordered selection of 2-5 of a task's candidate steps that this
   stream has never produced before, so the verifier's profile memo
   cannot have seen it either. *)
let fresh_steps g dom =
  let name = D.name dom in
  let rec go tries =
    if tries > 10_000 then failwith "Inputs.fresh_steps: step space exhausted";
    let task = Rng.choice_list g.rng (D.tasks dom) in
    let pool = Rng.shuffle_list g.rng (D.candidate_steps dom task) in
    let len = 2 + Rng.int g.rng 4 in
    let steps = List.filteri (fun j _ -> j < len) pool in
    if Hashtbl.mem g.seen (name, steps) then go (tries + 1)
    else begin
      Hashtbl.add g.seen (name, steps) ();
      (task, steps)
    end
  in
  go 0

let line g kind =
  let id = Printf.sprintf "r%d" g.next_id in
  g.next_id <- g.next_id + 1;
  SP.request_to_string { SP.id; kind; deadline_ms = None }

let verify ?(explain = false) dom steps =
  SP.Verify { steps; scenario = None; domain = Some (D.name dom); explain }

let score_pair dom a b =
  SP.Score_pair
    { steps_a = a; steps_b = b; scenario = None; domain = Some (D.name dom);
      explain = false }

(* The serving mix is the repository's default traffic mix,
   [Dpoaf_serve.Loadgen.default_mix]: generate 0.3, verify 0.4,
   score_pair 0.3.  verify_cold keeps its verify : score_pair ratio of
   4 : 3 and adds one refine per seven of them, a choice: the default mix
   sends no refine, and the refine-weighted mix of the refinement docs
   (refine 0.5) is a stress setting in which refine, at about 4 ms a call
   against about 1.7 ms for a verify, would be most of the time.  One
   verify in four asks for explanations, so that the explain path is
   measured too. *)
let cold_verify = 4
let cold_score_pair = 3
let cold_refine = 1

(* verify_cold: a chunk is three rounds of, per pack, four verifies, three
   score_pairs and one refine: 72 requests, every step list unseen,
   shuffled.  Three rounds per chunk even out the cost of the refines,
   which ranges from one verification to three rounds of four re-sampled
   candidates. *)
let cold_rounds = 3

let cold_chunk g packs =
  List.concat
    (List.init cold_rounds (fun _ ->
         List.concat_map
           (fun dom ->
             let steps () = snd (fresh_steps g dom) in
             let refine () =
               let task, steps = fresh_steps g dom in
               SP.Refine
                 { task = task.D.id; steps; seed = Rng.int g.rng 1_000_000;
                   scenario = None; domain = Some (D.name dom);
                   explain = false; max_rounds = None; attempts = None }
             in
             List.init cold_verify (fun i -> verify ~explain:(i = 0) dom (steps ()))
             @ List.init cold_score_pair (fun _ -> score_pair dom (steps ()) (steps ()))
             @ List.init cold_refine (fun _ -> refine ()))
           packs))
  |> Rng.shuffle_list g.rng
  |> List.map (line g)
  |> Array.of_list

(* serve_hot: a fixed chunk of 600 requests in the default mix, per pack
   sixty generates, eighty verifies and sixty score_pairs over a pool of
   sixty-four step lists.  Every chunk repeats the first, so after it
   every prompt state and profile is cached.  The chunk is large enough
   that its cost varies little from seed to seed: with a quarter of it,
   allocation per request spread by 0.08 (quartile distance over median)
   over five seeds, with all of it by 0.02. *)
let hot_generate = 60
let hot_verify = 80
let hot_score_pair = 60
let hot_pool = 64

let hot_chunk g packs =
  List.concat_map
    (fun dom ->
      let pool = Array.init hot_pool (fun _ -> snd (fresh_steps g dom)) in
      let pick () = Rng.int g.rng hot_pool in
      let generate _ =
        SP.Generate
          { task = (Rng.choice_list g.rng (D.tasks dom)).D.id;
            seed = Rng.int g.rng 1_000_000; temperature = 1.0;
            domain = Some (D.name dom) }
      in
      let pair _ =
        let i = pick () in
        score_pair dom pool.(i)
          pool.((i + 1 + Rng.int g.rng (hot_pool - 1)) mod hot_pool)
      in
      List.init hot_generate generate
      @ List.init hot_verify (fun _ -> verify dom pool.(pick ()))
      @ List.init hot_score_pair pair)
    packs
  |> Rng.shuffle_list g.rng
  |> List.map (line g)
  |> Array.of_list
