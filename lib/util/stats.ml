let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
      let m = mean xs in
      let var = mean (List.map (fun x -> (x -. m) ** 2.0) xs) in
      sqrt var

let min_max = function
  | [] -> invalid_arg "Stats.min_max: empty list"
  | x :: rest ->
      List.fold_left (fun (lo, hi) v -> (Float.min lo v, Float.max hi v)) (x, x) rest

let percentile p xs =
  match List.sort compare xs with
  | [] -> invalid_arg "Stats.percentile: empty list"
  | sorted ->
      let arr = Array.of_list sorted in
      let n = Array.length arr in
      if n = 1 then arr.(0)
      else
        let pos = p *. float_of_int (n - 1) in
        let i = int_of_float (Float.floor pos) in
        let frac = pos -. float_of_int i in
        if i >= n - 1 then arr.(n - 1)
        else arr.(i) +. (frac *. (arr.(i + 1) -. arr.(i)))

let median xs = percentile 0.5 xs

let fraction pred = function
  | [] -> 0.0
  | xs ->
      let hits = List.length (List.filter pred xs) in
      float_of_int hits /. float_of_int (List.length xs)

let histogram ~bins ~lo ~hi xs =
  assert (bins > 0 && hi > lo);
  let counts = Array.make bins 0 in
  let width = (hi -. lo) /. float_of_int bins in
  let bucket x =
    let i = int_of_float ((x -. lo) /. width) in
    max 0 (min (bins - 1) i)
  in
  List.iter (fun x -> counts.(bucket x) <- counts.(bucket x) + 1) xs;
  counts

type summary = { mean : float; std : float; min : float; max : float; n : int }

let summarize xs =
  match xs with
  | [] -> { mean = 0.0; std = 0.0; min = 0.0; max = 0.0; n = 0 }
  | _ ->
      let lo, hi = min_max xs in
      { mean = mean xs; std = stddev xs; min = lo; max = hi; n = List.length xs }
