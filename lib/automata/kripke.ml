module Symbol = Dpoaf_logic.Symbol

type t = {
  labels : Symbol.t array;
  succs : int list array;
  initial : int list;
  descr : int -> string;
  tags : int array;
  atoms : string array;
  words : int;
  masks : int array;
}

let bits = Sys.int_size

(* Binary search in the sorted alphabet; -1 when absent. *)
let atom_index atoms atom =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      let c = String.compare atom atoms.(mid) in
      if c = 0 then mid else if c < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length atoms)

let mask_into t masks base sym =
  Symbol.fold
    (fun atom inside ->
      match atom_index t.atoms atom with
      | -1 -> false
      | j ->
          let w = base + (j / bits) in
          masks.(w) <- masks.(w) lor (1 lsl (j mod bits));
          inside)
    sym true

let make ~labels ~succs ~initial ?descr ?tags () =
  let n = Array.length labels in
  if Array.length succs <> n then invalid_arg "Kripke.make: succs length mismatch";
  let check i =
    if i < 0 || i >= n then invalid_arg "Kripke.make: state index out of range"
  in
  Array.iter (List.iter check) succs;
  List.iter check initial;
  let descr =
    match descr with Some d -> d | None -> fun i -> Printf.sprintf "s%d" i
  in
  let tags =
    match tags with
    | Some t ->
        if Array.length t <> n then invalid_arg "Kripke.make: tags length mismatch";
        t
    | None -> Array.make n (-1)
  in
  (* [Symbol.add] returns its argument when the atom is already there,
     so the fold allocates only for new atoms *)
  let alphabet =
    Array.fold_left (fun acc l -> Symbol.fold Symbol.add l acc) Symbol.empty labels
  in
  let atoms = Array.of_list (Symbol.elements alphabet) in
  let words = (Array.length atoms + bits - 1) / bits in
  let t =
    {
      labels;
      succs = Array.map (List.sort_uniq compare) succs;
      initial;
      descr;
      tags;
      atoms;
      words;
      masks = Array.make (n * words) 0;
    }
  in
  Array.iteri (fun i l -> ignore (mask_into t t.masks (i * words) l)) labels;
  t

let n_states t = Array.length t.labels

let is_total t = Array.for_all (fun l -> l <> []) t.succs

let stutter_extend t =
  {
    t with
    succs = Array.mapi (fun i l -> if l = [] then [ i ] else l) t.succs;
  }

let random_lasso t rng =
  match t.initial with
  | [] -> None
  | initial ->
      let start = Dpoaf_util.Rng.choice_list rng initial in
      let rec walk path seen s =
        match List.assoc_opt s seen with
        | Some pos ->
            let arr = Array.of_list (List.rev path) in
            let prefix = Array.sub arr 0 pos in
            let cycle = Array.sub arr pos (Array.length arr - pos) in
            Some (Array.map (fun i -> t.labels.(i)) prefix,
                  Array.map (fun i -> t.labels.(i)) cycle)
        | None -> (
            match t.succs.(s) with
            | [] -> None
            | succs ->
                let s' = Dpoaf_util.Rng.choice_list rng succs in
                walk (s :: path) ((s, List.length path) :: seen) s')
      in
      walk [] [] start

let pp ppf t =
  Format.fprintf ppf "@[<v>kripke (%d states, %d initial)@," (n_states t)
    (List.length t.initial);
  Array.iteri
    (fun i lbl ->
      Format.fprintf ppf "  %s %a -> [%s]@," (t.descr i) Symbol.pp lbl
        (String.concat "; " (List.map string_of_int t.succs.(i))))
    t.labels;
  Format.fprintf ppf "@]"
