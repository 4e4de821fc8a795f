module Symbol = Dpoaf_logic.Symbol

type guard =
  | Gtrue
  | Gatom of string
  | Gnot of guard
  | Gand of guard * guard
  | Gor of guard * guard

let rec eval_guard g sym =
  match g with
  | Gtrue -> true
  | Gatom a -> Symbol.mem a sym
  | Gnot g -> not (eval_guard g sym)
  | Gand (a, b) -> eval_guard a sym && eval_guard b sym
  | Gor (a, b) -> eval_guard a sym || eval_guard b sym

let rec pp_guard ppf = function
  | Gtrue -> Format.pp_print_string ppf "true"
  | Gatom a -> Format.pp_print_string ppf a
  | Gnot g -> Format.fprintf ppf "!(%a)" pp_guard g
  | Gand (a, b) -> Format.fprintf ppf "(%a & %a)" pp_guard a pp_guard b
  | Gor (a, b) -> Format.fprintf ppf "(%a | %a)" pp_guard a pp_guard b

type state = int

type transition = { src : state; guard : guard; action : Symbol.t; dst : state }

type t = {
  name : string;
  n_states : int;
  init : state;
  state_names : string array;
  transitions : transition list;
}

let make ~name ~n_states ~init ?state_names ~transitions () =
  let check q ctx =
    if q < 0 || q >= n_states then
      invalid_arg (Printf.sprintf "Fsa.make: %s state %d out of range" ctx q)
  in
  check init "initial";
  List.iter
    (fun tr ->
      check tr.src "source";
      check tr.dst "destination")
    transitions;
  let state_names =
    match state_names with
    | Some names ->
        if Array.length names <> n_states then
          invalid_arg "Fsa.make: state_names length mismatch";
        names
    | None -> Array.init n_states (Printf.sprintf "q%d")
  in
  { name; n_states; init; state_names; transitions }

let enabled t q sym =
  List.filter_map
    (fun tr ->
      if tr.src = q && eval_guard tr.guard sym then Some (tr.action, tr.dst) else None)
    t.transitions

let is_input_enabled t ~over =
  List.for_all
    (fun sym ->
      List.for_all
        (fun q -> enabled t q sym <> [])
        (List.init t.n_states Fun.id))
    over

let actions t =
  List.fold_left (fun acc tr -> Symbol.union acc tr.action) Symbol.empty t.transitions

let pp ppf t =
  Format.fprintf ppf "@[<v>controller %s (%d states, init %s)@," t.name t.n_states
    t.state_names.(t.init);
  List.iter
    (fun tr ->
      Format.fprintf ppf "  %s --[%a / %a]--> %s@," t.state_names.(tr.src) pp_guard
        tr.guard Symbol.pp tr.action t.state_names.(tr.dst))
    t.transitions;
  Format.fprintf ppf "@]"
