module Imap = Map.Make (Int)

type node = { children : node Imap.t; terminal : bool }

type t = { root : node; sep : int; eos : int }

type state = { node : node; clauses_done : int; finished : bool }

let empty_node = { children = Imap.empty; terminal = false }

let rec insert node = function
  | [] -> { node with terminal = true }
  | tok :: rest ->
      let child =
        match Imap.find_opt tok node.children with
        | Some c -> c
        | None -> empty_node
      in
      { node with children = Imap.add tok (insert child rest) node.children }

let of_clauses vocab clauses =
  if clauses = [] then invalid_arg "Grammar.of_clauses: empty clause list";
  let root =
    List.fold_left
      (fun root clause ->
        let tokens = Vocab.encode vocab clause in
        if tokens = [] then
          invalid_arg
            (Printf.sprintf "Grammar.of_clauses: clause %S has no tokens" clause);
        insert root tokens)
      empty_node clauses
  in
  { root; sep = Vocab.sep vocab; eos = Vocab.eos vocab }

let start t = { node = t.root; clauses_done = 0; finished = false }

let allowed t ~min_clauses ~max_clauses state =
  if state.finished then []
  else begin
    let within = List.map fst (Imap.bindings state.node.children) in
    let boundary =
      if not state.node.terminal then []
      else begin
        let completed = state.clauses_done + 1 in
        (if completed < max_clauses then [ t.sep ] else [])
        @ (if completed >= min_clauses then [ t.eos ] else [])
      end
    in
    within @ boundary
  end

let advance t state tok =
  if state.finished then None
  else
    match Imap.find_opt tok state.node.children with
    | Some child -> Some { state with node = child }
    | None ->
        if state.node.terminal && tok = t.sep then
          Some { node = t.root; clauses_done = state.clauses_done + 1; finished = false }
        else if state.node.terminal && tok = t.eos then
          Some { state with clauses_done = state.clauses_done + 1; finished = true }
        else None

let is_final _t state = state.finished

let tokens_of_steps vocab steps =
  let encoded = List.map (Vocab.encode vocab) steps in
  let rec join = function
    | [] -> []
    | [ last ] -> last @ [ Vocab.eos vocab ]
    | s :: rest -> s @ (Vocab.sep vocab :: join rest)
  in
  join encoded

let steps_of_tokens vocab tokens =
  let rec split current acc = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | tok :: rest ->
        if tok = Vocab.sep vocab || tok = Vocab.eos vocab then
          split [] (List.rev current :: acc) rest
        else split (tok :: current) acc rest
  in
  split [] [] tokens
  |> List.filter (fun l -> l <> [])
  |> List.map (Vocab.decode vocab)

let accepts t ~min_clauses ~max_clauses tokens =
  let rec go state = function
    | [] -> state.finished
    | tok :: rest -> (
        if not (List.mem tok (allowed t ~min_clauses ~max_clauses state)) then false
        else
          match advance t state tok with
          | Some state' -> go state' rest
          | None -> false)
  in
  go (start t) tokens
