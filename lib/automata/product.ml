module Symbol = Dpoaf_logic.Symbol

type pstate = { model_state : Ts.state; ctrl_state : Fsa.state }

type edge = {
  src : pstate;
  label : Symbol.t;
  action : Symbol.t;
  dst : pstate;
}

type t = {
  model : Ts.t;
  controller : Fsa.t;
  states : pstate list;
  edges : edge list;
  initial : pstate list;
  deadlocks : pstate list;
}

let build ~model ~controller =
  let initial =
    List.map (fun p -> { model_state = p; ctrl_state = controller.Fsa.init })
      model.Ts.initial
  in
  let seen = Hashtbl.create 64 in
  let edges = ref [] in
  let deadlocks = ref [] in
  let order = ref [] in
  let rec explore s =
    if not (Hashtbl.mem seen s) then begin
      Hashtbl.add seen s ();
      order := s :: !order;
      let sigma = Ts.label model s.model_state in
      let ctrl_moves = Fsa.enabled controller s.ctrl_state sigma in
      let model_moves = Ts.successors model s.model_state in
      let out =
        List.concat_map
          (fun (action, q') ->
            List.map
              (fun p' ->
                {
                  src = s;
                  label = Symbol.union sigma action;
                  action;
                  dst = { model_state = p'; ctrl_state = q' };
                })
              model_moves)
          ctrl_moves
      in
      if out = [] then deadlocks := s :: !deadlocks
      else begin
        edges := List.rev_append out !edges;
        List.iter (fun e -> explore e.dst) out
      end
    end
  in
  List.iter explore initial;
  {
    model;
    controller;
    states = List.rev !order;
    edges = List.rev !edges;
    initial;
    deadlocks = List.rev !deadlocks;
  }

let pp_pstate t ppf s =
  Format.fprintf ppf "(%s,%s)"
    t.model.Ts.state_names.(s.model_state)
    t.controller.Fsa.state_names.(s.ctrl_state)

let to_kripke t =
  (* Kripke state per product edge, plus a stuttering sink per deadlock. *)
  let edge_arr = Array.of_list t.edges in
  let n_edges = Array.length edge_arr in
  let sink_index = Hashtbl.create 8 in
  List.iteri
    (fun i s -> Hashtbl.add sink_index s (n_edges + i))
    t.deadlocks;
  let n = n_edges + List.length t.deadlocks in
  (* edges grouped by source product state for successor lookup *)
  let by_src = Hashtbl.create 64 in
  Array.iteri
    (fun i e ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_src e.src) in
      Hashtbl.replace by_src e.src (i :: prev))
    edge_arr;
  let node_successors s =
    match Hashtbl.find_opt by_src s with
    | Some l -> l
    | None -> (
        match Hashtbl.find_opt sink_index s with
        | Some k -> [ k ]
        | None -> [])
  in
  let labels = Array.make n Symbol.empty in
  let succs = Array.make n [] in
  let tags = Array.make n (-1) in
  Array.iteri
    (fun i e ->
      labels.(i) <- e.label;
      succs.(i) <- node_successors e.dst;
      tags.(i) <- e.src.ctrl_state)
    edge_arr;
  List.iter
    (fun s ->
      let k = Hashtbl.find sink_index s in
      labels.(k) <- Ts.label t.model s.model_state;
      succs.(k) <- [ k ];
      tags.(k) <- s.ctrl_state)
    t.deadlocks;
  let initial = List.concat_map node_successors t.initial in
  (* descriptions are formatted only when asked for (lasso states) *)
  let sinks = Array.of_list t.deadlocks in
  let descr k =
    if k < n_edges then
      let e = edge_arr.(k) in
      Format.asprintf "%a--%a->%a" (pp_pstate t) e.src Symbol.pp e.action
        (pp_pstate t) e.dst
    else Format.asprintf "%a (deadlock)" (pp_pstate t) sinks.(k - n_edges)
  in
  Kripke.make ~labels ~succs ~initial:(List.sort_uniq compare initial) ~descr ~tags ()
