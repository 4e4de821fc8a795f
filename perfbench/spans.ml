(* Reading the benchmark's own spans back: per-name durations and self
   times (a span's duration minus the part its child spans cover). *)

module Trace = Dpoaf_exec.Trace

let cat = "perfbench"

let collect () =
  List.filter (fun (e : Trace.event) -> e.Trace.cat = cat) (Trace.events ())

(* Start a traced phase: drop what set-up recorded and trace from here.
   (Re-enabling after [Trace.disable] moves the trace epoch, so spans
   from before and after would not share a time base.) *)
let start () =
  Trace.reset ();
  Trace.enable ()

type summary = {
  durations : (string, float list) Hashtbl.t;  (** µs, per call *)
  self : (string, float) Hashtbl.t;  (** µs, summed over calls *)
}

let summarize events =
  let child_time = Hashtbl.create 256 in
  List.iter
    (fun (e : Trace.event) ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt child_time e.Trace.parent) in
      Hashtbl.replace child_time e.Trace.parent (prev +. e.Trace.dur_us))
    events;
  let durations = Hashtbl.create 32 and self = Hashtbl.create 32 in
  List.iter
    (fun (e : Trace.event) ->
      let n = e.Trace.name in
      let prev = Option.value ~default:[] (Hashtbl.find_opt durations n) in
      Hashtbl.replace durations n (e.Trace.dur_us :: prev);
      let covered = Option.value ~default:0.0 (Hashtbl.find_opt child_time e.Trace.id) in
      let s = Option.value ~default:0.0 (Hashtbl.find_opt self n) in
      Hashtbl.replace self n (s +. e.Trace.dur_us -. covered))
    events;
  { durations; self }

let durations s name = Option.value ~default:[] (Hashtbl.find_opt s.durations name)

let median_us s name =
  match durations s name with [] -> 0.0 | ds -> Stat.median ds

let total_us s name = List.fold_left ( +. ) 0.0 (durations s name)

let self_total_us s =
  Hashtbl.fold (fun _ v acc -> acc +. v) s.self 0.0

(* The per-op self-time table, largest first, for the human reader. *)
let print_self_table s ~ops ~wall_us =
  let rows =
    Hashtbl.fold (fun n v acc -> (n, v) :: acc) s.self []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  Printf.eprintf "self time per op (wall %.1f us per op):\n" (wall_us /. float_of_int ops);
  List.iter
    (fun (n, v) ->
      Printf.eprintf "  %-28s %10.1f us  %5.1f%%\n" n
        (v /. float_of_int ops) (100.0 *. v /. wall_us))
    rows

(* Pretraining happens in set-up, before any measured phase. *)
let pretrain_s () = total_us (summarize (collect ())) "lm.pretrain" /. 1e6
