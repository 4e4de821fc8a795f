(* Perf gate: compares perfbench result lines with a pinned baseline.

     perf_gate BASELINE RESULTS_DIR

   RESULTS_DIR/<workload>.json holds the last stdout line of

     bash perfbench/run.sh --workload <workload> --seed 1 --seconds 1 --trace 0

   for every workload the baseline names.  Each workload must answer
   [correct] with no failed operation, and each pinned metric must match
   its baseline entry, which takes one of three forms:

     {"value": v, "rel": r}      |x - v| <= r * v
     {"value": v, "abs": a}      |x - v| <= a
     {"value": v, "max_rel": r}  x <= v * (1 + r)   (lower is better)

   Only metrics that do not depend on run length at a fixed seed belong
   in the baseline; see the perf-gate target in the Makefile.  On any
   mismatch the gate names the workload and metric and exits 1; when
   every answer check passed and every metric was present, it also
   prints the baseline that the measured values would pin.  A missing
   or malformed file exits 2. *)

module Json = Dpoaf_util.Json

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perf-gate: " ^ msg);
      exit 2)
    fmt

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> die "%s" msg
  | s -> (
      match Json.parse (String.trim s) with
      | Ok j -> j
      | Error msg -> die "%s: malformed JSON: %s" path msg)

let fields path = function
  | Json.Obj kvs -> kvs
  | _ -> die "%s: expected an object" path

type tolerance = Rel of float | Abs of float | Max_rel of float

let tolerance_of path name entry =
  let num k = Option.bind (Json.member k entry) Json.to_float in
  let tol =
    match (num "rel", num "abs", num "max_rel") with
    | Some r, None, None -> Rel r
    | None, Some a, None -> Abs a
    | None, None, Some r -> Max_rel r
    | _ -> die "%s: %s needs exactly one of rel, abs, max_rel" path name
  in
  match num "value" with
  | Some v -> (v, tol)
  | None -> die "%s: %s has no value" path name

let within x (v, tol) =
  match tol with
  | Rel r -> Float.abs (x -. v) <= r *. Float.abs v
  | Abs a -> Float.abs (x -. v) <= a
  | Max_rel r -> x <= v *. (1.0 +. r)

let describe = function
  | Rel r -> Printf.sprintf "within %g%%" (r *. 100.0)
  | Abs a -> Printf.sprintf "within %g" a
  | Max_rel r -> Printf.sprintf "at most +%g%%" (r *. 100.0)

let num_string v = Json.to_string (Json.Num v)

(* the baseline file's own layout, one metric per line *)
let render workloads =
  let entry (name, (v, tol)) =
    let t =
      match tol with
      | Rel r -> Printf.sprintf "\"rel\": %s" (num_string r)
      | Abs a -> Printf.sprintf "\"abs\": %s" (num_string a)
      | Max_rel r -> Printf.sprintf "\"max_rel\": %s" (num_string r)
    in
    Printf.sprintf "    %S: {\"value\": %s, %s}" name (num_string v) t
  in
  let workload (w, checks) =
    match checks with
    | [] -> Printf.sprintf "  %S: {}" w
    | _ ->
        Printf.sprintf "  %S: {\n%s\n  }" w
          (String.concat ",\n" (List.map entry checks))
  in
  Printf.sprintf "{\n%s\n}\n" (String.concat ",\n" (List.map workload workloads))

let () =
  let baseline_path, results_dir =
    match Sys.argv with
    | [| _; b; r |] -> (b, r)
    | _ -> die "usage: perf_gate BASELINE RESULTS_DIR"
  in
  let baseline =
    List.map
      (fun (w, checks) ->
        ( w,
          List.map
            (fun (m, e) -> (m, tolerance_of baseline_path (w ^ " " ^ m) e))
            (fields baseline_path checks) ))
      (fields baseline_path (read_json baseline_path))
  in
  let failures = ref [] in
  (* a broken run (failed checks, missing metrics) pins nothing *)
  let broken = ref false in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let break fmt =
    broken := true;
    fail fmt
  in
  let measured =
    List.map
      (fun (w, checks) ->
        let path = Filename.concat results_dir (w ^ ".json") in
        let result = read_json path in
        (match Json.member "correct" result with
        | Some (Json.Bool true) -> ()
        | _ -> break "%s correct: the workload's answer checks did not pass" w);
        (match Option.bind (Json.member "failed" result) Json.to_float with
        | Some 0.0 -> ()
        | Some n -> break "%s failed: %g failed operations, pinned 0" w n
        | None -> break "%s failed: missing from %s" w path);
        ( w,
          List.map
            (fun (m, ((v, tol) as pinned)) ->
              let x =
                Option.bind (Json.member "metrics" result) (fun ms ->
                    Option.bind (Json.member m ms) (fun e ->
                        Option.bind (Json.member "value" e) Json.to_float))
              in
              match x with
              | None ->
                  break "%s %s: missing from %s" w m path;
                  (m, pinned)
              | Some x ->
                  if within x pinned then
                    Printf.printf "perf-gate: ok %s %s: %s (pinned %s, %s)\n%!"
                      w m (num_string x) (num_string v) (describe tol)
                  else
                    fail "%s %s: measured %s, pinned %s (%+.2f%%), must be %s"
                      w m (num_string x) (num_string v)
                      ((x -. v) /. v *. 100.0)
                      (describe tol);
                  (m, (x, tol)))
            checks ))
      baseline
  in
  match List.rev !failures with
  | [] ->
      Printf.printf "perf-gate: pass (%d workloads match %s)\n"
        (List.length baseline) baseline_path
  | fs ->
      List.iter (Printf.eprintf "perf-gate: MISMATCH %s\n") fs;
      if !broken then prerr_endline "perf-gate: fail"
      else
        Printf.eprintf
          "perf-gate: fail. If the change is intended, replace %s with:\n%s"
          baseline_path (render measured);
      exit 1
