(* Clocks, order statistics and process counters shared by the workloads. *)

let now = Unix.gettimeofday

(* Nearest-rank quantile of a non-empty sample. *)
let quantile q xs =
  match xs with
  | [] -> invalid_arg "Stat.quantile: empty sample"
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) i))

let median xs = quantile 0.5 xs

(* The statistic every time metric reports over the repeats of its unit
   of work: the fastest repeat.  On a shared two-core box the median of
   repeated identical work moves with contention phases that last
   seconds, and even the 10th percentile moved by 15% from run to run,
   while the fastest repeat moved by about 7%: contention only ever slows
   a repeat down. *)
let low_time xs = quantile 0.0 xs

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Peak resident set of this process in MiB ([VmHWM] in the kernel's
   per-process status file). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:"
          ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %f kB"
              (fun kb -> kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "VmHWM not reported"
      in
      scan ())

(* User plus system CPU seconds of this process, all domains. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Minor and major collections so far (process-wide in OCaml 5). *)
let collections () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)

(* A stderr line describing the spread of a sample, for the reader. *)
let describe label xs =
  Printf.eprintf "%s: n=%d min %.6g p10 %.6g p50 %.6g p90 %.6g\n%!" label
    (List.length xs) (quantile 0.0 xs) (quantile 0.1 xs) (median xs)
    (quantile 0.9 xs)
