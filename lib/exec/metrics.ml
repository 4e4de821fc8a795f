(* Process-wide instrumentation registry.

   Counters are atomic so worker domains can bump them without taking a
   lock; timers accumulate wall-clock seconds under the registry mutex
   (timed sections are coarse, so contention is negligible); histograms
   keep log-bucketed latency distributions under a per-histogram mutex so
   hot observation paths (per-response scoring, per-rollout timing) do not
   contend with the registry.  External sources (e.g. cache statistics)
   register a thunk and are sampled when a summary is produced. *)

type counter = int Atomic.t

type timer = { mutable total : float; mutable count : int }

(* Log-bucketed histogram: bucket [i] (for [i > 0]) covers values in
   [10^((i-1+lo)/10), 10^((i+lo)/10)); bucket 0 collects v <= lowest bound.
   Ten buckets per decade bounds any percentile estimate within a factor of
   10^(1/10) ≈ 1.26 of the true order statistic; tracking the exact min and
   max tightens the tails. *)
type histogram = {
  buckets : int array;
  mutable hcount : int;
  mutable sum : float;
  mutable minv : float;
  mutable maxv : float;
  hmutex : Mutex.t;
}

(* exponent range: 1e-9 .. 1e6 (tenths of decades) *)
let lo_exp = -90
let hi_exp = 60
let nbuckets = hi_exp - lo_exp + 1 (* plus the underflow bucket at index 0 *)

let bucket_base = 10.0 ** 0.1

(* Gauges are levels (queue depth, in-flight requests): last write wins,
   no accumulation.  A boxed-float atomic keeps sets lock-free from any
   domain. *)
type gauge = float Atomic.t

type entry =
  | Counter of counter
  | Timer of timer
  | Histogram of histogram
  | Gauge of gauge

let kind_name = function
  | Counter _ -> "counter"
  | Timer _ -> "timer"
  | Histogram _ -> "histogram"
  | Gauge _ -> "gauge"

let mutex = Mutex.create ()
let entries : (string, entry) Hashtbl.t = Hashtbl.create 32
let sources : (string * (unit -> (string * float) list)) list ref = ref []

let with_lock f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

(* Satellite fix: asking for a name already registered as another kind used
   to report only one side; now the error names both the requested and the
   existing kind. *)
let collision ~requested name existing =
  invalid_arg
    (Printf.sprintf
       "Metrics.%s: %S is already registered as a %s (counters, timers and \
        histograms share one namespace)"
       requested name (kind_name existing))

let counter name =
  with_lock (fun () ->
      match Hashtbl.find_opt entries name with
      | Some (Counter c) -> c
      | Some other -> collision ~requested:"counter" name other
      | None ->
          let c = Atomic.make 0 in
          Hashtbl.add entries name (Counter c);
          c)

let incr c = Atomic.incr c
let add c n = ignore (Atomic.fetch_and_add c n)
let value c = Atomic.get c

let gauge name =
  with_lock (fun () ->
      match Hashtbl.find_opt entries name with
      | Some (Gauge g) -> g
      | Some other -> collision ~requested:"gauge" name other
      | None ->
          let g = Atomic.make 0.0 in
          Hashtbl.add entries name (Gauge g);
          g)

let set_gauge g v = Atomic.set g v
let gauge_value g = Atomic.get g

let timer_entry name =
  with_lock (fun () ->
      match Hashtbl.find_opt entries name with
      | Some (Timer t) -> t
      | Some other -> collision ~requested:"time" name other
      | None ->
          let t = { total = 0.0; count = 0 } in
          Hashtbl.add entries name (Timer t);
          t)

let time name f =
  (* intern up front so a name collision raises before [f] runs, not
     wrapped in Finally_raised *)
  let t = timer_entry name in
  let t0 = Unix.gettimeofday () in
  Fun.protect f ~finally:(fun () ->
      let seconds = Unix.gettimeofday () -. t0 in
      with_lock (fun () ->
          t.total <- t.total +. seconds;
          t.count <- t.count + 1))

(* ---------------- histograms ---------------- *)

let histogram name =
  with_lock (fun () ->
      match Hashtbl.find_opt entries name with
      | Some (Histogram h) -> h
      | Some other -> collision ~requested:"histogram" name other
      | None ->
          let h =
            {
              buckets = Array.make (nbuckets + 1) 0;
              hcount = 0;
              sum = 0.0;
              minv = Float.infinity;
              maxv = Float.neg_infinity;
              hmutex = Mutex.create ();
            }
          in
          Hashtbl.add entries name (Histogram h);
          h)

let bucket_of v =
  if v <= 0.0 then 0
  else
    let e = int_of_float (Float.floor (10.0 *. Float.log10 v)) in
    let e = if e < lo_exp then lo_exp - 1 else if e > hi_exp then hi_exp else e in
    e - lo_exp + 1

let observe h v =
  Mutex.lock h.hmutex;
  h.buckets.(bucket_of v) <- h.buckets.(bucket_of v) + 1;
  h.hcount <- h.hcount + 1;
  h.sum <- h.sum +. v;
  if v < h.minv then h.minv <- v;
  if v > h.maxv then h.maxv <- v;
  Mutex.unlock h.hmutex

(* Upper bound of bucket [i]'s value range. *)
let bucket_upper i =
  if i = 0 then 0.0 else 10.0 ** (float_of_int (i + lo_exp) /. 10.0)

(* Nearest-rank percentile from the bucket counts, clamped to the observed
   [min, max] so the extreme quantiles stay exact. *)
let percentile_locked h q =
  if h.hcount = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int h.hcount))) in
    let est = ref h.maxv in
    let cum = ref 0 in
    (try
       Array.iteri
         (fun i c ->
           cum := !cum + c;
           if !cum >= rank then begin
             est := bucket_upper i;
             raise Exit
           end)
         h.buckets
     with Exit -> ());
    Float.max h.minv (Float.min h.maxv !est)
  end

let percentile h q =
  Mutex.lock h.hmutex;
  let v = percentile_locked h q in
  Mutex.unlock h.hmutex;
  v

let histogram_items h =
  Mutex.lock h.hmutex;
  let items =
    if h.hcount = 0 then [ ("count", 0.0) ]
    else
      [
        ("count", float_of_int h.hcount);
        ("sum", h.sum);
        ("min", h.minv);
        ("max", h.maxv);
        ("p50", percentile_locked h 0.50);
        ("p90", percentile_locked h 0.90);
        ("p99", percentile_locked h 0.99);
      ]
  in
  Mutex.unlock h.hmutex;
  items

(* ---------------- exportable snapshots ---------------- *)

module Json = Dpoaf_util.Json

(* Lower bound of bucket [i]'s value range.  The underflow bucket reports
   both bounds as 0, matching its percentile estimate. *)
let bucket_lower i =
  if i = 0 then 0.0 else 10.0 ** (float_of_int (i - 1 + lo_exp) /. 10.0)

type hist_snapshot = {
  count : int;
  sum : float;
  min : float;
  max : float;
  buckets : (float * float * int) list;
}

let snapshot_locked (h : histogram) : hist_snapshot =
  let bs = ref [] in
  for i = Array.length h.buckets - 1 downto 0 do
    let c = h.buckets.(i) in
    if c > 0 then bs := (bucket_lower i, bucket_upper i, c) :: !bs
  done;
  {
    count = h.hcount;
    sum = h.sum;
    min = (if h.hcount = 0 then 0.0 else h.minv);
    max = (if h.hcount = 0 then 0.0 else h.maxv);
    buckets = !bs;
  }

let snapshot h =
  Mutex.lock h.hmutex;
  let s = snapshot_locked h in
  Mutex.unlock h.hmutex;
  s

let histogram_snapshots () =
  let hists =
    with_lock (fun () ->
        Hashtbl.fold
          (fun name entry acc ->
            match entry with Histogram h -> (name, h) :: acc | _ -> acc)
          entries [])
  in
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (List.map (fun (name, h) -> (name, snapshot h)) hists)

let snapshot_percentile (s : hist_snapshot) q =
  if s.count = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank =
      Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int s.count)))
    in
    let est = ref s.max in
    let cum = ref 0 in
    (try
       List.iter
         (fun (_, upper, c) ->
           cum := !cum + c;
           if !cum >= rank then begin
             est := upper;
             raise Exit
           end)
         s.buckets
     with Exit -> ());
    Float.max s.min (Float.min s.max !est)
  end

let merge_snapshots (a : hist_snapshot) (b : hist_snapshot) : hist_snapshot =
  (* both bucket lists ascend; bucket identity is the bound pair *)
  let rec merge xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> rest
    | ((xl, xu, xc) as x) :: xs', ((yl, yu, yc) as y) :: ys' ->
        if xl = yl && xu = yu then (xl, xu, xc + yc) :: merge xs' ys'
        else if xu < yu then x :: merge xs' ys
        else y :: merge xs ys'
  in
  if a.count = 0 then b
  else if b.count = 0 then a
  else
    {
      count = a.count + b.count;
      sum = a.sum +. b.sum;
      min = Float.min a.min b.min;
      max = Float.max a.max b.max;
      buckets = merge a.buckets b.buckets;
    }

let diff_snapshots (newer : hist_snapshot) (older : hist_snapshot) :
    hist_snapshot =
  (* both bucket lists ascend; bucket identity is the bound pair.  [older]
     must be an earlier snapshot of the same histogram, so its buckets are
     a subset of [newer]'s with counts no larger. *)
  let rec sub xs ys =
    match (xs, ys) with
    | rest, [] -> rest
    | [], _ -> []
    | ((xl, xu, xc) as x) :: xs', (yl, yu, yc) :: ys' ->
        if xl = yl && xu = yu then
          let c = xc - yc in
          if c > 0 then (xl, xu, c) :: sub xs' ys' else sub xs' ys'
        else if xu < yu then x :: sub xs' ys
        else sub xs ys'
  in
  if older.count = 0 then newer
  else begin
    let buckets = sub newer.buckets older.buckets in
    let count = Stdlib.max 0 (newer.count - older.count) in
    (* exact window extremes are not recoverable from cumulative state;
       the surviving buckets' bounds are the tightest honest envelope *)
    let min, max =
      match (buckets, List.rev buckets) with
      | (lo, _, _) :: _, (_, hi, _) :: _ ->
          (Float.max lo newer.min, Float.min hi newer.max)
      | _ -> (0.0, 0.0)
    in
    { count; sum = newer.sum -. older.sum; min; max; buckets }
  end

let json_of_snapshot (s : hist_snapshot) =
  Json.obj
    [
      ("count", Json.num (float_of_int s.count));
      ("sum", Json.num s.sum);
      ("min", Json.num s.min);
      ("max", Json.num s.max);
      ("p50", Json.num (snapshot_percentile s 0.50));
      ("p90", Json.num (snapshot_percentile s 0.90));
      ("p99", Json.num (snapshot_percentile s 0.99));
      ( "buckets",
        Json.arr
          (List.map
             (fun (lo, hi, c) ->
               Json.arr [ Json.num lo; Json.num hi; Json.num (float_of_int c) ])
             s.buckets) );
    ]

let snapshot_of_json j =
  let ( let* ) = Result.bind in
  let num_field name =
    match Option.bind (Json.member name j) Json.to_float with
    | Some v -> Ok v
    | None ->
        Error (Printf.sprintf "histogram snapshot field %S must be a number" name)
  in
  let* count = num_field "count" in
  let* count =
    if Json.is_int count then Ok (int_of_float count)
    else Error "histogram snapshot field \"count\" must be an integer"
  in
  let* sum = num_field "sum" in
  let* minv = num_field "min" in
  let* maxv = num_field "max" in
  let* buckets =
    match Json.member "buckets" j with
    | Some (Json.Arr items) ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | it :: rest -> (
              match Json.to_list it with
              | Some [ jlo; jhi; jc ] -> (
                  match
                    (Json.to_float jlo, Json.to_float jhi, Json.to_float jc)
                  with
                  | Some lo, Some hi, Some c when Json.is_int c ->
                      go ((lo, hi, int_of_float c) :: acc) rest
                  | Some _, Some _, Some _ ->
                      Error "histogram snapshot bucket counts must be integers"
                  | _ ->
                      Error
                        "histogram snapshot buckets must be [lower, upper, \
                         count] number triples")
              | _ ->
                  Error
                    "histogram snapshot buckets must be [lower, upper, count] \
                     triples")
        in
        go [] items
    | _ -> Error "histogram snapshot field \"buckets\" must be an array"
  in
  Ok { count; sum; min = minv; max = maxv; buckets }

let runtime_gauges () =
  (* [Gc.stat] walks the heap (it triggers a major collection) — acceptable
     at ops-query frequency, and the only way to get exact live words. *)
  let st = Gc.stat () in
  let ctrl = Gc.get () in
  [
    ("gc.minor_heap_words", float_of_int ctrl.Gc.minor_heap_size);
    ("gc.minor_collections", float_of_int st.Gc.minor_collections);
    ("gc.major_collections", float_of_int st.Gc.major_collections);
    ("gc.compactions", float_of_int st.Gc.compactions);
    ("gc.heap_words", float_of_int st.Gc.heap_words);
    ("gc.live_words", float_of_int st.Gc.live_words);
    ("gc.top_heap_words", float_of_int st.Gc.top_heap_words);
  ]

(* ---------------- summary ---------------- *)

let register_source name f =
  with_lock (fun () ->
      sources := (name, f) :: List.remove_assoc name !sources)

let summary () =
  let base =
    with_lock (fun () ->
        Hashtbl.fold
          (fun name entry acc ->
            match entry with
            | Counter c -> (name, float_of_int (Atomic.get c)) :: acc
            | Timer t ->
                (name ^ ".seconds", t.total) :: (name ^ ".calls", float_of_int t.count)
                :: acc
            | Gauge g -> (name ^ ".level", Atomic.get g) :: acc
            | Histogram _ -> acc)
          entries [])
  in
  (* histogram percentiles take the per-histogram mutex, so they are sampled
     outside the registry lock *)
  let hists =
    with_lock (fun () ->
        Hashtbl.fold
          (fun name entry acc ->
            match entry with Histogram h -> (name, h) :: acc | _ -> acc)
          entries [])
  in
  let hist_items =
    List.concat_map
      (fun (name, h) ->
        List.map (fun (k, v) -> (name ^ "." ^ k, v)) (histogram_items h))
      hists
  in
  let srcs = with_lock (fun () -> !sources) in
  let derived =
    List.concat_map
      (fun (name, f) -> List.map (fun (k, v) -> (name ^ "." ^ k, v)) (f ()))
      srcs
  in
  List.sort (fun (a, _) (b, _) -> compare a b) (base @ hist_items @ derived)

(* Scoped instrumentation without global resets: subtract a snapshot taken
   before a section from one taken after it.  Keys absent from [before]
   count from zero; quantile/min/max keys are passed through as their
   [after] value (a difference of order statistics is meaningless). *)
let delta before after =
  let passthrough k =
    match String.rindex_opt k '.' with
    | None -> false
    | Some i -> (
        match String.sub k (i + 1) (String.length k - i - 1) with
        | "p50" | "p90" | "p99" | "min" | "max" | "size" | "level" -> true
        | _ -> false)
  in
  List.map
    (fun (k, v_after) ->
      if passthrough k then (k, v_after)
      else
        match List.assoc_opt k before with
        | Some v_before -> (k, v_after -. v_before)
        | None -> (k, v_after))
    after

let reset () =
  with_lock (fun () ->
      Hashtbl.iter
        (fun _ entry ->
          match entry with
          | Counter c -> Atomic.set c 0
          | Gauge g -> Atomic.set g 0.0
          | Timer t ->
              t.total <- 0.0;
              t.count <- 0
          | Histogram h ->
              Mutex.lock h.hmutex;
              Array.fill h.buckets 0 (Array.length h.buckets) 0;
              h.hcount <- 0;
              h.sum <- 0.0;
              h.minv <- Float.infinity;
              h.maxv <- Float.neg_infinity;
              Mutex.unlock h.hmutex)
        entries)

let src = Logs.Src.create "dpoaf.exec" ~doc:"DPO-AF execution engine"

let pp_items ppf items =
  Fmt.list ~sep:Fmt.cut
    (fun ppf (k, v) ->
      if Float.is_integer v && Float.abs v < 1e15 then
        Fmt.pf ppf "  %-40s %.0f" k v
      else Fmt.pf ppf "  %-40s %.6f" k v)
    ppf items

let report () =
  let items = summary () in
  Logs.app ~src (fun m -> m "@[<v>execution metrics:@,%a@]" pp_items items)

let json_of_items items =
  let b = Buffer.create 256 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '"';
      String.iter
        (fun c ->
          if c = '"' || c = '\\' then Buffer.add_char b '\\';
          Buffer.add_char b c)
        k;
      Buffer.add_string b "\":";
      if Float.is_nan v || Float.abs v = Float.infinity then
        Buffer.add_string b "null"
      else if Float.is_integer v && Float.abs v < 1e15 then
        Buffer.add_string b (Printf.sprintf "%.0f" v)
      else Buffer.add_string b (Printf.sprintf "%.6f" v))
    items;
  Buffer.add_char b '}';
  Buffer.contents b

let to_json () =
  let base = json_of_items (summary ()) in
  let snaps =
    List.filter (fun (_, s) -> s.buckets <> []) (histogram_snapshots ())
  in
  if snaps = [] then base
  else begin
    (* splice one "NAME.buckets" array per non-empty histogram into the flat
       object so offline analysis can recompute percentiles exactly *)
    let b = Buffer.create (String.length base + 256) in
    Buffer.add_string b (String.sub base 0 (String.length base - 1));
    List.iter
      (fun (name, s) ->
        Buffer.add_char b ',';
        Buffer.add_string b (Json.to_string (Json.str (name ^ ".buckets")));
        Buffer.add_char b ':';
        Buffer.add_string b
          (Json.to_string
             (Json.arr
                (List.map
                   (fun (lo, hi, c) ->
                     Json.arr
                       [ Json.num lo; Json.num hi; Json.num (float_of_int c) ])
                   s.buckets))))
      snaps;
    Buffer.add_char b '}';
    Buffer.contents b
  end
