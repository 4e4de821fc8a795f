open Dpoaf_exec

(* ---------------- pool lifecycle ---------------- *)

let test_pool_create_teardown () =
  let pool = Pool.create ~jobs:3 in
  Alcotest.(check int) "slots" 3 (Pool.jobs pool);
  let out = Pool.map_on_pool pool (fun x -> x * x) [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check (list int)) "squares" [ 1; 4; 9; 16; 25 ] out;
  Pool.shutdown pool;
  (* idempotent *)
  Pool.shutdown pool;
  Alcotest.(check bool) "submit after shutdown raises" true
    (try
       ignore (Pool.map_on_pool pool (fun x -> x) [ 1; 2; 3 ]);
       false
     with Invalid_argument _ -> true)

let test_pool_rejects_zero_jobs () =
  Alcotest.(check bool) "jobs < 1 rejected" true
    (try ignore (Pool.create ~jobs:0); false
     with Invalid_argument _ -> true)

let test_order_preserved () =
  let xs = List.init 100 Fun.id in
  let expected = List.mapi (fun i x -> (i, 3 * x)) xs in
  let got = Pool.parallel_mapi ~jobs:4 (fun i x -> (i, 3 * x)) xs in
  Alcotest.(check bool) "slots by input index" true (got = expected)

let test_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" []
    (Pool.parallel_map ~jobs:4 (fun x -> x) []);
  Alcotest.(check (list int)) "singleton" [ 7 ]
    (Pool.parallel_map ~jobs:4 (fun x -> x + 1) [ 6 ])

exception Boom of int

let test_exception_propagates () =
  let pool = Pool.create ~jobs:4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  Alcotest.(check bool) "worker exception reaches caller" true
    (try
       ignore
         (Pool.map_on_pool pool
            (fun x -> if x = 5 then raise (Boom x) else x)
            (List.init 10 Fun.id));
       false
     with Boom 5 -> true);
  (* the batch completed: the pool is still usable afterwards *)
  Alcotest.(check (list int)) "pool survives the failure" [ 2; 4; 6 ]
    (Pool.map_on_pool pool (fun x -> 2 * x) [ 1; 2; 3 ])

let test_nested_fallback () =
  (* a parallel_map issued from inside a worker must not deadlock *)
  let out =
    Pool.parallel_map ~jobs:4
      (fun x ->
        List.fold_left ( + ) 0
          (Pool.parallel_map ~jobs:4 (fun y -> x * y) [ 1; 2; 3 ]))
      (List.init 8 Fun.id)
  in
  Alcotest.(check (list int)) "nested result"
    (List.init 8 (fun x -> 6 * x))
    out

let test_default_pool_setting () =
  let before = Pool.default_jobs () in
  Pool.set_default_jobs 2;
  Alcotest.(check int) "default updated" 2 (Pool.default_jobs ());
  let out = Pool.parallel_map (fun x -> x + 10) [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "uses shared pool" [ 11; 12; 13 ] out;
  Pool.set_default_jobs before

(* ---------------- cache ---------------- *)

let test_cache_hit_miss () =
  let cache = Cache.create ~name:"test.hitmiss" () in
  let calls = ref 0 in
  let get k = Cache.find_or_add cache k (fun () -> incr calls; k * 2) in
  Alcotest.(check int) "computed" 10 (get 5);
  Alcotest.(check int) "cached" 10 (get 5);
  Alcotest.(check int) "other key" 14 (get 7);
  Alcotest.(check int) "computation ran twice" 2 !calls;
  let s = Cache.stats cache in
  Alcotest.(check int) "hits" 1 s.Cache.hits;
  Alcotest.(check int) "misses" 2 s.Cache.misses;
  Alcotest.(check int) "size" 2 s.Cache.size;
  Alcotest.(check (float 1e-9)) "hit rate" (1.0 /. 3.0) (Cache.hit_rate cache)

let test_cache_eviction () =
  let cache = Cache.create ~capacity:3 ~name:"test.evict" () in
  List.iter (fun k -> Cache.add cache k (10 * k)) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "bounded" 3 (Cache.length cache);
  let s = Cache.stats cache in
  Alcotest.(check int) "evictions" 2 s.Cache.evictions;
  (* no hits in between, so LRU degenerates to insertion order: 1 and 2
     are gone, 3..5 remain *)
  Alcotest.(check (option int)) "evicted" None (Cache.find_opt cache 1);
  Alcotest.(check (option int)) "kept" (Some 50) (Cache.find_opt cache 5)

let test_cache_lru_promotion () =
  let cache = Cache.create ~capacity:3 ~name:"test.lru" () in
  List.iter (fun k -> Cache.add cache k (10 * k)) [ 1; 2; 3 ];
  (* re-hit the oldest key: 2 becomes the eviction candidate, not 1 *)
  Alcotest.(check (option int)) "hit on oldest" (Some 10)
    (Cache.find_opt cache 1);
  Cache.add cache 4 40;
  Alcotest.(check (option int)) "re-hit key survives" (Some 10)
    (Cache.find_opt cache 1);
  Alcotest.(check (option int)) "colder key evicted" None
    (Cache.find_opt cache 2);
  Alcotest.(check int) "still bounded" 3 (Cache.length cache);
  Alcotest.(check int) "one eviction" 1 (Cache.stats cache).Cache.evictions;
  (* find_or_add also promotes: touch 3, then push two new keys *)
  ignore (Cache.find_or_add cache 3 (fun () -> assert false));
  Cache.add cache 5 50;
  Cache.add cache 6 60;
  Alcotest.(check (option int)) "promoted by find_or_add" (Some 30)
    (Cache.find_opt cache 3);
  Alcotest.(check (option int)) "unpromoted gone" None (Cache.find_opt cache 4)

let test_cache_concurrent_agreement () =
  (* many domains racing on the same keys: every reader sees the
     deterministic value of its key *)
  let cache = Cache.create ~name:"test.race" () in
  let out =
    Pool.parallel_map ~jobs:4
      (fun i ->
        let k = i mod 5 in
        Cache.find_or_add cache k (fun () -> k * k))
      (List.init 40 Fun.id)
  in
  Alcotest.(check bool) "all values deterministic" true
    (List.for_all2 (fun i v -> v = (i mod 5) * (i mod 5))
       (List.init 40 Fun.id) out);
  Alcotest.(check int) "at most 5 entries" 5 (Cache.length cache)

(* ---------------- metrics ---------------- *)

let test_metrics_counters_and_timers () =
  let c = Metrics.counter "test.counter" in
  let base = Metrics.value c in
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "counter arithmetic" (base + 5) (Metrics.value c);
  let r = Metrics.time "test.timer" (fun () -> 42) in
  Alcotest.(check int) "timer returns result" 42 r;
  let summary = Metrics.summary () in
  Alcotest.(check bool) "timer calls in summary" true
    (List.mem_assoc "test.timer.calls" summary);
  Alcotest.(check bool) "counter in summary" true
    (List.mem_assoc "test.counter" summary);
  let contains hay needle =
    let h = String.length hay and n = String.length needle in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "json mentions counter" true
    (contains (Metrics.to_json ()) {|"test.counter"|})

let test_metrics_name_collision () =
  let _ = Metrics.counter "test.collide.counter" in
  let _ = Metrics.histogram "test.collide.histogram" in
  let expect_invalid kind f =
    match f () with
    | exception Invalid_argument msg ->
        let contains hay needle =
          let h = String.length hay and n = String.length needle in
          let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s message names the existing kind (%s)" kind msg)
          true
          (contains msg "already registered")
    | _ -> Alcotest.failf "%s: expected Invalid_argument" kind
  in
  expect_invalid "counter as timer" (fun () ->
      Metrics.time "test.collide.counter" (fun () -> ()));
  expect_invalid "counter as histogram" (fun () ->
      ignore (Metrics.histogram "test.collide.counter"));
  expect_invalid "histogram as counter" (fun () ->
      ignore (Metrics.counter "test.collide.histogram"));
  expect_invalid "histogram as timer" (fun () ->
      Metrics.time "test.collide.histogram" (fun () -> ()))

let test_metrics_gauge () =
  let g = Metrics.gauge "test.gauge.depth" in
  Metrics.set_gauge g 7.0;
  Alcotest.(check (float 0.0)) "level readback" 7.0 (Metrics.gauge_value g);
  Alcotest.(check (option (float 0.0))) "summary key" (Some 7.0)
    (List.assoc_opt "test.gauge.depth.level" (Metrics.summary ()));
  (* last write wins, and delta passes the level through undiffed *)
  let before = Metrics.summary () in
  Metrics.set_gauge g 3.0;
  Metrics.set_gauge g 5.0;
  let d = Metrics.delta before (Metrics.summary ()) in
  Alcotest.(check (option (float 0.0))) "delta passthrough" (Some 5.0)
    (List.assoc_opt "test.gauge.depth.level" d);
  Alcotest.(check bool) "same name as counter rejected" true
    (try ignore (Metrics.counter "test.gauge.depth"); false
     with Invalid_argument _ -> true)

let test_metrics_histogram_summary () =
  let h = Metrics.histogram "test.hist.basic" in
  List.iter (Metrics.observe h) [ 0.001; 0.002; 0.004; 0.008; 0.1 ];
  let summary = Metrics.summary () in
  let get k = List.assoc ("test.hist.basic." ^ k) summary in
  Alcotest.(check (float 1e-9)) "count" 5.0 (get "count");
  Alcotest.(check (float 1e-9)) "min exact" 0.001 (get "min");
  Alcotest.(check (float 1e-9)) "max exact" 0.1 (get "max");
  Alcotest.(check (float 1e-9)) "sum" 0.115 (get "sum");
  Alcotest.(check bool) "p50 within a bucket of the median" true
    (get "p50" >= 0.004 && get "p50" <= 0.004 *. Metrics.bucket_base);
  Alcotest.(check (float 1e-9)) "p99 clamps to max" 0.1 (get "p99")

let test_metrics_delta () =
  let c = Metrics.counter "test.delta.counter" in
  let h = Metrics.histogram "test.delta.hist" in
  Metrics.observe h 0.5;
  let before = Metrics.summary () in
  Metrics.add c 7;
  Metrics.observe h 2.0;
  let d = Metrics.delta before (Metrics.summary ()) in
  Alcotest.(check (float 1e-9)) "counter differenced" 7.0
    (List.assoc "test.delta.counter" d);
  Alcotest.(check (float 1e-9)) "histogram count differenced" 1.0
    (List.assoc "test.delta.hist.count" d);
  (* order statistics pass through as their current value *)
  Alcotest.(check (float 1e-9)) "max passed through" 2.0
    (List.assoc "test.delta.hist.max" d);
  Alcotest.(check bool) "absent keys count from zero" true
    (let c2 = Metrics.counter "test.delta.late" in
     Metrics.incr c2;
     List.assoc "test.delta.late" (Metrics.delta before (Metrics.summary ()))
     = 1.0)

let test_metrics_snapshot () =
  let h = Metrics.histogram "test.hist.snap" in
  List.iter (Metrics.observe h) [ 0.001; 0.002; 0.004; 0.008; 0.1 ];
  let s = Metrics.snapshot h in
  Alcotest.(check int) "count" 5 s.Metrics.count;
  Alcotest.(check (float 1e-9)) "sum" 0.115 s.Metrics.sum;
  Alcotest.(check (float 1e-9)) "min" 0.001 s.Metrics.min;
  Alcotest.(check (float 1e-9)) "max" 0.1 s.Metrics.max;
  Alcotest.(check bool) "only non-empty buckets exported" true
    (List.for_all (fun (_, _, c) -> c > 0) s.Metrics.buckets);
  Alcotest.(check int) "bucket counts sum to count" 5
    (List.fold_left (fun acc (_, _, c) -> acc + c) 0 s.Metrics.buckets);
  Alcotest.(check bool) "bucket bounds are ordered" true
    (List.for_all (fun (lo, hi, _) -> lo < hi) s.Metrics.buckets);
  (match (s.Metrics.buckets, List.rev s.Metrics.buckets) with
  | (lo, _, _) :: _, (_, hi, _) :: _ ->
      Alcotest.(check bool) "first bucket brackets min" true (lo <= 0.001);
      Alcotest.(check bool) "last bucket brackets max" true (hi >= 0.1)
  | _ -> Alcotest.fail "no buckets exported");
  (* snapshot percentiles agree with the live estimator *)
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "snapshot p%.0f = live" (q *. 100.0))
        (Metrics.percentile h q)
        (Metrics.snapshot_percentile s q))
    [ 0.5; 0.9; 0.99 ];
  (* JSON round-trip preserves the whole snapshot *)
  match Metrics.snapshot_of_json (Metrics.json_of_snapshot s) with
  | Error e -> Alcotest.fail ("snapshot_of_json: " ^ e)
  | Ok s' -> Alcotest.(check bool) "json round-trip" true (s = s')

let test_metrics_runtime_gauges () =
  let g = Metrics.runtime_gauges () in
  let get k =
    match List.assoc_opt k g with
    | Some v -> v
    | None -> Alcotest.failf "runtime_gauges missing %s" k
  in
  Alcotest.(check bool) "heap words positive" true (get "gc.heap_words" > 0.0);
  Alcotest.(check bool) "live words positive" true (get "gc.live_words" > 0.0);
  Alcotest.(check bool) "minor heap configured" true
    (get "gc.minor_heap_words" > 0.0);
  List.iter
    (fun k -> Alcotest.(check bool) (k ^ " present") true (get k >= 0.0))
    [ "gc.minor_collections"; "gc.major_collections" ]

(* ---------------- tracing ---------------- *)

let find_span name spans =
  List.find (fun (e : Trace.event) -> e.Trace.name = name) spans

let test_trace_disabled_is_free () =
  Trace.disable ();
  Trace.reset ();
  let r = Trace.with_span "not.recorded" (fun () -> 41 + 1) in
  Alcotest.(check int) "thunk result" 42 r;
  Alcotest.(check int) "nothing buffered" 0 (List.length (Trace.events ()))

let test_trace_nesting_and_parents () =
  Trace.reset ();
  Trace.enable ();
  Fun.protect ~finally:Trace.disable @@ fun () ->
  let inner_seen = ref (-2) in
  Trace.with_span ~cat:"t" "outer" (fun () ->
      Trace.with_span ~cat:"t" "inner" (fun () -> inner_seen := Trace.current ()));
  let spans = Trace.events () in
  Alcotest.(check int) "two spans" 2 (List.length spans);
  let outer = find_span "outer" spans and inner = find_span "inner" spans in
  Alcotest.(check int) "outer is a root" (-1) outer.Trace.parent;
  Alcotest.(check int) "inner parented to outer" outer.Trace.id inner.Trace.parent;
  Alcotest.(check int) "current () inside inner" inner.Trace.id !inner_seen;
  Alcotest.(check bool) "inner starts after outer" true
    (inner.Trace.ts_us >= outer.Trace.ts_us);
  Alcotest.(check bool) "inner contained in outer" true
    (inner.Trace.ts_us +. inner.Trace.dur_us
     <= outer.Trace.ts_us +. outer.Trace.dur_us +. 1.0)

let test_trace_spans_cross_pool jobs () =
  Trace.reset ();
  Trace.enable ();
  Fun.protect ~finally:Trace.disable @@ fun () ->
  let n = 6 in
  let out =
    Trace.with_span ~cat:"t" "batch" (fun () ->
        Pool.parallel_map ~jobs
          (fun i -> Trace.with_span ~cat:"t" "item" (fun () -> i * i))
          (List.init n Fun.id))
  in
  Alcotest.(check (list int)) "results" (List.init n (fun i -> i * i)) out;
  let spans = Trace.events () in
  let batch = find_span "batch" spans in
  let items = List.filter (fun (e : Trace.event) -> e.Trace.name = "item") spans in
  Alcotest.(check int) "one span per item" n (List.length items);
  List.iter
    (fun (e : Trace.event) ->
      Alcotest.(check int)
        (Printf.sprintf "item on tid %d parented to batch" e.Trace.tid)
        batch.Trace.id e.Trace.parent;
      Alcotest.(check bool) "item within batch window" true
        (e.Trace.ts_us >= batch.Trace.ts_us
        && e.Trace.ts_us +. e.Trace.dur_us
           <= batch.Trace.ts_us +. batch.Trace.dur_us +. 1.0))
    items;
  (* events are sorted by start time *)
  let starts = List.map (fun (e : Trace.event) -> e.Trace.ts_us) spans in
  Alcotest.(check bool) "sorted by ts" true
    (starts = List.sort compare starts)

(* a disable/enable gap keeps the epoch: the span recorded after the gap
   starts after the one recorded before it ends *)
let test_trace_reenable_keeps_epoch () =
  Trace.reset ();
  Trace.enable ();
  (Fun.protect ~finally:Trace.disable @@ fun () ->
   Trace.with_span ~cat:"t" "before" (fun () -> Unix.sleepf 0.002));
  Unix.sleepf 0.002;
  Trace.enable ();
  (Fun.protect ~finally:Trace.disable @@ fun () ->
   Trace.with_span ~cat:"t" "after" (fun () -> ()));
  let spans = Trace.events () in
  let before = find_span "before" spans and after = find_span "after" spans in
  Alcotest.(check bool) "second span starts after the first ends" true
    (after.Trace.ts_us >= before.Trace.ts_us +. before.Trace.dur_us)

let test_trace_jsonl_roundtrip () =
  Trace.reset ();
  Trace.enable ();
  (Fun.protect ~finally:Trace.disable @@ fun () ->
   Trace.with_span ~cat:"t" ~attrs:[ ("k", "v") ] "rt" (fun () -> ()));
  let path = Filename.temp_file "dpoaf_trace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Trace.write_jsonl path;
  let reader = Trace.read_jsonl path in
  let rt = find_span "rt" reader.Trace.spans in
  Alcotest.(check string) "attr round-trips" "v" (List.assoc "k" rt.Trace.attrs);
  Alcotest.(check string) "cat round-trips" "t" rt.Trace.cat;
  Alcotest.(check bool) "metrics line present" true (reader.Trace.metrics <> [])

(* ---------------- qcheck: parallel_map = List.map ---------------- *)

let prop_parallel_map_pure k =
  QCheck.Test.make ~count:50
    ~name:(Printf.sprintf "parallel_map ~jobs:%d = List.map" k)
    QCheck.(list small_int)
    (fun xs ->
      let f x = (x * x) + 7 in
      Pool.parallel_map ~jobs:k f xs = List.map f xs)

let prop_parallel_mapi_pure k =
  QCheck.Test.make ~count:50
    ~name:(Printf.sprintf "parallel_mapi ~jobs:%d = List.mapi" k)
    QCheck.(list small_int)
    (fun xs ->
      let f i x = i + (2 * x) in
      Pool.parallel_mapi ~jobs:k f xs = List.mapi f xs)

(* histogram percentiles vs a sorted-list nearest-rank oracle: the
   log-bucketed estimate must bracket the exact order statistic within one
   bucket's growth factor *)
let hist_counter = ref 0

let prop_histogram_percentile =
  let positive = QCheck.Gen.map (fun x -> 1e-6 +. (x *. 1e4)) (QCheck.Gen.float_bound_exclusive 1.0) in
  QCheck.Test.make ~count:100 ~name:"histogram percentile brackets oracle"
    (QCheck.make
       ~print:QCheck.Print.(list float)
       QCheck.Gen.(list_size (int_range 1 200) positive))
    (fun xs ->
      incr hist_counter;
      let h =
        Metrics.histogram (Printf.sprintf "test.hist.prop%d" !hist_counter)
      in
      List.iter (Metrics.observe h) xs;
      let sorted = Array.of_list xs in
      Array.sort compare sorted;
      let n = Array.length sorted in
      List.for_all
        (fun q ->
          let oracle =
            sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))
          in
          let est = Metrics.percentile h q in
          oracle <= est && est <= oracle *. Metrics.bucket_base)
        [ 0.5; 0.9; 0.99 ])

(* merging snapshots is monotone: counts never decrease, the bound pairs
   of both inputs survive verbatim, and count/sum aggregate exactly *)
let prop_snapshot_merge_monotone =
  let positive = QCheck.Gen.map (fun x -> 1e-6 +. (x *. 1e4)) (QCheck.Gen.float_bound_exclusive 1.0) in
  let samples = QCheck.Gen.(list_size (int_range 0 100) positive) in
  QCheck.Test.make ~count:100
    ~name:"snapshot merge is monotone (counts grow, bounds stable)"
    (QCheck.make
       ~print:QCheck.Print.(pair (list float) (list float))
       (QCheck.Gen.pair samples samples))
    (fun (xs, ys) ->
      let snap vs =
        incr hist_counter;
        let h =
          Metrics.histogram (Printf.sprintf "test.hist.merge%d" !hist_counter)
        in
        List.iter (Metrics.observe h) vs;
        Metrics.snapshot h
      in
      let a = snap xs and b = snap ys in
      let m = Metrics.merge_snapshots a b in
      let count_at s (lo, hi) =
        List.fold_left
          (fun acc (l, u, c) -> if l = lo && u = hi then acc + c else acc)
          0 s.Metrics.buckets
      in
      let bounds s = List.map (fun (l, u, _) -> (l, u)) s.Metrics.buckets in
      m.Metrics.count = a.Metrics.count + b.Metrics.count
      && abs_float (m.Metrics.sum -. (a.Metrics.sum +. b.Metrics.sum)) < 1e-9
      && List.for_all
           (fun bd -> count_at m bd >= count_at a bd && count_at m bd >= count_at b bd)
           (bounds m)
      && List.for_all (fun bd -> List.mem bd (bounds m)) (bounds a)
      && List.for_all (fun bd -> List.mem bd (bounds m)) (bounds b)
      && List.fold_left (fun acc (_, _, c) -> acc + c) 0 m.Metrics.buckets
         = m.Metrics.count
      (* merging with an empty snapshot is the identity *)
      && Metrics.merge_snapshots a (snap []) = a
      && Metrics.merge_snapshots (snap []) b = b)

(* diff_snapshots recovers exactly the window between two snapshots of
   one histogram: bucket-for-bucket it equals a fresh histogram fed only
   the second batch (what loadgen relies on to give each sweep level its
   own percentiles), and diffing a snapshot against itself is empty *)
let prop_snapshot_diff_window =
  let positive = QCheck.Gen.map (fun x -> 1e-6 +. (x *. 1e4)) (QCheck.Gen.float_bound_exclusive 1.0) in
  let samples = QCheck.Gen.(list_size (int_range 0 100) positive) in
  QCheck.Test.make ~count:100
    ~name:"snapshot diff recovers the inter-snapshot window"
    (QCheck.make
       ~print:QCheck.Print.(pair (list float) (list float))
       (QCheck.Gen.pair samples samples))
    (fun (xs, ys) ->
      let fresh vs =
        incr hist_counter;
        let h =
          Metrics.histogram (Printf.sprintf "test.hist.diff%d" !hist_counter)
        in
        List.iter (Metrics.observe h) vs;
        h
      in
      let h = fresh xs in
      let a = Metrics.snapshot h in
      List.iter (Metrics.observe h) ys;
      let b = Metrics.snapshot h in
      let w = Metrics.diff_snapshots b a in
      let oracle = Metrics.snapshot (fresh ys) in
      let nonzero s =
        List.filter (fun (_, _, c) -> c > 0) s.Metrics.buckets
      in
      w.Metrics.count = List.length ys
      && abs_float (w.Metrics.sum -. oracle.Metrics.sum) < 1e-6
      && nonzero w = nonzero oracle
      && (Metrics.diff_snapshots b b).Metrics.count = 0
      && (Metrics.diff_snapshots b b).Metrics.buckets = [])

let qsuite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests)

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "create/teardown" `Quick test_pool_create_teardown;
          Alcotest.test_case "rejects jobs=0" `Quick test_pool_rejects_zero_jobs;
          Alcotest.test_case "order preserved" `Quick test_order_preserved;
          Alcotest.test_case "empty and singleton" `Quick test_empty_and_singleton;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagates;
          Alcotest.test_case "nested fallback" `Quick test_nested_fallback;
          Alcotest.test_case "shared default pool" `Quick test_default_pool_setting;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss accounting" `Quick test_cache_hit_miss;
          Alcotest.test_case "bounded eviction" `Quick test_cache_eviction;
          Alcotest.test_case "LRU promotion" `Quick test_cache_lru_promotion;
          Alcotest.test_case "concurrent agreement" `Quick
            test_cache_concurrent_agreement;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and timers" `Quick
            test_metrics_counters_and_timers;
          Alcotest.test_case "name collision" `Quick test_metrics_name_collision;
          Alcotest.test_case "gauge" `Quick test_metrics_gauge;
          Alcotest.test_case "histogram summary" `Quick
            test_metrics_histogram_summary;
          Alcotest.test_case "delta" `Quick test_metrics_delta;
          Alcotest.test_case "histogram snapshot" `Quick test_metrics_snapshot;
          Alcotest.test_case "runtime gauges" `Quick
            test_metrics_runtime_gauges;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled is free" `Quick test_trace_disabled_is_free;
          Alcotest.test_case "nesting and parents" `Quick
            test_trace_nesting_and_parents;
          Alcotest.test_case "spans cross pool (jobs=1)" `Quick
            (test_trace_spans_cross_pool 1);
          Alcotest.test_case "spans cross pool (jobs=4)" `Quick
            (test_trace_spans_cross_pool 4);
          Alcotest.test_case "re-enable keeps the epoch" `Quick
            test_trace_reenable_keeps_epoch;
          Alcotest.test_case "jsonl roundtrip" `Quick test_trace_jsonl_roundtrip;
        ] );
      qsuite "properties"
        (List.concat_map
           (fun k -> [ prop_parallel_map_pure k; prop_parallel_mapi_pure k ])
           [ 1; 2; 4 ]
        @ [
            prop_histogram_percentile;
            prop_snapshot_merge_monotone;
            prop_snapshot_diff_window;
          ]);
    ]
