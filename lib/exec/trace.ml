(* Hierarchical span tracing across worker domains.

   Each domain owns a private event buffer (reached through domain-local
   storage) that only it mutates under its own small mutex; buffers are
   registered in a global list at first use so a flush can collect them
   all.  Span nesting is tracked per domain through a DLS cell holding the
   innermost open span id; {!Pool} captures the submitting domain's current
   span before a batch and re-installs it around every task, so spans
   recorded inside workers hang off the span that issued the batch.

   Tracing is off by default: [with_span] then degenerates to running the
   thunk (two atomic loads), so instrumented hot paths cost nothing
   measurable when no [--trace] flag is given.

   Timestamps come from [Unix.gettimeofday] (there is no monotonic clock in
   the OCaml standard library); they are rebased onto the trace epoch — the
   first [enable], or the last [reset] — and exported in microseconds, the unit of
   the Chrome trace-event format. *)

module Json = Dpoaf_util.Json

type event = {
  id : int;
  parent : int;  (* -1 for a root span *)
  name : string;
  cat : string;
  tid : int;  (* numeric domain id *)
  ts_us : float;  (* start, µs since the trace epoch *)
  dur_us : float;
  attrs : (string * string) list;
}

let enabled_flag = Atomic.make false
let epoch = Atomic.make 0.0 (* 0.0 until the first [enable] or [reset] *)
let next_id = Atomic.make 0

type buffer = { mutable events : event list; bmutex : Mutex.t }

let buffers : buffer list ref = ref []
let buffers_mutex = Mutex.create ()

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b = { events = []; bmutex = Mutex.create () } in
      Mutex.lock buffers_mutex;
      buffers := b :: !buffers;
      Mutex.unlock buffers_mutex;
      b)

(* innermost open span id of this domain; a ref cell so nesting restores are
   in-place writes, not DLS updates *)
let current_key = Domain.DLS.new_key (fun () -> ref (-1))

let enabled () = Atomic.get enabled_flag

(* Re-enabling after [disable] keeps the epoch: spans from both sides of
   the gap share one buffer, so they must share one time base too. *)
let enable () =
  if not (Atomic.get enabled_flag) then begin
    if Atomic.get epoch = 0.0 then Atomic.set epoch (Unix.gettimeofday ());
    Atomic.set enabled_flag true
  end

let disable () = Atomic.set enabled_flag false

let reset () =
  Mutex.lock buffers_mutex;
  let bs = !buffers in
  Mutex.unlock buffers_mutex;
  List.iter
    (fun b ->
      Mutex.lock b.bmutex;
      b.events <- [];
      Mutex.unlock b.bmutex)
    bs;
  Atomic.set next_id 0;
  Atomic.set epoch (Unix.gettimeofday ())

let current () = if enabled () then !(Domain.DLS.get current_key) else -1

let with_parent parent f =
  if not (enabled ()) then f ()
  else begin
    let cell = Domain.DLS.get current_key in
    let saved = !cell in
    cell := parent;
    Fun.protect ~finally:(fun () -> cell := saved) f
  end

let record ev =
  let b = Domain.DLS.get buffer_key in
  Mutex.lock b.bmutex;
  b.events <- ev :: b.events;
  Mutex.unlock b.bmutex

let with_span ?(cat = "") ?(attrs = []) name f =
  if not (enabled ()) then f ()
  else begin
    let cell = Domain.DLS.get current_key in
    let parent = !cell in
    let id = Atomic.fetch_and_add next_id 1 in
    cell := id;
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      cell := parent;
      record
        {
          id;
          parent;
          name;
          cat;
          tid = (Domain.self () :> int);
          ts_us = (t0 -. Atomic.get epoch) *. 1e6;
          dur_us = (t1 -. t0) *. 1e6;
          attrs;
        }
    in
    Fun.protect ~finally:finish f
  end

(* Retroactive recording: a completed phase whose start and end were
   measured as plain [Unix.gettimeofday] timestamps, possibly on different
   domains (a request's queue wait starts on the submitter and ends on a
   worker).  The caller threads parent ids explicitly instead of relying
   on this domain's open-span nesting. *)
let record_span ?(cat = "") ?(attrs = []) ?(parent = -1) name ~t0 ~t1 =
  if not (enabled ()) then -1
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    record
      {
        id;
        parent;
        name;
        cat;
        tid = (Domain.self () :> int);
        ts_us = (t0 -. Atomic.get epoch) *. 1e6;
        dur_us = Float.max 0.0 (t1 -. t0) *. 1e6;
        attrs;
      };
    id
  end

let instant ?(cat = "") ?(attrs = []) name =
  if enabled () then begin
    let id = Atomic.fetch_and_add next_id 1 in
    record
      {
        id;
        parent = !(Domain.DLS.get current_key);
        name;
        cat;
        tid = (Domain.self () :> int);
        ts_us = (Unix.gettimeofday () -. Atomic.get epoch) *. 1e6;
        dur_us = 0.0;
        attrs;
      }
  end

let events () =
  Mutex.lock buffers_mutex;
  let bs = !buffers in
  Mutex.unlock buffers_mutex;
  let all =
    List.concat_map
      (fun b ->
        Mutex.lock b.bmutex;
        let evs = b.events in
        Mutex.unlock b.bmutex;
        evs)
      bs
  in
  List.sort (fun a b -> compare (a.ts_us, a.id) (b.ts_us, b.id)) all

(* ---------------- export ---------------- *)

let json_attrs attrs =
  Json.obj (List.map (fun (k, v) -> (k, Json.str v)) attrs)

let json_of_event ev =
  Json.obj
    [
      ("type", Json.str "span");
      ("id", Json.num (float_of_int ev.id));
      ("parent", Json.num (float_of_int ev.parent));
      ("name", Json.str ev.name);
      ("cat", Json.str (if ev.cat = "" then "span" else ev.cat));
      ("tid", Json.num (float_of_int ev.tid));
      ("ts_us", Json.num ev.ts_us);
      ("dur_us", Json.num ev.dur_us);
      ("attrs", json_attrs ev.attrs);
    ]

let event_of_json j =
  match
    ( Json.(member "id" j |> Option.map to_float),
      Json.(member "name" j |> Option.map to_str) )
  with
  | Some (Some id), Some (Some name) ->
      let f key default =
        match Json.member key j with
        | Some (Json.Num v) -> v
        | _ -> default
      in
      let s key default =
        match Json.member key j with Some (Json.Str v) -> v | _ -> default in
      let attrs =
        match Json.member "attrs" j with
        | Some (Json.Obj kvs) ->
            List.filter_map
              (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_str v))
              kvs
        | _ -> []
      in
      Some
        {
          id = int_of_float id;
          parent = int_of_float (f "parent" (-1.0));
          name;
          cat = s "cat" "span";
          tid = int_of_float (f "tid" 0.0);
          ts_us = f "ts_us" 0.0;
          dur_us = f "dur_us" 0.0;
          attrs;
        }
  | _ -> None

(* JSONL: one [{"type":"span",...}] object per line, terminated by a single
   [{"type":"metrics","data":{...}}] line carrying the Metrics summary, so
   a trace file is self-contained for [dpoaf_cli report]. *)
let write_jsonl path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun ev ->
      output_string oc (Json.to_string (json_of_event ev));
      output_char oc '\n')
    (events ());
  let metrics =
    Json.obj
      (List.map (fun (k, v) -> (k, Json.num v)) (Metrics.summary ()))
  in
  output_string oc
    (Json.to_string (Json.obj [ ("type", Json.str "metrics"); ("data", metrics) ]));
  output_char oc '\n'

(* Chrome trace-event format (the "JSON object format"), loadable by
   chrome://tracing and https://ui.perfetto.dev: complete "X" events with
   microsecond timestamps. *)
let chrome_json evs =
  let trace_events =
    List.map
      (fun ev ->
        Json.obj
          [
            ("name", Json.str ev.name);
            ("cat", Json.str (if ev.cat = "" then "span" else ev.cat));
            ("ph", Json.str "X");
            ("ts", Json.num ev.ts_us);
            ("dur", Json.num ev.dur_us);
            ("pid", Json.num 1.0);
            ("tid", Json.num (float_of_int ev.tid));
            ( "args",
              Json.obj
                (("span_id", Json.num (float_of_int ev.id))
                 :: ("parent", Json.num (float_of_int ev.parent))
                 :: List.map (fun (k, v) -> (k, Json.str v)) ev.attrs) );
          ])
      evs
  in
  Json.obj
    [
      ("traceEvents", Json.arr trace_events);
      ("displayTimeUnit", Json.str "ms");
    ]

let write_chrome path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc (Json.to_string (chrome_json (events ())));
  output_char oc '\n'

(* ---------------- reading traces back ---------------- *)

type reader = {
  spans : event list;  (* in timestamp order *)
  metrics : (string * float) list;  (* from the terminating metrics line *)
}

let read_jsonl path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let spans = ref [] in
  let metrics = ref [] in
  let lineno = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       if String.trim line <> "" then begin
         match Json.parse line with
         | Error msg ->
             failwith (Printf.sprintf "%s:%d: %s" path !lineno msg)
         | Ok j -> (
             match Json.(member "type" j |> Option.map to_str) with
             | Some (Some "span") -> (
                 match event_of_json j with
                 | Some ev -> spans := ev :: !spans
                 | None ->
                     failwith
                       (Printf.sprintf "%s:%d: span line missing id/name" path
                          !lineno))
             | Some (Some "metrics") ->
                 (match Json.member "data" j with
                 | Some (Json.Obj kvs) ->
                     metrics :=
                       List.filter_map
                         (fun (k, v) ->
                           Option.map (fun x -> (k, x)) (Json.to_float v))
                         kvs
                 | _ -> failwith (Printf.sprintf "%s:%d: bad metrics line" path !lineno))
             | _ ->
                 failwith
                   (Printf.sprintf "%s:%d: unknown telemetry line type" path
                      !lineno))
       end
     done
   with End_of_file -> ());
  {
    spans = List.sort (fun a b -> compare (a.ts_us, a.id) (b.ts_us, b.id)) !spans;
    metrics = !metrics;
  }
