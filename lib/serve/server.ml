(* The request scheduler: admission -> continuous execution.

   [jobs] worker domains pop requests from the bounded {!Admission}
   queue one at a time, each refilling its in-flight slot the moment its
   previous request completes, so a slow request never holds back the
   queue behind it.  Per-request deadlines are checked at dequeue: an
   expired request is answered [Expired] and never executed, so a
   backed-up queue sheds load instead of burning workers on answers
   nobody is waiting for.  [drain] closes admission, lets the workers
   finish everything already queued, and joins them — in-flight requests
   always complete.

   Every phase is instrumented through {!Dpoaf_exec.Metrics} (counters,
   latency histograms, the queue-depth gauge) and, when tracing is on,
   each request becomes a [serve.request] span with [serve.queue_wait]
   and [serve.execute] children — recorded retroactively via
   {!Dpoaf_exec.Trace.record_span} because the phases straddle
   domains. *)

module Metrics = Dpoaf_exec.Metrics
module Trace = Dpoaf_exec.Trace
module Json = Dpoaf_util.Json

type config = {
  jobs : int;
  max_batch : int;
  flush_ms : float;
  queue_capacity : int;
}

let default_config =
  { jobs = 1; max_batch = 32; flush_ms = 5.0; queue_capacity = 256 }

type ticket = {
  req : Protocol.request;
  submitted : float;
  deadline : float option;  (* absolute, seconds *)
  parent_span : int;
  on_done : (Protocol.response -> unit) option;
  mutable response : Protocol.response option;
  tmutex : Mutex.t;
  tcond : Condition.t;
}

type t = {
  config : config;
  label : string option;
  handler : Protocol.request -> Protocol.body;
  queue : ticket Admission.t;
  mutable workers : unit Domain.t list;
  state_mutex : Mutex.t;
  mutable draining : bool;
  journal : Journal.t option;
  in_flight : int Atomic.t;  (* requests executing *)
  admitted : int Atomic.t;  (* instance-local: the shared serve.accepted
                               counter sums every shard *)
  in_flight_g : Metrics.gauge;
  requests_c : Metrics.counter option;  (* per-shard twin, labelled only *)
}

(* ---------------- instrumentation ---------------- *)

let accepted_c = Metrics.counter "serve.accepted"
let rejected_c = Metrics.counter "serve.rejected"
let expired_c = Metrics.counter "serve.expired"
let completed_c = Metrics.counter "serve.completed"
let errors_c = Metrics.counter "serve.errors"
let queue_wait_h = Metrics.histogram "serve.queue_wait"
let execute_h = Metrics.histogram "serve.execute"
let latency_h = Metrics.histogram "serve.latency"

let kind_name = function
  | Protocol.Generate _ -> "generate"
  | Protocol.Verify _ -> "verify"
  | Protocol.Score_pair _ -> "score_pair"
  | Protocol.Refine _ -> "refine"
  | Protocol.Stats _ -> "stats"
  | Protocol.Health _ -> "health"

let journal_event journal ev attrs =
  match journal with None -> () | Some j -> Journal.emit j ev attrs

(* labelled (sharded) servers stamp every journal event with their shard
   name so a merged journal can be split back out per replica *)
let shard_attrs label attrs =
  match label with
  | None -> attrs
  | Some l -> ("shard", Dpoaf_util.Json.str l) :: attrs

(* ---------------- ticket completion ---------------- *)

let complete ticket response =
  Mutex.lock ticket.tmutex;
  ticket.response <- Some response;
  Condition.broadcast ticket.tcond;
  Mutex.unlock ticket.tmutex;
  match ticket.on_done with None -> () | Some f -> f response

let record_request_spans ticket ~t_dequeue ~t_exec_start ~t_end body =
  if Trace.enabled () then begin
    let attrs =
      [
        ("req", ticket.req.Protocol.id);
        ("kind", kind_name ticket.req.Protocol.kind);
        ("status", Protocol.status_of_body body);
      ]
    in
    let rid =
      Trace.record_span ~cat:"serve" ~attrs ~parent:ticket.parent_span
        "serve.request" ~t0:ticket.submitted ~t1:t_end
    in
    ignore
      (Trace.record_span ~cat:"serve" ~parent:rid "serve.queue_wait"
         ~t0:ticket.submitted ~t1:t_dequeue);
    if t_end > t_exec_start then
      ignore
        (Trace.record_span ~cat:"serve" ~parent:rid "serve.execute"
           ~t0:t_exec_start ~t1:t_end)
  end

let finish ticket ~t_dequeue ~t_exec_start ~t_end body =
  record_request_spans ticket ~t_dequeue ~t_exec_start ~t_end body;
  complete ticket
    {
      Protocol.rid = ticket.req.Protocol.id;
      rbody = body;
      queue_wait_us = (t_dequeue -. ticket.submitted) *. 1e6;
      execute_us = (t_end -. t_exec_start) *. 1e6;
    }

(* ---------------- workers ---------------- *)

let expired_at ~t_dequeue ticket =
  match ticket.deadline with Some d -> t_dequeue > d | None -> false

let expire_ticket t ~t_dequeue ticket =
  Metrics.incr expired_c;
  journal_event t.journal "serve.expire"
    (shard_attrs t.label
       [
         ("id", Json.str ticket.req.Protocol.id);
         ("waited_ms", Json.num ((t_dequeue -. ticket.submitted) *. 1e3));
       ]);
  finish ticket ~t_dequeue ~t_exec_start:t_dequeue ~t_end:t_dequeue
    Protocol.Expired

let execute_ticket t ~t_dequeue ticket =
  let t_exec_start = Unix.gettimeofday () in
  let body =
    try t.handler ticket.req with e -> Protocol.Failed (Printexc.to_string e)
  in
  let t_end = Unix.gettimeofday () in
  Metrics.observe execute_h (t_end -. t_exec_start);
  Metrics.observe latency_h (t_end -. ticket.submitted);
  Metrics.incr completed_c;
  (match body with Protocol.Failed _ -> Metrics.incr errors_c | _ -> ());
  journal_event t.journal "serve.request"
    (shard_attrs t.label
       [
         ("id", Json.str ticket.req.Protocol.id);
         ("kind", Json.str (kind_name ticket.req.Protocol.kind));
         ("status", Json.str (Protocol.status_of_body body));
         ("queue_wait_us", Json.num ((t_dequeue -. ticket.submitted) *. 1e6));
         ("execute_us", Json.num ((t_end -. t_exec_start) *. 1e6));
       ]);
  finish ticket ~t_dequeue ~t_exec_start ~t_end body

let set_in_flight t = Metrics.set_gauge t.in_flight_g (float_of_int (Atomic.get t.in_flight))

(* each worker holds one in-flight slot and refills it the moment its
   previous request completes *)
let rec worker_loop t =
  match Admission.pop_one t.queue with
  | None -> ()
  | Some ticket ->
      let t_dequeue = Unix.gettimeofday () in
      Atomic.incr t.in_flight;
      set_in_flight t;
      Fun.protect
        ~finally:(fun () ->
          Atomic.decr t.in_flight;
          set_in_flight t)
        (fun () ->
          Metrics.observe queue_wait_h (t_dequeue -. ticket.submitted);
          if expired_at ~t_dequeue ticket then expire_ticket t ~t_dequeue ticket
          else execute_ticket t ~t_dequeue ticket);
      worker_loop t

(* ---------------- public API ---------------- *)

(* [batching] is accepted and ignored, as are [config.max_batch] and
   [config.flush_ms]: continuous is the only scheduler *)
let create ?(config = default_config) ?batching:_ ?label ?journal ~handler ()
    =
  if config.jobs < 1 then invalid_arg "Server.create: jobs must be >= 1";
  (* an unlabelled server registers its gauges under [serve.*]; a labelled
     (sharded) one gets per-shard twins alongside the shared process-wide
     counters/histograms, which all shards still feed *)
  let prefix =
    match label with None -> "serve" | Some l -> "serve." ^ l
  in
  let t =
    {
      config;
      label;
      handler;
      queue =
        Admission.create ~capacity:config.queue_capacity
          ~gauge_name:(prefix ^ ".queue.depth");
      workers = [];
      state_mutex = Mutex.create ();
      draining = false;
      journal;
      in_flight = Atomic.make 0;
      admitted = Atomic.make 0;
      in_flight_g = Metrics.gauge (prefix ^ ".in_flight");
      requests_c =
        (match label with
        | None -> None
        | Some _ -> Some (Metrics.counter (prefix ^ ".requests")));
    }
  in
  t.workers <-
    List.init config.jobs (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let config t = t.config
let label t = t.label
let admitted t = Atomic.get t.admitted

type health = { queue_depth : int; in_flight_batches : int; draining : bool }

let health t =
  Mutex.lock t.state_mutex;
  let draining = t.draining in
  Mutex.unlock t.state_mutex;
  {
    queue_depth = Admission.depth t.queue;
    in_flight_batches = Atomic.get t.in_flight;
    draining;
  }

let submit_async ?on_done t req =
  let submitted = Unix.gettimeofday () in
  let ticket =
    {
      req;
      submitted;
      deadline =
        Option.map (fun ms -> submitted +. (ms /. 1000.0)) req.Protocol.deadline_ms;
      parent_span = Trace.current ();
      on_done;
      response = None;
      tmutex = Mutex.create ();
      tcond = Condition.create ();
    }
  in
  if Admission.try_push t.queue ticket then begin
    Metrics.incr accepted_c;
    Atomic.incr t.admitted;
    match t.requests_c with Some c -> Metrics.incr c | None -> ()
  end
  else begin
    Metrics.incr rejected_c;
    let reason =
      if t.draining then "server draining"
      else
        Printf.sprintf "queue full (capacity %d)" t.config.queue_capacity
    in
    journal_event t.journal "serve.reject"
      (shard_attrs t.label
         [ ("id", Json.str req.Protocol.id); ("reason", Json.str reason) ]);
    complete ticket
      {
        Protocol.rid = req.Protocol.id;
        rbody = Protocol.Rejected reason;
        queue_wait_us = 0.0;
        execute_us = 0.0;
      }
  end;
  ticket

let await ticket =
  Mutex.lock ticket.tmutex;
  while ticket.response = None do
    Condition.wait ticket.tcond ticket.tmutex
  done;
  let r = Option.get ticket.response in
  Mutex.unlock ticket.tmutex;
  r

let peek ticket =
  Mutex.lock ticket.tmutex;
  let r = ticket.response in
  Mutex.unlock ticket.tmutex;
  r

let submit t req = await (submit_async t req)

let drain t =
  journal_event t.journal "serve.drain"
    (shard_attrs t.label
       [ ("queue_depth", Json.num (float_of_int (Admission.depth t.queue))) ]);
  Mutex.lock t.state_mutex;
  t.draining <- true;
  let workers = t.workers in
  t.workers <- [];
  Mutex.unlock t.state_mutex;
  Admission.close t.queue;
  List.iter Domain.join workers
