(* The serving path the workloads drive: wire decode -> Router (two
   single-worker shards) -> Server -> handler -> wire encode, fed by a
   closed loop that keeps a fixed number of requests outstanding.  The
   loop plays the daemon's part without a socket: decoding request lines
   and encoding responses happen on the calling domain. *)

module SP = Dpoaf_serve.Protocol
module Server = Dpoaf_serve.Server
module Router = Dpoaf_serve.Router
module Trace = Dpoaf_exec.Trace

let shards = 2

type t = {
  router : Router.t;
  servers : Server.t array;
  handler_words : int Atomic.t;
      (* minor words allocated inside handlers: Gc.minor_words counts only
         the calling domain, and handlers run on the shards' domains *)
}

(* [handler i] serves shard [i]. *)
let create handler =
  let handler_words = Atomic.make 0 in
  let servers =
    Array.init shards (fun i ->
        let h = handler i in
        Server.create
          ~config:
            { Server.jobs = 1; max_batch = 1; flush_ms = 0.0;
              queue_capacity = 64 }
          ~batching:`Continuous ~label:(Router.shard_name i)
          ~handler:(fun req ->
            let w0 = Gc.minor_words () in
            let body = h req in
            ignore
              (Atomic.fetch_and_add handler_words
                 (int_of_float (Gc.minor_words () -. w0)));
            body)
          ())
  in
  { router = Router.create servers; servers; handler_words }

let drain t = Router.drain t.router
let admitted t = Array.map Server.admitted t.servers

type served = {
  request : SP.request;
  response : SP.response;
  wire : string;  (** the encoded response line *)
  decode_s : float;
  roundtrip_s : float;  (** submission to pick-up by the loop *)
  encode_s : float;
}

(* Serve [lines] in a closed loop with at most [outstanding] requests in
   flight; results come back in input order.  With [traced], decode,
   round trip and encode are recorded as spans. *)
let run ?(traced = false) t ~outstanding lines =
  let n = Array.length lines in
  let m = Mutex.create () and c = Condition.create () in
  let finished = Queue.create () in
  let pending = Array.make n None in
  let out = Array.make n None in
  let span name f = if traced then Trace.with_span ~cat:"perfbench" name f else f () in
  let next = ref 0 and in_flight = ref 0 and completed = ref 0 in
  while !completed < n do
    while !in_flight < outstanding && !next < n do
      let i = !next in
      incr next;
      let t0 = Stat.now () in
      let request =
        span "serve.decode" (fun () ->
            match SP.request_of_string lines.(i) with
            | Ok r -> r
            | Error e -> failwith ("request line does not decode: " ^ e))
      in
      let t1 = Stat.now () in
      pending.(i) <- Some (request, t1 -. t0, t1);
      incr in_flight;
      ignore
        (Router.submit_async
           ~on_done:(fun resp ->
             Mutex.lock m;
             Queue.push (i, resp) finished;
             Condition.signal c;
             Mutex.unlock m)
           t.router request
          : Server.ticket)
    done;
    Mutex.lock m;
    while Queue.is_empty finished do
      Condition.wait c m
    done;
    let i, response = Queue.pop finished in
    Mutex.unlock m;
    let t2 = Stat.now () in
    decr in_flight;
    let request, decode_s, submitted = Option.get pending.(i) in
    if traced then
      ignore
        (Trace.record_span ~cat:"perfbench" "serve.roundtrip" ~t0:submitted
           ~t1:t2
          : int);
    let wire = span "serve.encode" (fun () -> SP.response_to_string response) in
    let encode_s = Stat.now () -. t2 in
    out.(i) <-
      Some { request; response; wire; decode_s; roundtrip_s = t2 -. submitted;
             encode_s };
    incr completed
  done;
  Array.map Option.get out
