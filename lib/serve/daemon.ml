(* The serving daemon: line-delimited JSON over a Unix domain socket and,
   optionally, a TCP listener on the same protocol.

   One [Unix.select] event loop owns all sockets; request execution lives
   entirely in the {!Router}'s replica servers.  Completion callbacks
   run on their worker domains, so each connection's outbox is a
   mutex-guarded buffer the responses are encoded straight into and the
   event loop flushes — and every enqueue
   writes one byte down a self-pipe whose read end sits in the select
   set, so a finished response wakes the loop immediately
   instead of waiting out a polling interval.  That wake-up is what lets
   the select timeout be adaptive: an idle daemon blocks for seconds
   (0.25 s when a journal/pref store needs periodic flushing, 5 s
   otherwise) rather than busy-polling at 200 Hz as the old fixed 5 ms
   timeout did.

   Shutdown is signal-driven: SIGINT/SIGTERM set a flag (and
   {!request_stop} also writes the wake byte, so a stop requested from
   another domain interrupts a long select), the loop stops accepting and
   reading, drains every shard (every admitted request still gets its
   response), flushes what the drain produced, and removes the socket
   file.

   The ops verbs ([stats], [health]) are answered synchronously from the
   event loop, ahead of every shard's admission queue: a daemon whose
   queues are full or whose workers are saturated still answers them on
   the next loop turn.  When a {!Journal} is attached, the loop flushes
   its ring once per turn so worker-domain emissions almost never touch
   the filesystem. *)

module Metrics = Dpoaf_exec.Metrics
module Json = Dpoaf_util.Json

type ops = {
  stats : domain:string option -> Protocol.body;
  health : domain:string option -> Protocol.body;
}

type stats = {
  connections : int;
  requests : int;
  responses : int;
  protocol_errors : int;
  outbox_overflows : int;
}

type client = {
  fd : Unix.file_descr;
  line : Buffer.t;  (* the current line's bytes received so far *)
  omutex : Mutex.t;
  outbox : Buffer.t;  (* response lines not yet taken for writing; omutex *)
  discard : bool Atomic.t;
      (* later responses are dropped: set when the outbox overflows (the
         loop then closes a live client) and when the loop closes one *)
  mutable sending : string;  (* the loop's: bytes taken from the outbox *)
  mutable sent : int;  (* how many of [sending] are written *)
  mutable closing : bool;  (* read no more; close once the outbox is sent *)
  mutable alive : bool;
}

let protocol_errors_c = Dpoaf_exec.Metrics.counter "serve.protocol_errors"
let outbox_overflows_c = Dpoaf_exec.Metrics.counter "serve.outbox_overflows"

(* the longest request line a connection may send; longer ones are
   answered with one error line and the connection is closed, so a client
   that never sends a newline cannot make the daemon buffer without
   bound *)
let max_line_bytes = 1 lsl 20

(* the most response bytes a connection may leave unread in its outbox
   (besides the batch being written); a client that reads more slowly
   than it asks is closed once past it, so it cannot make the daemon
   buffer without bound *)
let max_outbox_bytes = 4 * max_line_bytes

(* ---------------- wake-up plumbing ---------------- *)

(* The self-pipe is process-global (created eagerly: [Lazy] is not safe to
   force from several domains at once) because its writers — completion
   callbacks on worker domains, [request_stop] from anywhere — have no
   handle on the running loop.  The byte content is meaningless; only the
   readability edge matters, and the pipe is drained every turn. *)
let wake_rd, wake_wr =
  let r, w = Unix.pipe () in
  Unix.set_nonblock r;
  Unix.set_nonblock w;
  (r, w)

let wake_byte = Bytes.make 1 'w'

let wake () =
  try ignore (Unix.write wake_wr wake_byte 0 1)
  with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      (* pipe already full: the loop is guaranteed awake *)
      ()
  | Unix.Unix_error _ -> ()

let drain_wake () =
  let chunk = Bytes.create 64 in
  let rec go () =
    match Unix.read wake_rd chunk 0 (Bytes.length chunk) with
    | n when n > 0 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let stop_requested = Atomic.make false

let request_stop () =
  Atomic.set stop_requested true;
  wake ()

let install_signal_handlers () =
  let handle =
    Sys.Signal_handle
      (fun _ ->
        Atomic.set stop_requested true;
        wake ())
  in
  (try Sys.set_signal Sys.sigint handle with Invalid_argument _ -> ());
  try Sys.set_signal Sys.sigterm handle with Invalid_argument _ -> ()

(* [push_out] runs on whichever domain completes the request; [responses]
   is therefore atomic while the other stats stay event-loop-private. *)
let responses_sent = Atomic.make 0

(* the response is encoded straight into the outbox, newline and all *)
let push_out client resp =
  Mutex.lock client.omutex;
  if not (Atomic.get client.discard) then begin
    Protocol.write_response client.outbox resp;
    Buffer.add_char client.outbox '\n';
    if Buffer.length client.outbox > max_outbox_bytes then begin
      Atomic.set client.discard true;
      Buffer.reset client.outbox
    end
  end;
  Mutex.unlock client.omutex;
  Atomic.incr responses_sent;
  wake ()

(* once [sending] is written, take what the outbox holds; [true] if bytes
   remain to write *)
let refill client =
  if client.sent = String.length client.sending then begin
    Mutex.lock client.omutex;
    if Buffer.length client.outbox > 0 then begin
      client.sending <- Buffer.contents client.outbox;
      client.sent <- 0;
      Buffer.clear client.outbox
    end;
    Mutex.unlock client.omutex
  end;
  client.sent < String.length client.sending

(* a partial write only moves the offset: the unsent rest is never
   copied *)
let flush_client client =
  if refill client then
    match
      Unix.write_substring client.fd client.sending client.sent
        (String.length client.sending - client.sent)
    with
    | n -> client.sent <- client.sent + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> client.alive <- false

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* later completions for a closed client are dropped, not buffered *)
let close_client client =
  Mutex.lock client.omutex;
  Atomic.set client.discard true;
  Buffer.reset client.outbox;
  Mutex.unlock client.omutex;
  close_quietly client.fd

let error_response msg =
  {
    Protocol.rid = "";
    rbody = Protocol.Failed msg;
    queue_wait_us = 0.0;
    execute_us = 0.0;
  }

let protocol_error journal client counters msg =
  let _, protocol_errors = counters in
  Metrics.incr protocol_errors_c;
  incr protocol_errors;
  (match journal with
  | Some j -> Journal.emit j "daemon.protocol_error" [ ("error", Json.str msg) ]
  | None -> ());
  push_out client (error_response msg)

let handle_line router ops journal client counters line =
  if String.trim line = "" then ()
  else begin
    let requests, _ = counters in
    incr requests;
    match Protocol.request_of_string line with
    | Error msg -> protocol_error journal client counters msg
    | Ok req -> (
        match req.Protocol.kind with
        | Protocol.Stats { domain } | Protocol.Health { domain } ->
            (* answered synchronously ahead of admission: full queues or
               saturated shards never block the ops plane *)
            let body =
              match req.Protocol.kind with
              | Protocol.Stats _ -> ops.stats ~domain
              | _ -> ops.health ~domain
            in
            push_out client
              {
                Protocol.rid = req.Protocol.id;
                rbody = body;
                queue_wait_us = 0.0;
                execute_us = 0.0;
              }
        | _ -> ignore (Router.submit_async router req ~on_done:(push_out client)))
  end

let reject_long_line journal client counters =
  let requests, _ = counters in
  incr requests;
  Buffer.reset client.line;
  client.closing <- true;
  protocol_error journal client counters
    (Printf.sprintf "request line exceeds the %d-byte limit" max_line_bytes)

(* lines are reassembled in the client's buffer, so a line split over
   many reads costs time linear in its length *)
let handle_readable router ops journal client counters =
  let chunk = Bytes.create 4096 in
  match Unix.read client.fd chunk 0 (Bytes.length chunk) with
  | 0 -> client.alive <- false
  | n ->
      let rec consume start =
        let stop =
          match Bytes.index_from_opt chunk start '\n' with
          | Some i when i < n -> i
          | _ -> n
        in
        Buffer.add_subbytes client.line chunk start (stop - start);
        if Buffer.length client.line > max_line_bytes then
          reject_long_line journal client counters
        else if stop < n then begin
          let line = Buffer.contents client.line in
          Buffer.clear client.line;
          handle_line router ops journal client counters line;
          consume (stop + 1)
        end
      in
      consume 0
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> client.alive <- false

let select readfds writefds timeout =
  try
    let r, w, _ = Unix.select readfds writefds [] timeout in
    (r, w)
  with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])

(* A daemon embedded without a domain registry still answers the ops
   verbs from what it can see — the global metrics registry and the
   shards' queues — but refuses domain-tagged queries rather than
   silently ignoring the tag. *)
let default_ops router =
  let no_registry ~domain k =
    match domain with
    | Some d ->
        Protocol.Failed
          (Printf.sprintf
             "domain %S: this daemon has no domain registry; retry without \
              the domain tag"
             d)
    | None -> k ()
  in
  {
    stats =
      (fun ~domain ->
        no_registry ~domain (fun () ->
            Protocol.Stats_report
              {
                metrics = Metrics.summary ();
                histograms = Metrics.histogram_snapshots ();
                runtime = Metrics.runtime_gauges ();
              }));
    health =
      (fun ~domain ->
        no_registry ~domain (fun () ->
            Router.health_report router ~domains:[]));
  }

let tcp_listener port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  let bound =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  (fd, bound)

let run ~socket ?tcp_port ?on_tcp_listen ~router ?ops ?journal ?pref_store () =
  let ops = match ops with Some o -> o | None -> default_ops router in
  install_signal_handlers ();
  Atomic.set stop_requested false;
  Atomic.set responses_sent 0;
  drain_wake ();
  if Sys.file_exists socket then Sys.remove socket;
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX socket);
  Unix.listen listener 64;
  Unix.set_nonblock listener;
  let tcp =
    match tcp_port with
    | None -> None
    | Some port ->
        let fd, bound = tcp_listener port in
        (match on_tcp_listen with Some f -> f bound | None -> ());
        Some (fd, bound)
  in
  let listeners =
    listener :: (match tcp with Some (fd, _) -> [ fd ] | None -> [])
  in
  let clients : client list ref = ref [] in
  let connections = ref 0 in
  let requests = ref 0 in
  let protocol_errors = ref 0 in
  let outbox_overflows = ref 0 in
  let counters = (requests, protocol_errors) in
  (* with the self-pipe carrying completion and stop wake-ups, the select
     timeout only bounds the journal/pref-store flush cadence — so an
     idle daemon sleeps instead of spinning *)
  let idle_timeout =
    if journal <> None || pref_store <> None then 0.25 else 5.0
  in
  let accept_from lfd =
    match Unix.accept lfd with
    | fd, _ ->
        Unix.set_nonblock fd;
        incr connections;
        clients :=
          {
            fd;
            line = Buffer.create 256;
            omutex = Mutex.create ();
            outbox = Buffer.create 256;
            discard = Atomic.make false;
            sending = "";
            sent = 0;
            closing = false;
            alive = true;
          }
          :: !clients
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  let loop_turn () =
    let readfds =
      (wake_rd :: listeners)
      @ List.filter_map
          (fun c -> if c.closing then None else Some c.fd)
          !clients
    in
    let writefds =
      List.filter_map
        (fun c -> if refill c then Some c.fd else None)
        !clients
    in
    let readable, writable = select readfds writefds idle_timeout in
    if List.mem wake_rd readable then drain_wake ();
    List.iter
      (fun lfd -> if List.mem lfd readable then accept_from lfd)
      listeners;
    List.iter
      (fun c ->
        if c.alive && (not c.closing) && List.mem c.fd readable then
          handle_readable router ops journal c counters)
      !clients;
    List.iter
      (fun c -> if c.alive && List.mem c.fd writable then flush_client c)
      !clients;
    List.iter
      (fun c -> if c.closing && not (refill c) then c.alive <- false)
      !clients;
    List.iter
      (fun c ->
        if c.alive && Atomic.get c.discard then begin
          c.alive <- false;
          Metrics.incr outbox_overflows_c;
          incr outbox_overflows
        end)
      !clients;
    let dead, live = List.partition (fun c -> not c.alive) !clients in
    List.iter close_client dead;
    clients := live;
    (* drain worker-domain journal emissions and harvested preference
       pairs once per turn *)
    (match journal with Some j -> Journal.flush j | None -> ());
    match pref_store with
    | Some s -> Dpoaf_refine.Pref_store.flush s
    | None -> ()
  in
  (match journal with
  | Some j ->
      let attrs =
        ("socket", Json.str socket)
        ::
        (match tcp with
        | Some (_, port) -> [ ("tcp_port", Json.num (float_of_int port)) ]
        | None -> [])
      in
      Journal.emit j "daemon.start" attrs;
      (* one serve.shard.up per replica, even for a single-shard daemon,
         so journal consumers see the fleet shape without a health call *)
      List.iteri
        (fun i (sh : Protocol.shard_health) ->
          let srv = Router.server router i in
          Journal.emit j "serve.shard.up"
            [
              ("shard", Json.str sh.Protocol.sh_shard);
              ( "jobs",
                Json.num (float_of_int (Server.config srv).Server.jobs) );
              ( "queue_capacity",
                Json.num
                  (float_of_int (Server.config srv).Server.queue_capacity) );
            ])
        (Router.shard_healths router)
  | None -> ());
  while not (Atomic.get stop_requested) do
    loop_turn ()
  done;
  (* graceful drain: stop reading, answer everything already admitted,
     flush the answers out, then tear the sockets down *)
  close_quietly listener;
  (match tcp with Some (fd, _) -> close_quietly fd | None -> ());
  Router.drain router;
  let flush_deadline = Unix.gettimeofday () +. 5.0 in
  let rec flush_all () =
    let with_output = List.filter (fun c -> c.alive && refill c) !clients in
    if with_output <> [] && Unix.gettimeofday () < flush_deadline then begin
      let _, writable =
        select [] (List.map (fun c -> c.fd) with_output) 0.05
      in
      List.iter
        (fun c -> if List.mem c.fd writable then flush_client c)
        with_output;
      flush_all ()
    end
  in
  flush_all ();
  List.iter close_client !clients;
  if Sys.file_exists socket then Sys.remove socket;
  (match pref_store with
  | Some s -> Dpoaf_refine.Pref_store.flush s
  | None -> ());
  (match journal with
  | Some j ->
      Journal.emit j "daemon.stop"
        [ ("responses", Json.num (float_of_int (Atomic.get responses_sent))) ];
      Journal.flush j
  | None -> ());
  {
    connections = !connections;
    requests = !requests;
    responses = Atomic.get responses_sent;
    protocol_errors = !protocol_errors;
    outbox_overflows = !outbox_overflows;
  }
