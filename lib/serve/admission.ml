(* Bounded submission queue with explicit backpressure.

   Producers (client connections, in-process submitters) push from any
   domain; [try_push] never blocks — a full or closed queue is an
   immediate [false], which the server turns into a [Rejected] response.
   Each of the server's worker domains pops one request at a time.  The
   queue depth is published as a {!Metrics} gauge so serving load is
   visible in every metrics summary. *)

module Metrics = Dpoaf_exec.Metrics

type 'a t = {
  capacity : int;
  items : 'a Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
  depth_gauge : Metrics.gauge;
}

let create ~capacity ~gauge_name =
  if capacity < 1 then invalid_arg "Admission.create: capacity must be >= 1";
  {
    capacity;
    items = Queue.create ();
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    closed = false;
    depth_gauge = Metrics.gauge gauge_name;
  }

let publish_depth t =
  Metrics.set_gauge t.depth_gauge (float_of_int (Queue.length t.items))

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let try_push t x =
  with_lock t (fun () ->
      if t.closed || Queue.length t.items >= t.capacity then false
      else begin
        Queue.push x t.items;
        publish_depth t;
        Condition.signal t.nonempty;
        true
      end)

let depth t = with_lock t (fun () -> Queue.length t.items)

let close t =
  with_lock t (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)

let pop_one t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.items && not t.closed do
    Condition.wait t.nonempty t.mutex
  done;
  let r =
    if Queue.is_empty t.items then None
    else begin
      let x = Queue.pop t.items in
      publish_depth t;
      Some x
    end
  in
  Mutex.unlock t.mutex;
  r
