(** Bounded submission queue with explicit backpressure.

    Multi-producer, multi-consumer.  {!try_push} never blocks: a full or
    closed queue answers [false] immediately, which the caller must
    surface as an explicit reject — overload is a protocol-visible
    condition here, never an unbounded buffer.  Consumers block in
    {!pop_one} until an item arrives or the queue is closed.

    The current depth is published as the {!Dpoaf_exec.Metrics} gauge
    named at creation, so queue pressure shows up in every metrics
    summary and trace. *)

type 'a t

val create : capacity:int -> gauge_name:string -> 'a t
(** @raise Invalid_argument if [capacity < 1]. *)

val try_push : 'a t -> 'a -> bool
(** [false] when the queue is full or closed (the item was not taken). *)

val pop_one : 'a t -> 'a option
(** Block until one item is available and pop it; [None] once the queue
    is closed {e and} empty. *)

val close : 'a t -> unit
(** Stop admitting; wake every blocked consumer.  Already-queued items
    can still be popped. *)

val depth : 'a t -> int
