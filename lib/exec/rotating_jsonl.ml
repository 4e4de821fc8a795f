(* A ring of records under a mutex, drained to a size-rotated JSONL file.
   Writers push from any domain; the owner flushes once per loop turn, so
   the hot path never blocks on the filesystem.  A full ring flushes
   synchronously instead of dropping: the serving journal must not lose
   reject/expiry events under load, and the preference store must not
   lose harvested pairs. *)

type config = { path : string; max_bytes : int; keep : int; ring_capacity : int }

type 'a t = {
  config : config;
  encode : 'a -> string;
  records : Metrics.counter;
  rotations : Metrics.counter;
  ring : 'a Queue.t;
  mutable oc : out_channel option;
  mutable size : int; (* bytes written to the current file *)
  mutable closed : bool;
  mutex : Mutex.t;
}

let create ~who ~encode ~records ~rotations ?(max_bytes = 1 lsl 20)
    ?(keep = 3) ~ring_capacity path =
  let positive name v =
    if v < 1 then invalid_arg (Printf.sprintf "%s: %s must be >= 1" who name)
  in
  positive "max_bytes" max_bytes;
  positive "keep" keep;
  positive "ring_capacity" ring_capacity;
  {
    config = { path; max_bytes; keep; ring_capacity };
    encode;
    records;
    rotations;
    ring = Queue.create ();
    oc = None;
    size = 0;
    closed = false;
    mutex = Mutex.create ();
  }

let path t = t.config.path

let gen_path t i =
  if i = 0 then t.config.path else Printf.sprintf "%s.%d" t.config.path i

let close_current_locked t =
  match t.oc with
  | Some oc ->
      close_out_noerr oc;
      t.oc <- None;
      t.size <- 0
  | None -> ()

let rotate_locked t =
  close_current_locked t;
  for i = t.config.keep - 1 downto 0 do
    let src = gen_path t i in
    if Sys.file_exists src then Sys.rename src (gen_path t (i + 1))
  done;
  Metrics.incr t.rotations

let ensure_open_locked t =
  match t.oc with
  | Some oc -> oc
  | None ->
      let oc =
        open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 t.config.path
      in
      t.size <- (try out_channel_length oc with Sys_error _ -> 0);
      t.oc <- Some oc;
      oc

let write_locked t record =
  let line = t.encode record in
  let len = String.length line + 1 in
  let oc =
    let oc = ensure_open_locked t in
    if t.size > 0 && t.size + len > t.config.max_bytes then begin
      rotate_locked t;
      ensure_open_locked t
    end
    else oc
  in
  output_string oc line;
  output_char oc '\n';
  t.size <- t.size + len

let flush_locked t =
  if not (Queue.is_empty t.ring) then begin
    Queue.iter (write_locked t) t.ring;
    Queue.clear t.ring;
    match t.oc with Some oc -> flush oc | None -> ()
  end

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let push t make =
  with_lock t (fun () ->
      if not t.closed then begin
        Queue.push (make ()) t.ring;
        Metrics.incr t.records;
        if Queue.length t.ring >= t.config.ring_capacity then flush_locked t
      end)

let flush t = with_lock t (fun () -> if not t.closed then flush_locked t)

let close t =
  with_lock t (fun () ->
      if not t.closed then begin
        flush_locked t;
        close_current_locked t;
        t.closed <- true
      end)
