(* Prompt-affinity shard routing for a replica fleet.

   A router owns N {!Server} replicas and assigns every execution request
   to one of them by hashing the request's prompt identity — the
   (domain, task) pair for [generate]/[refine], the (domain, steps) text
   for [verify]/[score_pair].  Affinity is the point: a replica's
   prompt-state cache (and the refine explain cache behind it) only pays
   off if the same prompt keeps landing on the same replica, so the
   fleet's aggregate cache capacity scales with the shard count instead
   of every replica churning the whole prompt set through its own LRU.

   The hash is FNV-1a/64 over the key string — stable across runs and
   processes (no [Hashtbl.hash] randomization), so a request routes to
   the same shard today, tomorrow and in the qcheck property that pins
   this down.  Because every {!Engine} handler is a pure function of the
   request, routing is invisible in the responses: any shard count
   returns bit-identical bodies, only the cache temperature changes.

   Ops verbs carry no prompt; they hash to shard 0, though a daemon
   normally answers them ahead of routing altogether. *)

type t = { shards : Server.t array }

(* ---------------- pure routing function ---------------- *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv1a64 s =
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

let dom = function None -> "" | Some d -> d

(* the key deliberately groups [generate] and [refine] of one task: both
   fold the same task prompt, so they must share a shard's cache entry *)
let shard_key (req : Protocol.request) =
  match req.Protocol.kind with
  | Protocol.Generate { task; domain; _ } | Protocol.Refine { task; domain; _ }
    ->
      Some (Printf.sprintf "prompt/%s/%s" (dom domain) task)
  | Protocol.Verify { steps; domain; _ } ->
      Some
        (Printf.sprintf "steps/%s/%s" (dom domain) (String.concat "\x1f" steps))
  | Protocol.Score_pair { steps_a; steps_b; domain; _ } ->
      Some
        (Printf.sprintf "steps/%s/%s\x1e%s" (dom domain)
           (String.concat "\x1f" steps_a)
           (String.concat "\x1f" steps_b))
  | Protocol.Stats _ | Protocol.Health _ -> None

let shard_for ~shards req =
  if shards < 1 then invalid_arg "Router.shard_for: shards must be >= 1";
  if shards = 1 then 0
  else
    match shard_key req with
    | None -> 0
    | Some key ->
        Int64.to_int (Int64.unsigned_rem (fnv1a64 key) (Int64.of_int shards))

(* ---------------- fleet ---------------- *)

let create shards =
  if Array.length shards = 0 then invalid_arg "Router.create: no shards";
  { shards }

let shard_count t = Array.length t.shards
let server t i = t.shards.(i)

let route t req = t.shards.(shard_for ~shards:(Array.length t.shards) req)
let submit_async ?on_done t req = Server.submit_async ?on_done (route t req) req
let submit t req = Server.submit (route t req) req

let shard_name i = Printf.sprintf "shard%d" i

let shard_healths t =
  Array.to_list
    (Array.mapi
       (fun i s ->
         let h = Server.health s in
         {
           Protocol.sh_shard =
             (match Server.label s with Some l -> l | None -> shard_name i);
           sh_queue_depth = h.Server.queue_depth;
           sh_in_flight = h.Server.in_flight_batches;
           sh_requests = Server.admitted s;
           sh_draining = h.Server.draining;
         })
       t.shards)

let health t =
  Array.fold_left
    (fun (acc : Server.health) s ->
      let h = Server.health s in
      {
        Server.queue_depth = acc.Server.queue_depth + h.Server.queue_depth;
        in_flight_batches =
          acc.Server.in_flight_batches + h.Server.in_flight_batches;
        draining = acc.Server.draining || h.Server.draining;
      })
    { Server.queue_depth = 0; in_flight_batches = 0; draining = false }
    t.shards

let health_report t ~domains =
  let h = health t in
  Protocol.Health_report
    {
      queue_depth = h.Server.queue_depth;
      in_flight_batches = h.Server.in_flight_batches;
      draining = h.Server.draining;
      domains;
      shards = (if shard_count t > 1 then shard_healths t else []);
    }

let drain t = Array.iter Server.drain t.shards
