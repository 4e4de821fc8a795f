(* The daemon's event journal: serving events (request spans, admission
   rejects, deadline expiries, batch coalesces, checkpoint loads, drains)
   as timestamped JSONL lines through Dpoaf_exec.Rotating_jsonl — worker
   domains emit into its ring, the daemon's select loop flushes once per
   turn.  The timestamp is read under the writer's lock, so [ts] never
   decreases down the file. *)

module Json = Dpoaf_util.Json
module Metrics = Dpoaf_exec.Metrics
module Log = Dpoaf_exec.Rotating_jsonl

type event = { ts : float; ev : string; attrs : (string * Json.t) list }
type t = event Log.t

let events_c = Metrics.counter "journal.events"
let rotations_c = Metrics.counter "journal.rotations"

let line_of e =
  Json.to_string
    (Json.obj (("ts", Json.num e.ts) :: ("ev", Json.str e.ev) :: e.attrs))

let create ?max_bytes ?keep ?(ring_capacity = 1024) path =
  Log.create ~who:"Journal.create" ~encode:line_of ~records:events_c
    ~rotations:rotations_c ?max_bytes ?keep ~ring_capacity path

let emit t ev attrs =
  Log.push t (fun () -> { ts = Unix.gettimeofday (); ev; attrs })

let flush = Log.flush
let close = Log.close
let path = Log.path
