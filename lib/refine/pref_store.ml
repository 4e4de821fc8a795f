(* Append-only rotating JSONL store of harvested preference pairs.

   Every accepted refinement round yields one (original, repaired) pair
   with full per-spec provenance (Pref_data.harvested); the serving
   engine appends it from worker domains through
   Dpoaf_exec.Rotating_jsonl, the same ring-and-rotation writer as the
   ops journal, and the daemon's select loop flushes once per turn.

   Unlike the journal, records carry no timestamp — a store record is a
   pure function of the request, which keeps harvested files
   byte-comparable across runs and lets tests pin them.  The record
   format itself (dpoaf-prefstore/1) lives in Dpoaf_dpo.Pref_data next to
   its reader, so writer and reader cannot drift apart. *)

module Json = Dpoaf_util.Json
module Metrics = Dpoaf_exec.Metrics
module Pref_data = Dpoaf_dpo.Pref_data
module Log = Dpoaf_exec.Rotating_jsonl

type t = Pref_data.harvested Log.t

let records_c = Metrics.counter "prefstore.records"
let rotations_c = Metrics.counter "prefstore.rotations"

let create ?max_bytes ?keep ?(ring_capacity = 256) path =
  Log.create ~who:"Pref_store.create"
    ~encode:(fun h -> Json.to_string (Pref_data.json_of_harvested h))
    ~records:records_c ~rotations:rotations_c ?max_bytes ?keep ~ring_capacity
    path

let append t h = Log.push t (fun () -> h)
let flush = Log.flush
let close = Log.close
let path = Log.path
