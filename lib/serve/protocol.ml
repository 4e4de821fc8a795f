(* Wire protocol of the serving layer: line-delimited JSON over a Unix
   domain socket.  One request object per line in, one response object per
   line out; responses carry the request's [id] so a client may pipeline.

   Four request kinds mirror the DPO-AF loop as a service:
   - [generate]: prompt (a task id) -> grammar-constrained response steps;
   - [verify]: response steps -> per-spec sat/violated/vacuous profile;
   - [score_pair]: two responses -> preference + margin, the paper's
     automated-feedback oracle (§4.2) behind a request/response API;
   - [refine]: a defective response -> counterexample-guided repair
     trajectory (Dpoaf_refine) — per-round violated specs,
     accepted/rejected, and the final profile.

   Two further kinds form the ops plane of a running daemon:
   - [stats]: live metrics snapshot — counters, histogram summaries with
     exact bucket bounds, cache hit rates — plus GC/runtime gauges;
   - [health]: queue depth, in-flight batches, drain state, per-domain
     request counters.
   Both accept an optional [domain] tag restricting the view to one
   served domain's twins.

   Decoding is strict: unknown kinds, missing fields and type mismatches
   are reported with the offending field, never silently defaulted. *)

module Json = Dpoaf_util.Json
module Metrics = Dpoaf_exec.Metrics

type kind =
  | Generate of {
      task : string;
      seed : int;
      temperature : float;
      domain : string option;
    }
  | Verify of {
      steps : string list;
      scenario : string option;
      domain : string option;
      explain : bool;
    }
  | Score_pair of {
      steps_a : string list;
      steps_b : string list;
      scenario : string option;
      domain : string option;
      explain : bool;
    }
  | Refine of {
      task : string;
      steps : string list;
      seed : int;
      scenario : string option;
      domain : string option;
      explain : bool;
      max_rounds : int option;
      attempts : int option;
    }
  | Stats of { domain : string option }
  | Health of { domain : string option }

type request = { id : string; kind : kind; deadline_ms : float option }

type profile = {
  score : int;
  satisfied : string list;
  violated : string list;
  vacuous : string list;
}

(* A replay-validated counterexample explanation for one violated spec
   (Dpoaf_analysis.Explain rendered for the wire).  Responses carry them
   only when the request asked ([explain]:true), so untagged traffic
   stays byte-identical to the pre-explanation protocol. *)
type explanation = { espec : string; etext : string }

(* One round of a repair trajectory.  [rr_feedback] is carried only when
   the request asked ([explain]:true), like every other explanation. *)
type rround = {
  rr_index : int;
  rr_violated : string list;
  rr_accepted : bool;
  rr_margin : int;
  rr_feedback : explanation list option;
}

(* Per-shard liveness twin of the aggregate health fields.  A single-shard
   daemon reports an empty list and its health encoding stays byte-identical
   to the pre-sharding wire format. *)
type shard_health = {
  sh_shard : string;  (* e.g. "shard0" *)
  sh_queue_depth : int;
  sh_in_flight : int;
  sh_requests : int;  (* admissions routed to this shard so far *)
  sh_draining : bool;
}

type body =
  | Generated of { steps : string list; tokens : int list; profile : profile }
  | Verified of { profile : profile; explanations : explanation list option }
  | Compared of {
      preference : string;  (* "a" | "b" | "tie" *)
      margin : int;
      margin_specs : string list;
      vacuous_margin : bool;
      profile_a : profile;
      profile_b : profile;
      explanations : explanation list option;
          (* the LOSER's margin violations, explained *)
    }
  | Refined of {
      rstatus : string;  (* "clean" | "improved" | "unchanged" *)
      deadline_hit : bool;
      original_profile : profile;
      final_steps : string list;
      final_profile : profile;
      rounds : rround list;
    }
  | Stats_report of {
      metrics : (string * float) list;
      histograms : (string * Metrics.hist_snapshot) list;
      runtime : (string * float) list;
    }
  | Health_report of {
      queue_depth : int;
      in_flight_batches : int;
      draining : bool;
      domains : (string * int) list;
      shards : shard_health list;
    }
  | Rejected of string
  | Expired
  | Failed of string

type response = {
  rid : string;
  rbody : body;
  queue_wait_us : float;
  execute_us : float;
}

let status_of_body = function
  | Generated _ | Verified _ | Compared _ | Refined _ | Stats_report _
  | Health_report _ ->
      "ok"
  | Rejected _ -> "rejected"
  | Expired -> "expired"
  | Failed _ -> "error"

(* ---------------- encoding ---------------- *)

let verified profile = Verified { profile; explanations = None }

(* Field by field into one buffer, no Json.t tree, members in the order the
   goldens pin.  Optional members are written only when present, so
   untagged traffic stays byte-identical to the older wire: domain,
   scenario, explain, budget, deadline, explanations, deadline_hit and
   shards all appeared after the first version of the protocol.
   [m_* b k v] writes one member ["k":v] of the object open in [b];
   [write_* b v] writes a value. *)

let m_str b k v =
  Json.write_key b k;
  Json.write_string b v

let m_int b k v =
  Json.write_key b k;
  Json.write_int b v

let m_num b k v =
  Json.write_key b k;
  Json.write_float b v

let m_bool b k v =
  Json.write_key b k;
  Json.write_bool b v

let m_strs b k xs =
  Json.write_key b k;
  Json.write_list Json.write_string b xs

let m_opt m b k = function None -> () | Some v -> m b k v

(* a member whose value is an object written by [f] *)
let m_obj b k f =
  Json.write_key b k;
  Buffer.add_char b '{';
  f ();
  Buffer.add_char b '}'

let m_profile b k p =
  m_obj b k (fun () ->
      m_int b "score" p.score;
      m_strs b "satisfied" p.satisfied;
      m_strs b "violated" p.violated;
      m_strs b "vacuous" p.vacuous)

let write_explanation b e =
  Buffer.add_char b '{';
  m_str b "spec" e.espec;
  m_str b "text" e.etext;
  Buffer.add_char b '}'

(* repair rounds carry theirs under "feedback" instead *)
let m_explanations ?(name = "explanations") b = function
  | None -> ()
  | Some es ->
      Json.write_key b name;
      Json.write_list write_explanation b es

(* every kind's optional tail: scenario, domain, explain *)
let m_tags b ~scenario ~domain ~explain =
  m_opt m_str b "scenario" scenario;
  m_opt m_str b "domain" domain;
  if explain then m_bool b "explain" true

let write_request b r =
  Buffer.add_char b '{';
  m_str b "id" r.id;
  (match r.kind with
  | Generate { task; seed; temperature; domain } ->
      m_str b "kind" "generate";
      m_str b "task" task;
      m_int b "seed" seed;
      m_num b "temperature" temperature;
      m_opt m_str b "domain" domain
  | Verify { steps; scenario; domain; explain } ->
      m_str b "kind" "verify";
      m_strs b "steps" steps;
      m_tags b ~scenario ~domain ~explain
  | Score_pair { steps_a; steps_b; scenario; domain; explain } ->
      m_str b "kind" "score_pair";
      m_strs b "steps_a" steps_a;
      m_strs b "steps_b" steps_b;
      m_tags b ~scenario ~domain ~explain
  | Refine { task; steps; seed; scenario; domain; explain; max_rounds; attempts }
    ->
      m_str b "kind" "refine";
      m_str b "task" task;
      m_strs b "steps" steps;
      m_int b "seed" seed;
      m_tags b ~scenario ~domain ~explain;
      (* the budget object appears only when some bound was set *)
      if max_rounds <> None || attempts <> None then
        m_obj b "budget" (fun () ->
            m_opt m_int b "max_rounds" max_rounds;
            m_opt m_int b "attempts" attempts)
  | Stats { domain } ->
      m_str b "kind" "stats";
      m_opt m_str b "domain" domain
  | Health { domain } ->
      m_str b "kind" "health";
      m_opt m_str b "domain" domain);
  m_opt m_num b "deadline_ms" r.deadline_ms;
  Buffer.add_char b '}'

let write_round b r =
  Buffer.add_char b '{';
  m_int b "round" r.rr_index;
  m_strs b "violated" r.rr_violated;
  m_bool b "accepted" r.rr_accepted;
  m_int b "margin" r.rr_margin;
  m_explanations ~name:"feedback" b r.rr_feedback;
  Buffer.add_char b '}'

let write_shard b s =
  Buffer.add_char b '{';
  m_str b "shard" s.sh_shard;
  m_int b "queue_depth" s.sh_queue_depth;
  m_int b "in_flight" s.sh_in_flight;
  m_int b "requests" s.sh_requests;
  m_bool b "draining" s.sh_draining;
  Buffer.add_char b '}'

(* an object of named values, each written as a member by [m] *)
let m_assoc m b k kvs = m_obj b k (fun () -> List.iter (fun (k, v) -> m b k v) kvs)

let write_response b r =
  Buffer.add_char b '{';
  m_str b "id" r.rid;
  m_str b "status" (status_of_body r.rbody);
  m_num b "queue_wait_us" r.queue_wait_us;
  m_num b "execute_us" r.execute_us;
  (match r.rbody with
  | Generated { steps; tokens; profile } ->
      m_strs b "steps" steps;
      Json.write_key b "tokens";
      Json.write_list Json.write_int b tokens;
      m_profile b "profile" profile
  | Verified { profile; explanations } ->
      m_profile b "profile" profile;
      m_explanations b explanations
  | Compared
      {
        preference;
        margin;
        margin_specs;
        vacuous_margin;
        profile_a;
        profile_b;
        explanations;
      } ->
      m_str b "preference" preference;
      m_int b "margin" margin;
      m_strs b "margin_specs" margin_specs;
      m_bool b "vacuous_margin" vacuous_margin;
      m_profile b "profile_a" profile_a;
      m_profile b "profile_b" profile_b;
      m_explanations b explanations
  | Refined
      { rstatus; deadline_hit; original_profile; final_steps; final_profile; rounds }
    ->
      m_obj b "refine" (fun () ->
          m_str b "status" rstatus;
          if deadline_hit then m_bool b "deadline_hit" true;
          m_profile b "original_profile" original_profile;
          m_strs b "final_steps" final_steps;
          m_profile b "final_profile" final_profile;
          Json.write_key b "rounds";
          Json.write_list write_round b rounds)
  | Stats_report { metrics; histograms; runtime } ->
      m_obj b "stats" (fun () ->
          m_assoc m_num b "metrics" metrics;
          m_assoc
            (fun b k s ->
              Json.write_key b k;
              Json.write b (Metrics.json_of_snapshot s))
            b "histograms" histograms;
          m_assoc m_num b "runtime" runtime)
  | Health_report { queue_depth; in_flight_batches; draining; domains; shards } ->
      m_obj b "health" (fun () ->
          m_int b "queue_depth" queue_depth;
          m_int b "in_flight_batches" in_flight_batches;
          m_bool b "draining" draining;
          m_assoc m_int b "domains" domains;
          (* encoded only when sharded, so an unsharded daemon's health
             line is byte-identical to the pre-fleet wire *)
          if shards <> [] then begin
            Json.write_key b "shards";
            Json.write_list write_shard b shards
          end)
  | Rejected reason -> m_str b "reason" reason
  | Expired -> ()
  | Failed msg -> m_str b "error" msg);
  Buffer.add_char b '}'

(* one scratch buffer per domain, kept at the longest line it has
   written: a line then costs only its final string *)
let scratch = Domain.DLS.new_key (fun () -> Buffer.create 4096)

let to_string write x =
  let b = Domain.DLS.get scratch in
  Buffer.clear b;
  write b x;
  Buffer.contents b

let request_to_string r = to_string write_request r
let response_to_string r = to_string write_response r

(* ---------------- decoding ---------------- *)

let ( let* ) = Result.bind

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let str_field name j =
  let* v = field name j in
  match Json.to_str v with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "field %S must be a string" name)

let num_field name j =
  let* v = field name j in
  match Json.to_float v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "field %S must be a number" name)

let bool_field name j =
  let* v = field name j in
  match v with
  | Json.Bool b -> Ok b
  | _ -> Error (Printf.sprintf "field %S must be a boolean" name)

(* [f] over every item, stopping at the first error *)
let map_all f xs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
        match f x with Ok y -> go (y :: acc) rest | Error msg -> Error msg)
  in
  go [] xs

let array_field name j =
  let* v = field name j in
  match Json.to_list v with
  | Some items -> Ok items
  | None -> Error (Printf.sprintf "field %S must be an array" name)

(* an absent or null array is [None] *)
let opt_array_field name j f =
  match Json.member name j with
  | None | Some Json.Null -> Ok None
  | Some _ ->
      let* items = array_field name j in
      Result.map Option.some (map_all f items)

(* an object mapping names to values, each read by [f] *)
let object_field name j f =
  let* v = field name j in
  match v with
  | Json.Obj kvs -> map_all (fun (k, x) -> Result.map (fun y -> (k, y)) (f k x)) kvs
  | _ -> Error (Printf.sprintf "field %S must be an object" name)

let str_list_field name j =
  let* items = array_field name j in
  map_all
    (fun x ->
      match Json.to_str x with
      | Some s -> Ok s
      | None -> Error (Printf.sprintf "field %S must contain only strings" name))
    items

let opt_str_field name j =
  match Json.member name j with
  | None | Some Json.Null -> Ok None
  | Some v -> (
      match Json.to_str v with
      | Some s -> Ok (Some s)
      | None -> Error (Printf.sprintf "field %S must be a string" name))

let opt_num_field name j =
  match Json.member name j with
  | None | Some Json.Null -> Ok None
  | Some v -> (
      match Json.to_float v with
      | Some f -> Ok (Some f)
      | None -> Error (Printf.sprintf "field %S must be a number" name))

let as_int name f =
  if Json.is_int f then Ok (int_of_float f)
  else Error (Printf.sprintf "field %S must be an integer" name)

let int_field name j =
  let* f = num_field name j in
  as_int name f

let opt_int_field name j =
  let* f = opt_num_field name j in
  match f with
  | None -> Ok None
  | Some f -> Result.map Option.some (as_int name f)

let opt_bool_field name j =
  match Json.member name j with
  | None | Some Json.Null -> Ok false
  | Some (Json.Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" name)

let int_list_field name j =
  let* items = array_field name j in
  map_all
    (fun x ->
      match Json.to_float x with
      | Some f when Json.is_int f -> Ok (int_of_float f)
      | Some _ ->
          Error (Printf.sprintf "field %S must contain only integers" name)
      | None -> Error (Printf.sprintf "field %S must contain only numbers" name))
    items

let kind_of_json j =
  let* kind = str_field "kind" j in
  match kind with
  | "generate" ->
      let* task = str_field "task" j in
      let* seed = opt_int_field "seed" j in
      let* temperature = opt_num_field "temperature" j in
      let* domain = opt_str_field "domain" j in
      Ok
        (Generate
           {
             task;
             seed = Option.value ~default:0 seed;
             temperature = Option.value ~default:1.0 temperature;
             domain;
           })
  | "verify" ->
      let* steps = str_list_field "steps" j in
      let* scenario = opt_str_field "scenario" j in
      let* domain = opt_str_field "domain" j in
      let* explain = opt_bool_field "explain" j in
      Ok (Verify { steps; scenario; domain; explain })
  | "score_pair" ->
      let* steps_a = str_list_field "steps_a" j in
      let* steps_b = str_list_field "steps_b" j in
      let* scenario = opt_str_field "scenario" j in
      let* domain = opt_str_field "domain" j in
      let* explain = opt_bool_field "explain" j in
      Ok (Score_pair { steps_a; steps_b; scenario; domain; explain })
  | "refine" ->
      let* task = str_field "task" j in
      let* steps = str_list_field "steps" j in
      let* seed = opt_int_field "seed" j in
      let* scenario = opt_str_field "scenario" j in
      let* domain = opt_str_field "domain" j in
      let* explain = opt_bool_field "explain" j in
      let* max_rounds, attempts =
        match Json.member "budget" j with
        | None | Some Json.Null -> Ok (None, None)
        | Some (Json.Obj _ as b) ->
            let bound name =
              let* v = opt_int_field name b in
              match v with
              | Some n when n < 1 ->
                  Error (Printf.sprintf "budget field %S must be >= 1" name)
              | v -> Ok v
            in
            let* max_rounds = bound "max_rounds" in
            let* attempts = bound "attempts" in
            Ok (max_rounds, attempts)
        | Some _ -> Error "field \"budget\" must be an object"
      in
      Ok
        (Refine
           {
             task;
             steps;
             seed = Option.value ~default:0 seed;
             scenario;
             domain;
             explain;
             max_rounds;
             attempts;
           })
  | "stats" ->
      let* domain = opt_str_field "domain" j in
      Ok (Stats { domain })
  | "health" ->
      let* domain = opt_str_field "domain" j in
      Ok (Health { domain })
  | other ->
      Error
        (Printf.sprintf
           "unknown request kind %S (valid: generate, verify, score_pair, \
            refine, stats, health)"
           other)

let request_of_json j =
  let* id = str_field "id" j in
  let* kind = kind_of_json j in
  let* deadline_ms = opt_num_field "deadline_ms" j in
  (match deadline_ms with
  | Some d when d <= 0.0 -> Error "field \"deadline_ms\" must be positive"
  | _ -> Ok ())
  |> Result.map (fun () -> { id; kind; deadline_ms })

let request_of_string line =
  match Json.parse line with
  | Error msg -> Error ("malformed JSON: " ^ msg)
  | Ok j -> request_of_json j

let profile_of_json j =
  let* score = int_field "score" j in
  let* satisfied = str_list_field "satisfied" j in
  let* violated = str_list_field "violated" j in
  let* vacuous = str_list_field "vacuous" j in
  Ok { score; satisfied; violated; vacuous }

let profile_field name j =
  let* p = field name j in
  profile_of_json p

let explanations_of_json ?(name = "explanations") j =
  opt_array_field name j (fun x ->
      let* espec = str_field "spec" x in
      let* etext = str_field "text" x in
      Ok { espec; etext })

let num_assoc_field name j =
  object_field name j (fun _ x ->
      match Json.to_float x with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "field %S must map names to numbers" name))

let stats_report_of_json j =
  let* metrics = num_assoc_field "metrics" j in
  let* histograms =
    object_field "histograms" j (fun k x ->
        Result.map_error
          (Printf.sprintf "histogram %S: %s" k)
          (Metrics.snapshot_of_json x))
  in
  let* runtime = num_assoc_field "runtime" j in
  Ok (Stats_report { metrics; histograms; runtime })

let refined_of_json j =
  let* rstatus = str_field "status" j in
  let* deadline_hit = opt_bool_field "deadline_hit" j in
  let* original_profile = profile_field "original_profile" j in
  let* final_steps = str_list_field "final_steps" j in
  let* final_profile = profile_field "final_profile" j in
  let* rounds = array_field "rounds" j in
  let* rounds =
    map_all
      (fun x ->
        let* rr_index = int_field "round" x in
        let* rr_violated = str_list_field "violated" x in
        let* rr_accepted = bool_field "accepted" x in
        let* rr_margin = int_field "margin" x in
        let* rr_feedback = explanations_of_json ~name:"feedback" x in
        Ok { rr_index; rr_violated; rr_accepted; rr_margin; rr_feedback })
      rounds
  in
  Ok
    (Refined
       {
         rstatus;
         deadline_hit;
         original_profile;
         final_steps;
         final_profile;
         rounds;
       })

let shard_health_of_json j =
  let* sh_shard = str_field "shard" j in
  let* sh_queue_depth = int_field "queue_depth" j in
  let* sh_in_flight = int_field "in_flight" j in
  let* sh_requests = int_field "requests" j in
  let* sh_draining = opt_bool_field "draining" j in
  Ok { sh_shard; sh_queue_depth; sh_in_flight; sh_requests; sh_draining }

let health_report_of_json j =
  let* queue_depth = int_field "queue_depth" j in
  let* in_flight_batches = int_field "in_flight_batches" j in
  let* draining = bool_field "draining" j in
  let* domains =
    object_field "domains" j (fun _ x ->
        match Json.to_float x with
        | Some f when Json.is_int f -> Ok (int_of_float f)
        | Some _ -> Error "field \"domains\" must map names to integers"
        | None -> Error "field \"domains\" must map names to numbers")
  in
  let* shards = opt_array_field "shards" j shard_health_of_json in
  Ok
    (Health_report
       {
         queue_depth;
         in_flight_batches;
         draining;
         domains;
         shards = Option.value ~default:[] shards;
       })

let body_of_json status j =
  match status with
  | "ok" -> (
      (* the ops-plane and refine payloads live under a single member *)
      match
        (Json.member "stats" j, Json.member "health" j, Json.member "refine" j)
      with
      | Some s, _, _ -> stats_report_of_json s
      | None, Some h, _ -> health_report_of_json h
      | None, None, Some r -> refined_of_json r
      | None, None, None -> (
      (* discriminate the three ok shapes by their distinctive fields *)
      match (Json.member "preference" j, Json.member "tokens" j) with
      | Some _, _ ->
          let* preference = str_field "preference" j in
          let* margin = int_field "margin" j in
          let* margin_specs = str_list_field "margin_specs" j in
          let* vacuous_margin = bool_field "vacuous_margin" j in
          let* profile_a = profile_field "profile_a" j in
          let* profile_b = profile_field "profile_b" j in
          let* explanations = explanations_of_json j in
          Ok
            (Compared
               {
                 preference;
                 margin;
                 margin_specs;
                 vacuous_margin;
                 profile_a;
                 profile_b;
                 explanations;
               })
      | None, Some _ ->
          let* steps = str_list_field "steps" j in
          let* tokens = int_list_field "tokens" j in
          let* profile = profile_field "profile" j in
          Ok (Generated { steps; tokens; profile })
      | None, None ->
          let* profile = profile_field "profile" j in
          let* explanations = explanations_of_json j in
          Ok (Verified { profile; explanations })))
  | "rejected" ->
      let* reason = str_field "reason" j in
      Ok (Rejected reason)
  | "expired" -> Ok Expired
  | "error" ->
      let* msg = str_field "error" j in
      Ok (Failed msg)
  | other -> Error (Printf.sprintf "unknown response status %S" other)

let response_of_json j =
  let* rid = str_field "id" j in
  let* status = str_field "status" j in
  let* rbody = body_of_json status j in
  let* queue_wait_us = num_field "queue_wait_us" j in
  let* execute_us = num_field "execute_us" j in
  Ok { rid; rbody; queue_wait_us; execute_us }

let response_of_string line =
  match Json.parse line with
  | Error msg -> Error ("malformed JSON: " ^ msg)
  | Ok j -> response_of_json j
