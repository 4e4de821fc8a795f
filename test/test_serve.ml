open Dpoaf_serve
module P = Protocol
module Metrics = Dpoaf_exec.Metrics

let ok_profile = { P.score = 0; satisfied = []; violated = []; vacuous = [] }

let body_testable =
  Alcotest.testable
    (fun ppf b -> Format.pp_print_string ppf (P.status_of_body b))
    ( = )

(* ---------------- protocol goldens ---------------- *)

(* exact wire bytes, both directions: the daemon and external clients
   must agree on these strings forever *)

(* every golden line these checks see, for the decoder fuzz below *)
let golden_lines = ref []

let check_request golden req =
  golden_lines := golden :: !golden_lines;
  Alcotest.(check string) "encode" golden (P.request_to_string req);
  match P.request_of_string golden with
  | Error e -> Alcotest.fail ("decode: " ^ e)
  | Ok r -> Alcotest.(check bool) "decode equals value" true (r = req)

let check_response golden resp =
  golden_lines := golden :: !golden_lines;
  Alcotest.(check string) "encode" golden (P.response_to_string resp);
  match P.response_of_string golden with
  | Error e -> Alcotest.fail ("decode: " ^ e)
  | Ok r -> Alcotest.(check bool) "decode equals value" true (r = resp)

let test_request_goldens () =
  check_request
    {|{"id":"g1","kind":"generate","task":"right_turn_tl","seed":7,"temperature":1}|}
    {
      P.id = "g1";
      kind =
        P.Generate
          { task = "right_turn_tl"; seed = 7; temperature = 1.0; domain = None };
      deadline_ms = None;
    };
  check_request
    {|{"id":"v1","kind":"verify","steps":["come to a stop","turn right"],"scenario":"traffic_light","deadline_ms":50}|}
    {
      P.id = "v1";
      kind =
        P.Verify
          {
            steps = [ "come to a stop"; "turn right" ];
            scenario = Some "traffic_light";
            domain = None;
            explain = false;
          };
      deadline_ms = Some 50.0;
    };
  check_request
    {|{"id":"s1","kind":"score_pair","steps_a":["turn right"],"steps_b":["stop"]}|}
    {
      P.id = "s1";
      kind =
        P.Score_pair
          {
            steps_a = [ "turn right" ];
            steps_b = [ "stop" ];
            scenario = None;
            domain = None;
            explain = false;
          };
      deadline_ms = None;
    };
  (* the explain flag is encoded only when set, so the goldens above also
     pin that explain=false traffic is byte-identical to the
     pre-explanation wire *)
  check_request
    {|{"id":"v2","kind":"verify","steps":["turn right"],"explain":true}|}
    {
      P.id = "v2";
      kind =
        P.Verify
          { steps = [ "turn right" ]; scenario = None; domain = None;
            explain = true };
      deadline_ms = None;
    };
  check_request
    {|{"id":"s2","kind":"score_pair","steps_a":["turn right"],"steps_b":["stop"],"explain":true}|}
    {
      P.id = "s2";
      kind =
        P.Score_pair
          {
            steps_a = [ "turn right" ];
            steps_b = [ "stop" ];
            scenario = None;
            domain = None;
            explain = true;
          };
      deadline_ms = None;
    }

(* the refine verb, minimal and fully-tagged, both directions; a
   default-budget untagged request carries no budget/scenario/domain/
   explain members at all *)
let test_refine_goldens () =
  check_request
    {|{"id":"rf1","kind":"refine","task":"right_turn_tl","steps":["turn right"],"seed":5}|}
    {
      P.id = "rf1";
      kind =
        P.Refine
          {
            task = "right_turn_tl";
            steps = [ "turn right" ];
            seed = 5;
            scenario = None;
            domain = None;
            explain = false;
            max_rounds = None;
            attempts = None;
          };
      deadline_ms = None;
    };
  check_request
    {|{"id":"rf2","kind":"refine","task":"right_turn_tl","steps":["turn right"],"seed":5,"scenario":"traffic_light","domain":"driving","explain":true,"budget":{"max_rounds":2,"attempts":3},"deadline_ms":50}|}
    {
      P.id = "rf2";
      kind =
        P.Refine
          {
            task = "right_turn_tl";
            steps = [ "turn right" ];
            seed = 5;
            scenario = Some "traffic_light";
            domain = Some "driving";
            explain = true;
            max_rounds = Some 2;
            attempts = Some 3;
          };
      deadline_ms = Some 50.0;
    };
  (* a partial budget encodes only the bound that was set *)
  check_request
    {|{"id":"rf3","kind":"refine","task":"right_turn_tl","steps":["turn right"],"seed":5,"budget":{"max_rounds":2}}|}
    {
      P.id = "rf3";
      kind =
        P.Refine
          {
            task = "right_turn_tl";
            steps = [ "turn right" ];
            seed = 5;
            scenario = None;
            domain = None;
            explain = false;
            max_rounds = Some 2;
            attempts = None;
          };
      deadline_ms = None;
    };
  let p_bad =
    { P.score = 14; satisfied = [ "phi_2" ]; violated = [ "phi_1" ];
      vacuous = [] }
  in
  let p_ok =
    { P.score = 15; satisfied = [ "phi_1"; "phi_2" ]; violated = [];
      vacuous = [] }
  in
  check_response
    {|{"id":"rf1","status":"ok","queue_wait_us":1,"execute_us":2,"refine":{"status":"clean","original_profile":{"score":14,"satisfied":["phi_2"],"violated":["phi_1"],"vacuous":[]},"final_steps":["come to a complete stop","turn right"],"final_profile":{"score":15,"satisfied":["phi_1","phi_2"],"violated":[],"vacuous":[]},"rounds":[{"round":1,"violated":["phi_1"],"accepted":true,"margin":1}]}}|}
    {
      P.rid = "rf1";
      rbody =
        P.Refined
          {
            rstatus = "clean";
            deadline_hit = false;
            original_profile = p_bad;
            final_steps = [ "come to a complete stop"; "turn right" ];
            final_profile = p_ok;
            rounds =
              [
                {
                  P.rr_index = 1;
                  rr_violated = [ "phi_1" ];
                  rr_accepted = true;
                  rr_margin = 1;
                  rr_feedback = None;
                };
              ];
          };
      queue_wait_us = 1.0;
      execute_us = 2.0;
    };
  (* deadline_hit appears only when true; feedback only when explain
     was requested *)
  check_response
    {|{"id":"rf2","status":"ok","queue_wait_us":1,"execute_us":2,"refine":{"status":"unchanged","deadline_hit":true,"original_profile":{"score":14,"satisfied":["phi_2"],"violated":["phi_1"],"vacuous":[]},"final_steps":["turn right"],"final_profile":{"score":14,"satisfied":["phi_2"],"violated":["phi_1"],"vacuous":[]},"rounds":[{"round":1,"violated":["phi_1"],"accepted":false,"margin":0,"feedback":[{"spec":"phi_1","text":"step 1 allows `proceed` while `red_light` holds, violating phi_1"}]}]}}|}
    {
      P.rid = "rf2";
      rbody =
        P.Refined
          {
            rstatus = "unchanged";
            deadline_hit = true;
            original_profile = p_bad;
            final_steps = [ "turn right" ];
            final_profile = p_bad;
            rounds =
              [
                {
                  P.rr_index = 1;
                  rr_violated = [ "phi_1" ];
                  rr_accepted = false;
                  rr_margin = 0;
                  rr_feedback =
                    Some
                      [
                        {
                          P.espec = "phi_1";
                          etext =
                            "step 1 allows `proceed` while `red_light` \
                             holds, violating phi_1";
                        };
                      ];
                };
              ];
          };
      queue_wait_us = 1.0;
      execute_us = 2.0;
    }

let test_response_goldens () =
  check_response
    {|{"id":"v1","status":"ok","queue_wait_us":12.5,"execute_us":3,"profile":{"score":2,"satisfied":["phi_1","phi_2"],"violated":["phi_3"],"vacuous":["phi_2"]}}|}
    {
      P.rid = "v1";
      rbody =
        P.verified
          {
            score = 2;
            satisfied = [ "phi_1"; "phi_2" ];
            violated = [ "phi_3" ];
            vacuous = [ "phi_2" ];
          };
      queue_wait_us = 12.5;
      execute_us = 3.0;
    };
  (* with explanations requested: the optional field appears, after the
     profile, as an array of {spec, text} objects *)
  check_response
    {|{"id":"v2","status":"ok","queue_wait_us":1,"execute_us":2,"profile":{"score":0,"satisfied":[],"violated":["phi_4"],"vacuous":[]},"explanations":[{"spec":"phi_4","text":"step 1 allows `proceed` while `pedestrian_present` holds, violating phi_4"}]}|}
    {
      P.rid = "v2";
      rbody =
        P.Verified
          {
            profile =
              { score = 0; satisfied = []; violated = [ "phi_4" ]; vacuous = [] };
            explanations =
              Some
                [
                  {
                    P.espec = "phi_4";
                    etext =
                      "step 1 allows `proceed` while `pedestrian_present` \
                       holds, violating phi_4";
                  };
                ];
          };
      queue_wait_us = 1.0;
      execute_us = 2.0;
    };
  check_response
    {|{"id":"r1","status":"rejected","queue_wait_us":0,"execute_us":0,"reason":"queue full (capacity 4)"}|}
    {
      P.rid = "r1";
      rbody = P.Rejected "queue full (capacity 4)";
      queue_wait_us = 0.0;
      execute_us = 0.0;
    };
  check_response
    {|{"id":"e1","status":"expired","queue_wait_us":60000,"execute_us":0}|}
    {
      P.rid = "e1";
      rbody = P.Expired;
      queue_wait_us = 60000.0;
      execute_us = 0.0;
    };
  check_response
    {|{"id":"s1","status":"ok","queue_wait_us":1,"execute_us":2,"preference":"a","margin":3,"margin_specs":["phi_5"],"vacuous_margin":false,"profile_a":{"score":3,"satisfied":["phi_1","phi_4","phi_5"],"violated":[],"vacuous":[]},"profile_b":{"score":0,"satisfied":[],"violated":["phi_1"],"vacuous":[]}}|}
    {
      P.rid = "s1";
      rbody =
        P.Compared
          {
            preference = "a";
            margin = 3;
            margin_specs = [ "phi_5" ];
            vacuous_margin = false;
            profile_a =
              {
                score = 3;
                satisfied = [ "phi_1"; "phi_4"; "phi_5" ];
                violated = [];
                vacuous = [];
              };
            profile_b =
              { score = 0; satisfied = []; violated = [ "phi_1" ]; vacuous = [] };
            explanations = None;
          };
      queue_wait_us = 1.0;
      execute_us = 2.0;
    };
  check_response
    {|{"id":"s2","status":"ok","queue_wait_us":1,"execute_us":2,"preference":"a","margin":1,"margin_specs":["phi_1"],"vacuous_margin":false,"profile_a":{"score":1,"satisfied":["phi_1"],"violated":[],"vacuous":[]},"profile_b":{"score":0,"satisfied":[],"violated":["phi_1"],"vacuous":[]},"explanations":[{"spec":"phi_1","text":"step 2 allows `proceed` while `red_light` holds, violating phi_1"}]}|}
    {
      P.rid = "s2";
      rbody =
        P.Compared
          {
            preference = "a";
            margin = 1;
            margin_specs = [ "phi_1" ];
            vacuous_margin = false;
            profile_a =
              { score = 1; satisfied = [ "phi_1" ]; violated = []; vacuous = [] };
            profile_b =
              { score = 0; satisfied = []; violated = [ "phi_1" ]; vacuous = [] };
            explanations =
              Some
                [
                  {
                    P.espec = "phi_1";
                    etext =
                      "step 2 allows `proceed` while `red_light` holds, \
                       violating phi_1";
                  };
                ];
          };
      queue_wait_us = 1.0;
      execute_us = 2.0;
    }

(* the ops plane verbs, untagged and domain-tagged, both directions *)
let test_ops_goldens () =
  check_request {|{"id":"st1","kind":"stats"}|}
    { P.id = "st1"; kind = P.Stats { domain = None }; deadline_ms = None };
  check_request {|{"id":"st2","kind":"stats","domain":"driving"}|}
    {
      P.id = "st2";
      kind = P.Stats { domain = Some "driving" };
      deadline_ms = None;
    };
  check_request {|{"id":"h1","kind":"health"}|}
    { P.id = "h1"; kind = P.Health { domain = None }; deadline_ms = None };
  check_request {|{"id":"h2","kind":"health","domain":"warehouse"}|}
    {
      P.id = "h2";
      kind = P.Health { domain = Some "warehouse" };
      deadline_ms = None;
    };
  (* histogram snapshots travel with bucket bounds AND counts, so the
     receiving side can recompute any percentile — nothing is lossy *)
  let snap =
    {
      Metrics.count = 3;
      sum = 0.75;
      min = 0.2;
      max = 0.3;
      buckets = [ (0.1, 0.25, 2); (0.25, 0.5, 1) ];
    }
  in
  check_response
    {|{"id":"st1","status":"ok","queue_wait_us":0,"execute_us":0,"stats":{"metrics":{"serve.completed":12},"histograms":{"serve.latency":{"count":3,"sum":0.75,"min":0.2,"max":0.3,"p50":0.25,"p90":0.3,"p99":0.3,"buckets":[[0.1,0.25,2],[0.25,0.5,1]]}},"runtime":{"gc.heap_words":4096}}}|}
    {
      P.rid = "st1";
      rbody =
        P.Stats_report
          {
            metrics = [ ("serve.completed", 12.0) ];
            histograms = [ ("serve.latency", snap) ];
            runtime = [ ("gc.heap_words", 4096.0) ];
          };
      queue_wait_us = 0.0;
      execute_us = 0.0;
    };
  check_response
    {|{"id":"h1","status":"ok","queue_wait_us":0,"execute_us":0,"health":{"queue_depth":3,"in_flight_batches":1,"draining":false,"domains":{"driving":10,"warehouse":2}}}|}
    {
      P.rid = "h1";
      rbody =
        P.Health_report
          {
            queue_depth = 3;
            in_flight_batches = 1;
            draining = false;
            domains = [ ("driving", 10); ("warehouse", 2) ];
            shards = [];
          };
      queue_wait_us = 0.0;
      execute_us = 0.0;
    }

let contains hay needle =
  let h = String.length hay and n = String.length needle in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_protocol_strictness () =
  let expect_error what line needle =
    match P.request_of_string line with
    | Ok _ -> Alcotest.failf "%s: expected a decode error" what
    | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s mentions %S (got %S)" what needle msg)
          true (contains msg needle)
  in
  expect_error "malformed json" "{not json" "malformed JSON";
  expect_error "missing id" {|{"kind":"verify","steps":[]}|} "id";
  expect_error "unknown kind" {|{"id":"x","kind":"transmogrify"}|}
    "unknown request kind";
  (* the unknown-kind error enumerates the verbs, refine included *)
  expect_error "unknown kind lists refine" {|{"id":"x","kind":"transmogrify"}|}
    "refine";
  expect_error "typed field" {|{"id":"x","kind":"verify","steps":"stop"}|}
    "must be an array";
  expect_error "bad deadline"
    {|{"id":"x","kind":"verify","steps":[],"deadline_ms":-5}|} "positive";
  expect_error "non-object budget"
    {|{"id":"x","kind":"refine","task":"t","steps":[],"seed":0,"budget":5}|}
    "must be an object";
  expect_error "non-positive budget bound"
    {|{"id":"x","kind":"refine","task":"t","steps":[],"seed":0,"budget":{"max_rounds":0}}|}
    ">= 1"

(* strict integers: every integer field rejects a non-integral value and
   one beyond 2^53, where [int_of_float] would round or wrap it *)
let test_strict_integers () =
  let expect what decode line needle =
    match decode line with
    | Ok _ -> Alcotest.failf "%s: expected a decode error" what
    | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s mentions %S (got %S)" what needle msg)
          true (contains msg needle)
  in
  let request what line =
    expect what (fun l -> Result.map ignore (P.request_of_string l)) line
  and response what line =
    expect what (fun l -> Result.map ignore (P.response_of_string l)) line
  in
  let head = {|"id":"x","status":"ok","queue_wait_us":0,"execute_us":0|} in
  let profile score =
    Printf.sprintf {|{"score":%s,"satisfied":[],"violated":[],"vacuous":[]}|}
      score
  in
  request "generate seed" {|{"id":"x","kind":"generate","task":"t","seed":1.5}|}
    {|field "seed" must be an integer|};
  request "generate seed beyond 2^53"
    {|{"id":"x","kind":"generate","task":"t","seed":1e300}|}
    {|field "seed" must be an integer|};
  request "refine seed"
    {|{"id":"x","kind":"refine","task":"t","steps":[],"seed":-2.5}|}
    {|field "seed" must be an integer|};
  request "budget max_rounds"
    {|{"id":"x","kind":"refine","task":"t","steps":[],"seed":0,"budget":{"max_rounds":1.5}}|}
    {|field "max_rounds" must be an integer|};
  request "budget attempts"
    {|{"id":"x","kind":"refine","task":"t","steps":[],"seed":0,"budget":{"attempts":9007199254740994}}|}
    {|field "attempts" must be an integer|};
  response "profile score"
    (Printf.sprintf {|{%s,"profile":%s}|} head (profile "2.5"))
    {|field "score" must be an integer|};
  response "generated tokens"
    (Printf.sprintf {|{%s,"steps":[],"tokens":[1,2.5],"profile":%s}|} head
       (profile "0"))
    {|field "tokens" must contain only integers|};
  response "compared margin"
    (Printf.sprintf
       {|{%s,"preference":"a","margin":0.5,"margin_specs":[],"vacuous_margin":false,"profile_a":%s,"profile_b":%s}|}
       head (profile "0") (profile "0"))
    {|field "margin" must be an integer|};
  let refined round margin =
    Printf.sprintf
      {|{%s,"refine":{"status":"clean","original_profile":%s,"final_steps":[],"final_profile":%s,"rounds":[{"round":%s,"violated":[],"accepted":true,"margin":%s}]}}|}
      head (profile "0") (profile "0") round margin
  in
  response "round index" (refined "1.5" "1") {|field "round" must be an integer|};
  response "round margin" (refined "1" "1e16")
    {|field "margin" must be an integer|};
  let health ?(shard = "") queue_depth in_flight domain =
    Printf.sprintf
      {|{%s,"health":{"queue_depth":%s,"in_flight_batches":%s,"draining":false,"domains":{"driving":%s}%s}}|}
      head queue_depth in_flight domain shard
  in
  response "health queue_depth" (health "0.5" "0" "0")
    {|field "queue_depth" must be an integer|};
  response "health in_flight_batches" (health "0" "-0.5" "0")
    {|field "in_flight_batches" must be an integer|};
  response "health domains" (health "0" "0" "3.25")
    {|field "domains" must map names to integers|};
  let shard q i r =
    Printf.sprintf
      {|,"shards":[{"shard":"shard0","queue_depth":%s,"in_flight":%s,"requests":%s,"draining":false}]|}
      q i r
  in
  response "shard queue_depth" (health ~shard:(shard "0.5" "0" "0") "0" "0" "0")
    {|field "queue_depth" must be an integer|};
  response "shard in_flight" (health ~shard:(shard "0" "0.5" "0") "0" "0" "0")
    {|field "in_flight" must be an integer|};
  response "shard requests" (health ~shard:(shard "0" "0" "1e20") "0" "0" "0")
    {|field "requests" must be an integer|};
  let stats count bucket =
    Printf.sprintf
      {|{%s,"stats":{"metrics":{},"histograms":{"h":{"count":%s,"sum":1,"min":1,"max":1,"buckets":[[0.5,1,%s]]}},"runtime":{}}}|}
      head count bucket
  in
  response "histogram count" (stats "1.5" "1")
    {|histogram snapshot field "count" must be an integer|};
  response "histogram bucket count" (stats "1" "0.5")
    "bucket counts must be integers";
  (* the bound itself is an integer; the goldens cover the small ones *)
  match
    P.request_of_string
      {|{"id":"x","kind":"generate","task":"t","seed":9007199254740992}|}
  with
  | Ok { P.kind = P.Generate { seed; _ }; _ } ->
      Alcotest.(check int) "2^53 decodes exactly" (1 lsl 53) seed
  | _ -> Alcotest.fail "2^53 must decode as a seed"

(* ---------------- encoder oracle ---------------- *)

(* The tree encoder that the field-by-field writer replaced, kept as the
   oracle: each value becomes a Json.t tree, printed by this module's own
   copy of the old printer (Printf number formatting, escaping one
   character at a time), so a fault in the writer cannot hide on both
   sides. *)
module Oracle = struct
  module Json = Dpoaf_util.Json
  open P

  let escape b s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s

  let add_num b v =
    if Float.is_nan v || Float.abs v = Float.infinity then
      Buffer.add_string b "null"
    else if Float.is_integer v && Float.abs v < 1e15 then
      Buffer.add_string b (Printf.sprintf "%.0f" v)
    else
      let s = Printf.sprintf "%.15g" v in
      let s = if float_of_string s = v then s else Printf.sprintf "%.17g" v in
      Buffer.add_string b s

  let rec write b = function
    | Json.Null -> Buffer.add_string b "null"
    | Json.Bool true -> Buffer.add_string b "true"
    | Json.Bool false -> Buffer.add_string b "false"
    | Json.Num v -> add_num b v
    | Json.Str s ->
        Buffer.add_char b '"';
        escape b s;
        Buffer.add_char b '"'
    | Json.Arr xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            write b x)
          xs;
        Buffer.add_char b ']'
    | Json.Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            escape b k;
            Buffer.add_string b "\":";
            write b v)
          kvs;
        Buffer.add_char b '}'

  let to_string v =
    let b = Buffer.create 256 in
    write b v;
    Buffer.contents b

  let jstrs xs = Json.arr (List.map Json.str xs)
  let jint i = Json.num (float_of_int i)
  let jints xs = Json.arr (List.map jint xs)

  let jexplanations ?(name = "explanations") = function
    | None -> []
    | Some es ->
        [
          ( name,
            Json.arr
              (List.map
                 (fun e ->
                   Json.obj
                     [ ("spec", Json.str e.espec); ("text", Json.str e.etext) ])
                 es) );
        ]

  let json_of_profile p =
    Json.obj
      [
        ("score", jint p.score);
        ("satisfied", jstrs p.satisfied);
        ("violated", jstrs p.violated);
        ("vacuous", jstrs p.vacuous);
      ]

  let opt name f = function None -> [] | Some v -> [ (name, f v) ]
  let flag name v = if v then [ (name, Json.Bool true) ] else []

  let json_of_request r =
    let base =
      match r.kind with
      | Generate { task; seed; temperature; domain } ->
          [
            ("kind", Json.str "generate");
            ("task", Json.str task);
            ("seed", jint seed);
            ("temperature", Json.num temperature);
          ]
          @ opt "domain" Json.str domain
      | Verify { steps; scenario; domain; explain } ->
          ("kind", Json.str "verify")
          :: ("steps", jstrs steps)
          :: (opt "scenario" Json.str scenario
             @ opt "domain" Json.str domain
             @ flag "explain" explain)
      | Score_pair { steps_a; steps_b; scenario; domain; explain } ->
          ("kind", Json.str "score_pair")
          :: ("steps_a", jstrs steps_a)
          :: ("steps_b", jstrs steps_b)
          :: (opt "scenario" Json.str scenario
             @ opt "domain" Json.str domain
             @ flag "explain" explain)
      | Refine
          { task; steps; seed; scenario; domain; explain; max_rounds; attempts }
        ->
          let budget =
            match opt "max_rounds" jint max_rounds @ opt "attempts" jint attempts with
            | [] -> []
            | ms -> [ ("budget", Json.obj ms) ]
          in
          ("kind", Json.str "refine")
          :: ("task", Json.str task)
          :: ("steps", jstrs steps)
          :: ("seed", jint seed)
          :: (opt "scenario" Json.str scenario
             @ opt "domain" Json.str domain
             @ flag "explain" explain @ budget)
      | Stats { domain } -> ("kind", Json.str "stats") :: opt "domain" Json.str domain
      | Health { domain } ->
          ("kind", Json.str "health") :: opt "domain" Json.str domain
    in
    Json.obj
      ((("id", Json.str r.id) :: base) @ opt "deadline_ms" Json.num r.deadline_ms)

  let json_of_response r =
    let payload =
      match r.rbody with
      | Generated { steps; tokens; profile } ->
          [
            ("steps", jstrs steps);
            ("tokens", jints tokens);
            ("profile", json_of_profile profile);
          ]
      | Verified { profile; explanations } ->
          ("profile", json_of_profile profile) :: jexplanations explanations
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
          [
            ("preference", Json.str preference);
            ("margin", jint margin);
            ("margin_specs", jstrs margin_specs);
            ("vacuous_margin", Json.Bool vacuous_margin);
            ("profile_a", json_of_profile profile_a);
            ("profile_b", json_of_profile profile_b);
          ]
          @ jexplanations explanations
      | Refined
          {
            rstatus;
            deadline_hit;
            original_profile;
            final_steps;
            final_profile;
            rounds;
          } ->
          let json_of_round r =
            Json.obj
              ([
                 ("round", jint r.rr_index);
                 ("violated", jstrs r.rr_violated);
                 ("accepted", Json.Bool r.rr_accepted);
                 ("margin", jint r.rr_margin);
               ]
              @ jexplanations ~name:"feedback" r.rr_feedback)
          in
          [
            ( "refine",
              Json.obj
                ([ ("status", Json.str rstatus) ]
                @ flag "deadline_hit" deadline_hit
                @ [
                    ("original_profile", json_of_profile original_profile);
                    ("final_steps", jstrs final_steps);
                    ("final_profile", json_of_profile final_profile);
                    ("rounds", Json.arr (List.map json_of_round rounds));
                  ]) );
          ]
      | Stats_report { metrics; histograms; runtime } ->
          let nums kvs =
            Json.obj (List.map (fun (k, v) -> (k, Json.num v)) kvs)
          in
          [
            ( "stats",
              Json.obj
                [
                  ("metrics", nums metrics);
                  ( "histograms",
                    Json.obj
                      (List.map
                         (fun (k, s) -> (k, Metrics.json_of_snapshot s))
                         histograms) );
                  ("runtime", nums runtime);
                ] );
          ]
      | Health_report
          { queue_depth; in_flight_batches; draining; domains; shards } ->
          let jshards =
            match shards with
            | [] -> []
            | _ ->
                [
                  ( "shards",
                    Json.arr
                      (List.map
                         (fun s ->
                           Json.obj
                             [
                               ("shard", Json.str s.sh_shard);
                               ("queue_depth", jint s.sh_queue_depth);
                               ("in_flight", jint s.sh_in_flight);
                               ("requests", jint s.sh_requests);
                               ("draining", Json.Bool s.sh_draining);
                             ])
                         shards) );
                ]
          in
          [
            ( "health",
              Json.obj
                ([
                   ("queue_depth", jint queue_depth);
                   ("in_flight_batches", jint in_flight_batches);
                   ("draining", Json.Bool draining);
                   ( "domains",
                     Json.obj (List.map (fun (d, n) -> (d, jint n)) domains) );
                 ]
                @ jshards) );
          ]
      | Rejected reason -> [ ("reason", Json.str reason) ]
      | Expired -> []
      | Failed msg -> [ ("error", Json.str msg) ]
    in
    Json.obj
      ([
         ("id", Json.str r.rid);
         ("status", Json.str (status_of_body r.rbody));
         ("queue_wait_us", Json.num r.queue_wait_us);
         ("execute_us", Json.num r.execute_us);
       ]
      @ payload)

  let request_to_string r = to_string (json_of_request r)
  let response_to_string r = to_string (json_of_response r)
end

module G = QCheck.Gen

(* text with every escaping case: quote, backslash, the named control
   escapes, other control bytes, DEL, multi-byte UTF-8 and any byte *)
let gen_text =
  G.(
    map (String.concat "")
      (list_size (0 -- 5)
         (frequency
            [
              ( 3,
                oneofl
                  [ "\""; "\\"; "\n"; "\r"; "\t"; "\000"; "\001"; "\x1f"; "\x7f";
                    "/"; "\xc3\xa9"; "\xe2\x86\x92"; "\xf0\x9f\x98\x80";
                    "phi_1"; "turn right"; " " ] );
              (1, map (String.make 1) char);
            ])))

(* the number formatter's edges: negative zero, both sides of 1e15 (the
   integer-form bound), 2^53, subnormals, values needing all 17 digits *)
let edge_floats =
  [ 0.0; -0.0; 1.0; -1.0; 12.5; 1e15; -1e15; 1e15 -. 1.0; 1e15 +. 1.0;
    -.(1e15 -. 1.0); -.(1e15 +. 1.0); 0x1p53; -0x1p53; 0x1p53 +. 2.0;
    5e-324; -5e-324; 2.2250738585072009e-308; 0.1; 1.0 /. 3.0;
    0.30000000000000004; 123456.78901234567; 1e300; Float.max_float ]

let gen_finite =
  G.(
    oneof
      [
        oneofl edge_floats;
        float_range (-1e6) 1e6;
        map
          (fun bits ->
            let f = Int64.float_of_bits bits in
            if Float.is_finite f then f else 0.5)
          ui64;
      ])

let gen_int =
  G.(
    oneof
      [
        small_signed_int;
        oneofl
          [ 999_999_999_999_999; 1_000_000_000_000_000;
            -1_000_000_000_000_001; 1 lsl 53; -(1 lsl 53) ];
        int_range (-(1 lsl 53)) (1 lsl 53);
      ])

let gen_texts = G.(list_size (0 -- 4) gen_text)
let gen_domain = G.opt gen_text

let gen_kind =
  let open G in
  oneof
    [
      (let+ task = gen_text and+ seed = gen_int and+ temperature = gen_finite
       and+ domain = gen_domain in
       P.Generate { task; seed; temperature; domain });
      (let+ steps = gen_texts and+ scenario = opt gen_text and+ domain = gen_domain
       and+ explain = bool in
       P.Verify { steps; scenario; domain; explain });
      (let+ steps_a = gen_texts and+ steps_b = gen_texts
       and+ scenario = opt gen_text and+ domain = gen_domain and+ explain = bool in
       P.Score_pair { steps_a; steps_b; scenario; domain; explain });
      (let+ task = gen_text and+ steps = gen_texts and+ seed = gen_int
       and+ scenario = opt gen_text and+ domain = gen_domain and+ explain = bool
       and+ max_rounds = opt (1 -- 1000) and+ attempts = opt (int_range 1 (1 lsl 53)) in
       P.Refine
         { task; steps; seed; scenario; domain; explain; max_rounds; attempts });
      map (fun domain -> P.Stats { domain }) gen_domain;
      map (fun domain -> P.Health { domain }) gen_domain;
    ]

let gen_request =
  let open G in
  let+ id = gen_text and+ kind = gen_kind
  and+ deadline_ms = opt (map (fun f -> Float.abs f +. 1e-3) gen_finite) in
  { P.id; kind; deadline_ms }

let gen_profile =
  let open G in
  let+ score = gen_int and+ satisfied = gen_texts and+ violated = gen_texts
  and+ vacuous = gen_texts in
  { P.score; satisfied; violated; vacuous }

let gen_explanations =
  G.(
    opt
      (list_size (0 -- 3)
         (let+ espec = gen_text and+ etext = gen_text in
          { P.espec; etext })))

let gen_round =
  let open G in
  let+ rr_index = gen_int and+ rr_violated = gen_texts and+ rr_accepted = bool
  and+ rr_margin = gen_int and+ rr_feedback = gen_explanations in
  { P.rr_index; rr_violated; rr_accepted; rr_margin; rr_feedback }

(* a plausible snapshot: ascending buckets whose counts sum to [count] *)
let gen_snapshot =
  let open G in
  let+ counts = list_size (0 -- 4) (0 -- 1000) and+ sum = gen_finite
  and+ low = float_range 1e-6 1.0 in
  let buckets =
    List.mapi
      (fun i c -> (low *. (2.0 ** float_of_int i), low *. (2.0 ** float_of_int (i + 1)), c))
      counts
  in
  {
    Metrics.count = List.fold_left ( + ) 0 counts;
    sum;
    min = low;
    max = low *. (2.0 ** float_of_int (List.length counts));
    buckets;
  }

(* stats values may be NaN or infinite: they print as null *)
let gen_gauge =
  G.(frequency [ (4, gen_finite); (1, oneofl [ Float.nan; Float.infinity; Float.neg_infinity ]) ])

let gen_body =
  let open G in
  oneof
    [
      (let+ steps = gen_texts and+ tokens = list_size (0 -- 40) gen_int
       and+ profile = gen_profile in
       P.Generated { steps; tokens; profile });
      (let+ profile = gen_profile and+ explanations = gen_explanations in
       P.Verified { profile; explanations });
      (let+ preference = gen_text and+ margin = gen_int
       and+ margin_specs = gen_texts and+ vacuous_margin = bool
       and+ profile_a = gen_profile and+ profile_b = gen_profile
       and+ explanations = gen_explanations in
       P.Compared
         { preference; margin; margin_specs; vacuous_margin; profile_a;
           profile_b; explanations });
      (let+ rstatus = gen_text and+ deadline_hit = bool
       and+ original_profile = gen_profile and+ final_steps = gen_texts
       and+ final_profile = gen_profile and+ rounds = list_size (0 -- 3) gen_round in
       P.Refined
         { rstatus; deadline_hit; original_profile; final_steps; final_profile;
           rounds });
      (let+ metrics = list_size (0 -- 4) (pair gen_text gen_gauge)
       and+ histograms = list_size (0 -- 2) (pair gen_text gen_snapshot)
       and+ runtime = list_size (0 -- 3) (pair gen_text gen_gauge) in
       P.Stats_report { metrics; histograms; runtime });
      (let+ queue_depth = gen_int and+ in_flight_batches = gen_int
       and+ draining = bool and+ domains = list_size (0 -- 3) (pair gen_text gen_int)
       and+ shards =
         list_size (0 -- 3)
           (let+ sh_shard = gen_text and+ sh_queue_depth = gen_int
            and+ sh_in_flight = gen_int and+ sh_requests = gen_int
            and+ sh_draining = bool in
            { P.sh_shard; sh_queue_depth; sh_in_flight; sh_requests; sh_draining })
       in
       P.Health_report { queue_depth; in_flight_batches; draining; domains; shards });
      map (fun r -> P.Rejected r) gen_text;
      return P.Expired;
      map (fun m -> P.Failed m) gen_text;
    ]

let gen_response =
  let open G in
  let+ rid = gen_text and+ rbody = gen_body and+ queue_wait_us = gen_finite
  and+ execute_us = gen_finite in
  { P.rid; rbody; queue_wait_us; execute_us }

let prop_request_oracle =
  QCheck.Test.make ~count:1000 ~name:"request encoder = tree oracle"
    (QCheck.make ~print:Oracle.request_to_string gen_request)
    (fun r ->
      let line = P.request_to_string r in
      line = Oracle.request_to_string r && P.request_of_string line = Ok r)

(* NaN and infinities print as null, which no decoder reads back as a
   number: such a response is held to the oracle's bytes only *)
let finite_body = function
  | P.Stats_report { metrics; runtime; _ } ->
      List.for_all (fun (_, v) -> Float.is_finite v) (metrics @ runtime)
  | _ -> true

let prop_response_oracle =
  QCheck.Test.make ~count:1000 ~name:"response encoder = tree oracle"
    (QCheck.make ~print:Oracle.response_to_string gen_response)
    (fun r ->
      let line = P.response_to_string r in
      (* the daemon appends to a buffer that already holds earlier lines *)
      let appended =
        let b = Buffer.create 16 in
        Buffer.add_string b "{}\n";
        P.write_response b r;
        Buffer.sub b 3 (Buffer.length b - 3)
      in
      line = Oracle.response_to_string r
      && appended = line
      && ((not (finite_body r.P.rbody)) || P.response_of_string line = Ok r))

(* Json.to_string (traces, metrics, the journal, preference stores) goes
   through the same writer *)
let gen_json =
  let open G in
  let module Json = Dpoaf_util.Json in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun v -> Json.Bool v) bool;
        map (fun v -> Json.Num v) gen_gauge;
        map (fun v -> Json.Str v) gen_text;
      ]
  in
  sized_size (0 -- 3)
    (fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (1, leaf);
               (1, map (fun xs -> Json.Arr xs) (list_size (0 -- 4) (self (n - 1))));
               ( 1,
                 map
                   (fun kvs -> Json.Obj kvs)
                   (list_size (0 -- 4) (pair gen_text (self (n - 1)))) );
             ]))

let prop_json_oracle =
  QCheck.Test.make ~count:1000 ~name:"Json.to_string = tree oracle"
    (QCheck.make ~print:Oracle.to_string gen_json)
    (fun j -> Dpoaf_util.Json.to_string j = Oracle.to_string j)

(* ---------------- decoder fuzz ---------------- *)

(* the golden lines of every protocol test above, gathered by running
   them *)
let fuzz_corpus =
  lazy
    (golden_lines := [];
     test_request_goldens ();
     test_response_goldens ();
     test_refine_goldens ();
     test_ops_goldens ();
     Array.of_list (List.rev !golden_lines))

(* a golden line with one to three bytes flipped, cut or inserted, or a
   string of random bytes *)
let gen_fuzzed_line st =
  let corpus = Lazy.force fuzz_corpus in
  let byte st =
    if Random.State.bool st then
      G.oneofl [ '"'; '\\'; '{'; '}'; '['; ']'; ','; ':'; '-'; '.'; 'e'; '0'; '9'; 'n'; 'u' ] st
    else G.char st
  in
  let mutate s =
    let n = String.length s in
    let at = Random.State.int st (n + 1) in
    match Random.State.int st 3 with
    | 0 when n > 0 ->
        let at = min at (n - 1) in
        String.mapi (fun i c -> if i = at then byte st else c) s
    | 1 ->
        let stop = at + Random.State.int st (n - at + 1) in
        String.sub s 0 at ^ String.sub s stop (n - stop)
    | _ -> String.sub s 0 at ^ String.make 1 (byte st) ^ String.sub s at (n - at)
  in
  if Random.State.int st 8 = 0 then G.(string_size ~gen:char (0 -- 64)) st
  else
    let line = corpus.(Random.State.int st (Array.length corpus)) in
    let rec go k s = if k = 0 then s else go (k - 1) (mutate s) in
    go (1 + Random.State.int st 3) line

let reencodes decode encode line =
  match decode line with
  | Ok x -> decode (encode x) = Ok x
  | Error _ -> true

let prop_decoder_fuzz =
  QCheck.Test.make ~count:3000
    ~name:"decoder fuzz: no raise, Ok round-trips"
    (QCheck.make ~print:String.escaped gen_fuzzed_line)
    (fun line ->
      reencodes P.request_of_string P.request_to_string line
      && reencodes P.response_of_string P.response_to_string line)

(* ---------------- server scheduling ---------------- *)

let verify_request ?deadline_ms id =
  {
    P.id;
    kind = P.Verify { steps = [ id ]; scenario = None; domain = None; explain = false };
    deadline_ms;
  }

let test_deadline_expiry () =
  let expired_before = Metrics.value (Metrics.counter "serve.expired") in
  (* one worker: while the blocker executes for 100 ms, a request with a
     20 ms deadline sits in the queue past its deadline *)
  let server =
    Server.create
      ~config:{ Server.default_config with queue_capacity = 64 }
      ~handler:(fun req ->
        (match req.P.id with "blocker" -> Unix.sleepf 0.1 | _ -> ());
        P.verified ok_profile)
      ()
  in
  let blocker = Server.submit_async server (verify_request "blocker") in
  (* give the worker time to pull the blocker into execution *)
  Unix.sleepf 0.02;
  let doomed =
    Server.submit_async server (verify_request ~deadline_ms:20.0 "doomed")
  in
  let r = Server.await doomed in
  Alcotest.(check body_testable) "expired, not executed" P.Expired r.P.rbody;
  Alcotest.(check bool) "waited at least its deadline" true
    (r.P.queue_wait_us >= 20_000.0);
  Alcotest.(check (float 0.0)) "no execute time" 0.0 r.P.execute_us;
  Alcotest.(check body_testable) "blocker unaffected" (P.verified ok_profile)
    (Server.await blocker).P.rbody;
  Server.drain server;
  Alcotest.(check bool) "expired counter advanced" true
    (Metrics.value (Metrics.counter "serve.expired") > expired_before)

(* a full queue rejects synchronously, on an unlabelled server and on a
   labelled fleet replica alike; the reject is never counted as admitted *)
let test_queue_full_reject ?label () =
  let server =
    Server.create
      ~config:{ Server.default_config with queue_capacity = 2 }
      ?label
      ~handler:(fun _ -> Unix.sleepf 0.3; P.verified ok_profile)
      ()
  in
  let blocker = Server.submit_async server (verify_request "b0") in
  Unix.sleepf 0.02;
  (* the blocker is executing; these two fill the whole queue *)
  let queued =
    [ Server.submit_async server (verify_request "b1");
      Server.submit_async server (verify_request "b2") ]
  in
  let overflow = Server.submit_async server (verify_request "b3") in
  (* the reject is synchronous: no awaiting, no timing dependence *)
  (match Server.peek overflow with
  | Some { P.rbody = P.Rejected reason; _ } ->
      Alcotest.(check bool) "reason names the capacity" true
        (contains reason "queue full (capacity 2)")
  | Some r ->
      Alcotest.failf "expected an immediate reject, got %s"
        (P.status_of_body r.P.rbody)
  | None -> Alcotest.fail "expected an immediate reject, got a pending ticket");
  Alcotest.(check int) "the reject is not admitted" 3 (Server.admitted server);
  List.iter
    (fun t ->
      Alcotest.(check body_testable) "queued requests still complete"
        (P.verified ok_profile) (Server.await t).P.rbody)
    (blocker :: queued);
  Server.drain server

let test_drain_completes_inflight () =
  let server =
    Server.create
      ~config:{ Server.default_config with jobs = 2; queue_capacity = 64 }
      ~handler:(fun _ -> Unix.sleepf 0.03; P.verified ok_profile)
      ()
  in
  let tickets =
    List.init 10 (fun i ->
        Server.submit_async server (verify_request (Printf.sprintf "d%d" i)))
  in
  Server.drain server;
  (* after drain returns, every admitted request must already be answered *)
  List.iter
    (fun t ->
      match Server.peek t with
      | Some r ->
          Alcotest.(check body_testable) "completed during drain"
            (P.verified ok_profile) r.P.rbody
      | None -> Alcotest.fail "drain returned with an unanswered request")
    tickets;
  let late = Server.submit_async server (verify_request "late") in
  (match Server.peek late with
  | Some { P.rbody = P.Rejected reason; _ } ->
      Alcotest.(check bool) "late submission names draining" true
        (contains reason "draining")
  | _ -> Alcotest.fail "submission after drain must reject immediately");
  (* idempotent *)
  Server.drain server

(* the scheduling contract, run on an unlabelled server and on a
   labelled fleet replica: everything completes with its id echoed, the
   server publishes its queue-depth and in-flight gauges under its own
   prefix, and submissions after drain reject *)
let test_scheduling_contract ?label () =
  let prefix = match label with None -> "serve" | Some l -> "serve." ^ l in
  let server =
    Server.create
      ~config:{ Server.default_config with jobs = 2; queue_capacity = 64 }
      ?label
      ~handler:(fun _ -> P.verified ok_profile)
      ()
  in
  Alcotest.(check (option string)) "reports its label" label
    (Server.label server);
  let tickets =
    List.init 20 (fun i ->
        Server.submit_async server (verify_request (Printf.sprintf "c%d" i)))
  in
  List.iteri
    (fun i t ->
      let r = Server.await t in
      Alcotest.(check string) "id echoed" (Printf.sprintf "c%d" i) r.P.rid;
      Alcotest.(check body_testable) "ok" (P.verified ok_profile) r.P.rbody)
    tickets;
  let keys = List.map fst (Metrics.summary ()) in
  Alcotest.(check bool) (prefix ^ " queue-depth gauge") true
    (List.mem (prefix ^ ".queue.depth.level") keys);
  Alcotest.(check bool) (prefix ^ " in-flight gauge") true
    (List.mem (prefix ^ ".in_flight.level") keys);
  Alcotest.(check int) "admitted counts accepts" 20 (Server.admitted server);
  Server.drain server;
  let late = Server.submit_async server (verify_request "late") in
  (match Server.peek late with
  | Some { P.rbody = P.Rejected reason; _ } ->
      Alcotest.(check bool) "late submission names draining" true
        (contains reason "draining")
  | _ -> Alcotest.fail "submission after drain must reject immediately");
  Server.drain server

(* ---------------- router ---------------- *)

let gen_request ?domain ?(id = "g") ?(seed = 1) task =
  {
    P.id;
    kind = P.Generate { task; seed; temperature = 1.0; domain };
    deadline_ms = None;
  }

(* FNV-1a/64 goldens: these exact shard assignments must hold forever —
   a silent change to the hash or the key format would re-shuffle every
   fleet's cache affinity on upgrade *)
let test_router_goldens () =
  let gen = gen_request "right_turn_tl" in
  let ver = verify_request "v" in
  let ver =
    {
      ver with
      P.kind =
        P.Verify
          {
            steps = [ "come to a complete stop"; "turn right" ];
            scenario = None;
            domain = None;
            explain = false;
          };
    }
  in
  Alcotest.(check (option string)) "generate key"
    (Some "prompt//right_turn_tl") (Router.shard_key gen);
  Alcotest.(check (option string)) "verify key"
    (Some "steps//come to a complete stop\x1fturn right")
    (Router.shard_key ver);
  Alcotest.(check int) "generate shards=4" 2 (Router.shard_for ~shards:4 gen);
  Alcotest.(check int) "generate shards=2" 0 (Router.shard_for ~shards:2 gen);
  Alcotest.(check int) "generate shards=8" 2 (Router.shard_for ~shards:8 gen);
  Alcotest.(check int) "verify shards=4" 3 (Router.shard_for ~shards:4 ver);
  Alcotest.(check int) "verify shards=2" 1 (Router.shard_for ~shards:2 ver);
  (* the domain participates in the key: the same task in another pack
     is another prompt *)
  Alcotest.(check int) "domain-tagged generate shards=4" 1
    (Router.shard_for ~shards:4 (gen_request ~domain:"driving" "right_turn_tl"));
  (* ops verbs carry no prompt and pin to shard 0 *)
  let health =
    { P.id = "h"; kind = P.Health { domain = None }; deadline_ms = None }
  in
  Alcotest.(check (option string)) "ops have no key" None
    (Router.shard_key health);
  Alcotest.(check int) "ops route to shard 0" 0
    (Router.shard_for ~shards:7 health);
  Alcotest.(check int) "single shard is total" 0
    (Router.shard_for ~shards:1 gen)

(* routing is pure prompt affinity: always in range, invariant under
   everything that is not the prompt identity (id, deadline, seed,
   temperature, explain), and generate/refine of one task cohabit — they
   fold the same prompt, so they must share a replica's cache *)
let prop_router_stability =
  let gen =
    QCheck.Gen.(
      triple (int_range 1 8)
        (string_size ~gen:printable (int_range 0 12))
        (list_size (int_range 0 4) (string_size ~gen:printable (int_range 0 8))))
  in
  QCheck.Test.make ~count:200
    ~name:"router: in range, prompt-identity only, generate/refine cohabit"
    (QCheck.make
       ~print:(fun (s, t, steps) ->
         Printf.sprintf "shards=%d task=%S steps=[%s]" s t
           (String.concat ";" (List.map (Printf.sprintf "%S") steps)))
       gen)
    (fun (shards, task, steps) ->
      let in_range i = 0 <= i && i < shards in
      let g id seed = gen_request ~id ~seed task in
      let refine id =
        {
          P.id;
          kind =
            P.Refine
              { task; steps; seed = 3; scenario = None; domain = None;
                explain = false; max_rounds = None; attempts = None };
          deadline_ms = None;
        }
      in
      let ver id explain deadline_ms =
        {
          P.id;
          kind = P.Verify { steps; scenario = None; domain = None; explain };
          deadline_ms;
        }
      in
      let sg = Router.shard_for ~shards (g "a" 1) in
      let sv = Router.shard_for ~shards (ver "v" false None) in
      in_range sg && in_range sv
      && sg = Router.shard_for ~shards (g "zzz" 999_999)
      && sg = Router.shard_for ~shards (refine "r")
      && sv = Router.shard_for ~shards (ver "w" true (Some 5.0))
      && (shards > 1 || sg = 0))

(* ---------------- determinism with the real engine ---------------- *)

let corpus = lazy (Dpoaf_pipeline.Corpus.build ())

let small_lm seed =
  Dpoaf_pipeline.Corpus.pretrained_model
    ~config:
      { Dpoaf_lm.Model.dim = 12; context = 10; lora_rank = 2;
        arch = Dpoaf_lm.Model.Bow }
    ~per_task:20 ~epochs:10
    (Dpoaf_util.Rng.create seed)
    (Lazy.force corpus)

let mixed_requests =
  let right = [ "come to a complete stop"; "turn right" ] in
  let risky = [ "turn right" ] in
  List.concat_map
    (fun i ->
      [
        {
          P.id = Printf.sprintf "gen%d" i;
          kind =
            P.Generate
              { task = "right_turn_tl"; seed = i; temperature = 1.0;
                domain = None };
          deadline_ms = None;
        };
        {
          P.id = Printf.sprintf "ver%d" i;
          kind =
            P.Verify
              { steps = right; scenario = Some "traffic_light"; domain = None;
                explain = false };
          deadline_ms = None;
        };
        (* explain=true here routes the loser's margin violations through
           the live explainer inside the determinism matrix, so the
           explanation text itself must also be jobs-invariant *)
        {
          P.id = Printf.sprintf "cmp%d" i;
          kind =
            P.Score_pair
              { steps_a = right; steps_b = risky; scenario = None;
                domain = None; explain = true };
          deadline_ms = None;
        };
        (* a refine request runs the whole repair loop inside a batch
           slot: its trajectory (rounds, candidates, margins — and with
           explain=true the feedback text) must be bit-identical whatever
           the worker count, which also pins that the engine passes no
           wall-clock deadline into the loop *)
        {
          P.id = Printf.sprintf "ref%d" i;
          kind =
            P.Refine
              { task = "right_turn_tl"; steps = risky; seed = i;
                scenario = None; domain = None; explain = i mod 2 = 0;
                max_rounds = Some 2; attempts = Some 2 };
          deadline_ms = None;
        };
      ])
    [ 0; 1; 2 ]

let serve_all ~jobs requests =
  let engine = Engine.create ~lm:(small_lm 11) ~corpus:(Lazy.force corpus) () in
  let server =
    Server.create
      ~config:{ Server.default_config with jobs }
      ~handler:(Engine.handle engine) ()
  in
  let tickets = List.map (Server.submit_async server) requests in
  let rs = List.map Server.await tickets in
  Server.drain server;
  List.map (fun r -> (r.P.rid, r.P.rbody)) rs

let test_jobs_determinism () =
  let base = serve_all ~jobs:1 mixed_requests in
  (* no Failed bodies: every request kind actually executes *)
  List.iter
    (fun (id, b) ->
      match b with
      | P.Failed msg -> Alcotest.failf "%s failed: %s" id msg
      | _ -> ())
    base;
  List.iter
    (fun jobs ->
      let got = serve_all ~jobs mixed_requests in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d identical to serial" jobs)
        true (got = base))
    [ 2; 4 ]

(* one shared small model for the fleet tests: training is deterministic
   (same seed as serve_all's), so sharing the weights keeps the matrix
   comparable to the single-server baseline without retraining per shard *)
let shared_lm = lazy (small_lm 11)

let serve_fleet ~shards ~jobs requests =
  let make_shard i =
    let tag = if shards = 1 then None else Some (Router.shard_name i) in
    let engine =
      Engine.create ~lm:(Lazy.force shared_lm) ?tag ~corpus:(Lazy.force corpus)
        ()
    in
    Server.create
      ~config:{ Server.default_config with jobs }
      ?label:tag ~handler:(Engine.handle engine) ()
  in
  let router = Router.create (Array.init shards make_shard) in
  let tickets = List.map (Router.submit_async router) requests in
  let rs = List.map Server.await tickets in
  Router.drain router;
  List.map (fun r -> (r.P.rid, r.P.rbody)) rs

(* sharding and worker count move only queueing and cache temperature,
   never replies — every (shards, jobs) corner returns the serial
   single-server run bit for bit *)
let test_shards_determinism () =
  let base = serve_all ~jobs:1 mixed_requests in
  List.iter
    (fun (id, b) ->
      match b with
      | P.Failed msg -> Alcotest.failf "%s failed: %s" id msg
      | _ -> ())
    base;
  List.iter
    (fun (shards, jobs) ->
      let got = serve_fleet ~shards ~jobs mixed_requests in
      Alcotest.(check bool)
        (Printf.sprintf "shards=%d jobs=%d identical to serial" shards jobs)
        true (got = base))
    [ (1, 2); (2, 1); (2, 2); (4, 2) ]

(* a full queue on one shard rejects synchronously without touching its
   siblings, the per-shard health rows see exactly that picture, and a
   fleet drain answers everything every shard admitted *)
let test_shard_queue_isolation () =
  let slow = Server.create
      ~config:{ Server.default_config with queue_capacity = 2 }
      ~label:"shard0"
      ~handler:(fun req ->
        (match req.P.id with "blocker" -> Unix.sleepf 0.3 | _ -> ());
        P.verified ok_profile)
      ()
  in
  let live = Server.create
      ~config:{ Server.default_config with queue_capacity = 64 }
      ~label:"shard1"
      ~handler:(fun _ -> P.verified ok_profile)
      ()
  in
  let router = Router.create [| slow; live |] in
  (* craft steps that provably route to each shard — the pure function is
     the oracle, so the test cannot drift from the router *)
  let to_shard shard id =
    let rec go i =
      let r =
        {
          P.id;
          kind =
            P.Verify
              { steps = [ "probe"; string_of_int i ]; scenario = None;
                domain = None; explain = false };
          deadline_ms = None;
        }
      in
      if Router.shard_for ~shards:2 r = shard then r else go (i + 1)
    in
    go 0
  in
  let blocker = Router.submit_async router (to_shard 0 "blocker") in
  Unix.sleepf 0.02;
  let queued =
    [ Router.submit_async router (to_shard 0 "q1");
      Router.submit_async router (to_shard 0 "q2") ]
  in
  let overflow = Router.submit_async router (to_shard 0 "q3") in
  (match Server.peek overflow with
  | Some { P.rbody = P.Rejected reason; _ } ->
      Alcotest.(check bool) "shard 0 rejects at its own capacity" true
        (contains reason "queue full (capacity 2)")
  | _ -> Alcotest.fail "expected an immediate reject from the full shard");
  (* the sibling shard is untouched by shard 0's saturation *)
  let r = Server.await (Router.submit_async router (to_shard 1 "alive")) in
  Alcotest.(check body_testable) "shard 1 still serves" (P.verified ok_profile)
    r.P.rbody;
  (* per-shard health rows see the asymmetry the aggregate hides *)
  let rows = Router.shard_healths router in
  Alcotest.(check (list string)) "rows use the server labels"
    [ "shard0"; "shard1" ]
    (List.map (fun s -> s.P.sh_shard) rows);
  let row name = List.find (fun s -> s.P.sh_shard = name) rows in
  Alcotest.(check int) "shard 0 queue holds the two queued" 2
    ((row "shard0").P.sh_queue_depth);
  Alcotest.(check int) "shard 1 queue is empty" 0
    ((row "shard1").P.sh_queue_depth);
  let agg = Router.health router in
  Alcotest.(check int) "aggregate depth is the sum" 2 agg.Server.queue_depth;
  Router.drain router;
  List.iter
    (fun t ->
      match Server.peek t with
      | Some r ->
          Alcotest.(check body_testable) "admitted requests drain to answers"
            (P.verified ok_profile) r.P.rbody
      | None -> Alcotest.fail "fleet drain returned with an unanswered request")
    (blocker :: queued)

(* ---------------- daemon: TCP and Unix are one protocol ---------------- *)

let normalized_response line =
  match P.response_of_string line with
  | Error e -> Alcotest.failf "daemon sent an unparseable line: %s" e
  | Ok r ->
      P.response_to_string { r with P.queue_wait_us = 0.0; execute_us = 0.0 }

let roundtrip_over fd requests =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  List.iter
    (fun r ->
      output_string oc (P.request_to_string r);
      output_char oc '\n')
    requests;
  flush oc;
  let lines = List.map (fun _ -> input_line ic) requests in
  let normalized = List.sort compare (List.map normalized_response lines) in
  Unix.close fd;
  normalized

(* run [f ~socket ~port] against an in-process daemon over [router],
   listening on a fresh Unix socket and an ephemeral TCP port; the
   daemon is stopped and joined however [f] returns *)
let with_daemon router f =
  let socket = Filename.temp_file "dpoaf-daemon" ".sock" in
  Sys.remove socket;
  let port = Atomic.make 0 in
  let daemon =
    Domain.spawn (fun () ->
        Daemon.run ~socket ~tcp_port:0
          ~on_tcp_listen:(fun p -> Atomic.set port p)
          ~router ())
  in
  let stop () =
    Daemon.request_stop ();
    Domain.join daemon
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Atomic.get port = 0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  match
    if Atomic.get port = 0 then Alcotest.fail "daemon did not bind its TCP port";
    f ~socket ~port:(Atomic.get port)
  with
  | () ->
      let stats = stop () in
      Alcotest.(check bool) "socket file removed on shutdown" false
        (Sys.file_exists socket);
      stats
  | exception e ->
      ignore (stop ());
      raise e

let connect_unix socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

(* the same pipelined batch over the Unix socket and the TCP listener
   must come back byte-identical (timings zeroed, order ignored: clients
   may pipeline and responses carry ids) *)
let test_daemon_transport_identity () =
  let make_shard i =
    let engine =
      Engine.create ~lm:(Lazy.force shared_lm)
        ~tag:(Router.shard_name i) ~corpus:(Lazy.force corpus) ()
    in
    Server.create
      ~config:{ Server.default_config with queue_capacity = 64 }
      ~label:(Router.shard_name i)
      ~handler:(Engine.handle engine) ()
  in
  let router = Router.create (Array.init 2 make_shard) in
  let requests =
    List.filter
      (fun r ->
        match r.P.kind with P.Refine _ -> false | _ -> true)
      mixed_requests
  in
  let (_ : Daemon.stats) =
    with_daemon router (fun ~socket ~port ->
        let u = roundtrip_over (connect_unix socket) requests in
        let t =
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          roundtrip_over fd requests
        in
        Alcotest.(check (list string)) "TCP equals Unix byte for byte" u t;
        (* and both transports actually executed everything *)
        List.iter
          (fun line ->
            match P.response_of_string line with
            | Ok { P.rbody = P.Failed msg; rid; _ } ->
                Alcotest.failf "%s failed: %s" rid msg
            | Ok _ -> ()
            | Error e -> Alcotest.fail e)
          u)
  in
  ()

(* a line longer than the daemon's limit gets one error line naming the
   limit and then EOF, without the daemon buffering it whole; other
   connections keep being served *)
let test_daemon_line_bound () =
  let server = Server.create ~handler:(fun _ -> P.verified ok_profile) () in
  let stats =
    with_daemon (Router.create [| server |]) (fun ~socket ~port:_ ->
        let fd = connect_unix socket in
        (* a daemon that buffers the line forever fails here, not hangs *)
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        output_string oc (String.make (Daemon.max_line_bytes + 1) 'x');
        flush oc;
        (match P.response_of_string (input_line ic) with
        | Ok { P.rid = ""; rbody = P.Failed msg; _ } ->
            Alcotest.(check bool) "error names the limit" true
              (contains msg (string_of_int Daemon.max_line_bytes))
        | Ok r ->
            Alcotest.failf "expected an error line, got %s"
              (P.status_of_body r.P.rbody)
        | Error e -> Alcotest.fail e);
        (match input_line ic with
        | exception End_of_file -> ()
        | line -> Alcotest.failf "expected EOF after the error, got %S" line);
        Unix.close fd;
        match roundtrip_over (connect_unix socket) [ verify_request "next" ] with
        | [ line ] ->
            Alcotest.(check bool) "a second connection is served" true
              (contains line {|"status":"ok"|})
        | _ -> Alcotest.fail "expected one response")
  in
  Alcotest.(check int) "one protocol error" 1 stats.Daemon.protocol_errors

(* every line of a fuzzed batch (golden lines with bytes flipped, cut or
   inserted, and random bytes) gets exactly one well-formed line back, and
   the daemon stays healthy *)
let test_daemon_fuzzed_batch () =
  let server =
    Server.create
      ~config:{ Server.default_config with queue_capacity = 1024 }
      ~handler:(fun _ -> P.verified ok_profile) ()
  in
  let lines =
    G.generate ~rand:(Random.State.make [| 24 |]) ~n:300 gen_fuzzed_line
    |> List.map (String.map (fun c -> if c = '\n' then ' ' else c))
    |> List.filter (fun l -> String.trim l <> "")
  in
  let health_id = "health-after-fuzz" in
  let stats =
    with_daemon (Router.create [| server |]) (fun ~socket ~port:_ ->
        let fd = connect_unix socket in
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        List.iter
          (fun l ->
            output_string oc l;
            output_char oc '\n')
          lines;
        output_string oc
          (P.request_to_string
             { P.id = health_id; kind = P.Health { domain = None };
               deadline_ms = None });
        output_char oc '\n';
        flush oc;
        (* ops verbs are answered ahead of queued work, so the health
           line may come before the last fuzzed answers *)
        let replies =
          List.init (List.length lines + 1) (fun _ ->
              let line = input_line ic in
              match P.response_of_string line with
              | Ok r -> r
              | Error e -> Alcotest.failf "ill-formed reply %S: %s" line e)
        in
        (match List.filter (fun r -> r.P.rid = health_id) replies with
        | [ { P.rbody = P.Health_report _; _ } ] -> ()
        | _ -> Alcotest.fail "expected one ok health reply");
        Unix.close fd)
  in
  Alcotest.(check int) "one reply per line" (List.length lines + 1)
    stats.Daemon.responses;
  Alcotest.(check int) "protocol errors are the lines that do not decode"
    (List.length
       (List.filter (fun l -> Result.is_error (P.request_of_string l)) lines))
    stats.Daemon.protocol_errors

(* a client that asks but never reads is closed once its unread responses
   pass the outbox bound, while a second client keeps being served *)
let test_daemon_outbox_bound () =
  let big = String.make 65536 'x' in
  let server =
    Server.create
      ~handler:(fun req ->
        if String.starts_with ~prefix:"slow" req.P.id then P.Failed big
        else P.verified ok_profile)
      ()
  in
  let overflows = Metrics.counter "serve.outbox_overflows" in
  let before = Metrics.value overflows in
  let asked = 3 * Daemon.max_outbox_bytes / String.length big in
  let served name socket =
    match roundtrip_over (connect_unix socket) [ verify_request name ] with
    | [ line ] ->
        Alcotest.(check bool) (name ^ " is served") true
          (contains line {|"status":"ok"|})
    | _ -> Alcotest.fail "expected one response"
  in
  let stats =
    with_daemon (Router.create [| server |]) (fun ~socket ~port:_ ->
        let slow = connect_unix socket in
        let oc = Unix.out_channel_of_descr slow in
        for i = 1 to asked do
          output_string oc
            (P.request_to_string (verify_request (Printf.sprintf "slow%d" i)));
          output_char oc '\n'
        done;
        flush oc;
        served "while-slow" socket;
        let deadline = Unix.gettimeofday () +. 20.0 in
        while Metrics.value overflows = before && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.01
        done;
        served "after-slow" socket;
        (* the slow client finds its connection closed after the bytes the
           kernel had already taken *)
        Unix.setsockopt_float slow Unix.SO_RCVTIMEO 10.0;
        let chunk = Bytes.create 65536 in
        let rec drain total =
          match Unix.read slow chunk 0 (Bytes.length chunk) with
          | 0 -> total
          | n -> drain (total + n)
          | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> total
        in
        let received = drain 0 in
        Alcotest.(check bool) "the slow client got only part of its answers"
          true
          (received < asked * String.length big);
        Unix.close slow)
  in
  Alcotest.(check int) "one overflow counted" 1 stats.Daemon.outbox_overflows

(* a client that pipelines a burst and hangs up without reading costs the
   daemon that connection only: its writes fail with EPIPE instead of
   SIGPIPE killing the process, and a second client is still served *)
let test_daemon_client_disconnect () =
  let server =
    Server.create
      ~config:{ Server.default_config with queue_capacity = 4096 }
      ~handler:(fun _ -> P.verified ok_profile) ()
  in
  let (_ : Daemon.stats) =
    with_daemon (Router.create [| server |]) (fun ~socket ~port:_ ->
        let fd = connect_unix socket in
        let oc = Unix.out_channel_of_descr fd in
        for i = 1 to 2000 do
          output_string oc
            (P.request_to_string (verify_request (Printf.sprintf "gone%d" i)));
          output_char oc '\n'
        done;
        flush oc;
        Unix.close fd;
        match roundtrip_over (connect_unix socket) [ verify_request "next" ] with
        | [ line ] ->
            Alcotest.(check bool) "a second client is served" true
              (contains line {|"status":"ok"|})
        | _ -> Alcotest.fail "expected one response")
  in
  ()

let test_prompt_state_cache_transparent () =
  (* Repeated generations for one task hit the prompt-state cache, and the
     cache never changes a reply: a cold engine produces the same tokens. *)
  let gen engine seed =
    Engine.handle engine
      {
        P.id = "p";
        kind =
          P.Generate
            { task = "right_turn_tl"; seed; temperature = 1.0; domain = None };
        deadline_ms = None;
      }
  in
  let warm = Engine.create ~lm:(small_lm 11) ~corpus:(Lazy.force corpus) () in
  let warm_replies = List.map (gen warm) [ 1; 2; 3 ] in
  let lookup key =
    Option.value ~default:0.0 (List.assoc_opt key (Metrics.summary ()))
  in
  (* the source reflects the most recently created engine's cache *)
  Alcotest.(check (float 0.0)) "one miss" 1.0
    (lookup "cache.serve.prompt_state.driving.misses");
  Alcotest.(check (float 0.0)) "later requests hit" 2.0
    (lookup "cache.serve.prompt_state.driving.hits");
  List.iter2
    (fun seed warm_reply ->
      let cold = Engine.create ~lm:(small_lm 11) ~corpus:(Lazy.force corpus) () in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d reply unchanged by caching" seed)
        true
        (gen cold seed = warm_reply))
    [ 1; 2; 3 ] warm_replies

let test_engine_rejects_unknowns () =
  let engine = Engine.create ~corpus:(Lazy.force corpus) () in
  let expect_failed what kind needle =
    match Engine.handle engine { P.id = "x"; kind; deadline_ms = None } with
    | P.Failed msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s mentions %S (got %S)" what needle msg)
          true (contains msg needle)
    | b -> Alcotest.failf "%s: expected Failed, got %s" what (P.status_of_body b)
  in
  expect_failed "unknown scenario"
    (P.Verify
       { steps = [ "stop" ]; scenario = Some "motorway"; domain = None;
         explain = false })
    "traffic_light";
  expect_failed "unknown task"
    (P.Generate
       { task = "fly_to_the_moon"; seed = 0; temperature = 1.0; domain = None })
    "fly_to_the_moon";
  expect_failed "generation without a model"
    (P.Generate
       { task = "right_turn_tl"; seed = 0; temperature = 1.0; domain = None })
    "model";
  expect_failed "refinement without a model"
    (P.Refine
       { task = "right_turn_tl"; steps = [ "turn right" ]; seed = 0;
         scenario = None; domain = None; explain = false; max_rounds = None;
         attempts = None })
    "language model";
  expect_failed "refinement of an unknown task"
    (P.Refine
       { task = "fly_to_the_moon"; steps = [ "turn right" ]; seed = 0;
         scenario = None; domain = None; explain = false; max_rounds = None;
         attempts = None })
    "fly_to_the_moon"

(* every accepted refine round harvests one (original, repaired)
   preference pair into the engine's store, and the store's record count
   matches what the wire trajectories report *)
let test_refine_harvests_pairs () =
  let module Store = Dpoaf_refine.Pref_store in
  let module PD = Dpoaf_dpo.Pref_data in
  let path = Filename.temp_file "dpoaf-harvest" ".jsonl" in
  let store = Store.create path in
  let engine =
    Engine.create ~lm:(small_lm 11) ~pref_store:store
      ~corpus:(Lazy.force corpus) ()
  in
  let pool =
    Dpoaf_refine.Refine.defect_pool
      (Dpoaf_domain.find_exn "driving")
      ~seed:2024 ~per_task:1
  in
  Alcotest.(check bool) "non-empty defect pool" true (pool <> []);
  let accepted = ref 0 in
  List.iteri
    (fun i ((task : Dpoaf_domain.Domain.task), steps) ->
      match
        Engine.handle engine
          {
            P.id = Printf.sprintf "h%d" i;
            kind =
              P.Refine
                { task = task.Dpoaf_domain.Domain.id; steps; seed = 2024;
                  scenario = None; domain = None; explain = false;
                  max_rounds = Some 3; attempts = Some 4 };
            deadline_ms = None;
          }
      with
      | P.Refined { rounds; _ } ->
          List.iter
            (fun (r : P.rround) -> if r.P.rr_accepted then incr accepted)
            rounds
      | b -> Alcotest.failf "refine failed: %s" (P.status_of_body b))
    pool;
  Store.close store;
  Alcotest.(check bool) "some round was accepted" true (!accepted > 0);
  (match PD.load_harvested path with
  | Error e -> Alcotest.fail e
  | Ok hs ->
      Alcotest.(check int) "one record per accepted round" !accepted
        (List.length hs);
      List.iter
        (fun h ->
          Alcotest.(check string) "tagged with the pack" "driving"
            h.PD.h_domain;
          Alcotest.(check bool) "repair differs from the original" true
            (h.PD.h_chosen_steps <> h.PD.h_rejected_steps);
          Alcotest.(check bool) "repair strictly wins" true
            (h.PD.h_chosen_score > h.PD.h_rejected_score))
        hs);
  Sys.remove path

(* ---------------- loadgen mix parsing ---------------- *)

let test_mix_parsing () =
  let ok s =
    match Loadgen.mix_of_string s with
    | Ok m -> m
    | Error e -> Alcotest.failf "%S: %s" s e
  in
  let expect_error what s needle =
    match Loadgen.mix_of_string s with
    | Ok _ -> Alcotest.failf "%s: expected a parse error" what
    | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s mentions %S (got %S)" what needle msg)
          true (contains msg needle)
  in
  (* the legacy positional form still means generate,verify,score_pair *)
  Alcotest.(check bool) "positional keeps refine at 0" true
    (ok "0.5,0.3,0.2"
    = { Loadgen.generate = 0.5; verify = 0.3; score_pair = 0.2; refine = 0.0 });
  Alcotest.(check bool) "named form, unlisted classes weigh 0" true
    (ok "generate=1,refine=2"
    = { Loadgen.generate = 1.0; verify = 0.0; score_pair = 0.0; refine = 2.0 });
  expect_error "unknown class" "generate=1,refinez=2" "unknown workload class";
  expect_error "unknown class lists the valid ones" "teleport=1" "refine";
  expect_error "bad weight" "refine=much" "must be a number";
  expect_error "entry without =" "generate=1,verify" "class=weight";
  expect_error "short positional" "0.1,0.2" "positional mix"

(* ---------------- journal ---------------- *)

(* Size-capped rotation under concurrent emitters: every event survives
   (the ring flushes synchronously when full, rotation keeps enough
   generations for this volume), no file exceeds the cap, and at least
   one rotation actually happened. *)
let test_journal_rotation () =
  let module Json = Dpoaf_util.Json in
  let dir = Filename.temp_file "dpoaf-journal" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "journal.jsonl" in
  let max_bytes = 4096 in
  let j = Journal.create ~max_bytes ~keep:3 ~ring_capacity:16 path in
  let domains = 4 and per_domain = 50 in
  let spawned =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              Journal.emit j "test.event"
                [ ("id", Json.str (Printf.sprintf "d%d-%03d" d i)) ]
            done))
  in
  List.iter Domain.join spawned;
  Journal.close j;
  let generations =
    List.filter Sys.file_exists
      (path :: List.init 3 (fun i -> Printf.sprintf "%s.%d" path (i + 1)))
  in
  Alcotest.(check bool) "rotated at least once" true
    (List.length generations > 1);
  let ids = Hashtbl.create 256 in
  List.iter
    (fun file ->
      let size = (Unix.stat file).Unix.st_size in
      Alcotest.(check bool)
        (Printf.sprintf "%s within the size cap" (Filename.basename file))
        true (size <= max_bytes);
      let ic = open_in file in
      (try
         while true do
           let line = input_line ic in
           match Json.parse line with
           | Error e -> Alcotest.failf "%s: malformed line: %s" file e
           | Ok o -> (
               (match Option.bind (Json.member "ts" o) Json.to_float with
               | Some _ -> ()
               | None -> Alcotest.failf "%s: event without ts" file);
               match
                 Option.bind (Json.member "id" o) Json.to_str
               with
               | Some id ->
                   Hashtbl.replace ids id
                     (1 + try Hashtbl.find ids id with Not_found -> 0)
               | None -> Alcotest.failf "%s: event without id" file)
         done
       with End_of_file -> ());
      close_in ic)
    generations;
  for d = 0 to domains - 1 do
    for i = 0 to per_domain - 1 do
      let id = Printf.sprintf "d%d-%03d" d i in
      Alcotest.(check int)
        (Printf.sprintf "event %s written exactly once" id)
        1
        (try Hashtbl.find ids id with Not_found -> 0)
    done
  done;
  List.iter Sys.remove generations;
  Sys.rmdir dir

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request goldens" `Quick test_request_goldens;
          Alcotest.test_case "response goldens" `Quick test_response_goldens;
          Alcotest.test_case "refine goldens" `Quick test_refine_goldens;
          Alcotest.test_case "ops goldens" `Quick test_ops_goldens;
          Alcotest.test_case "strict decoding" `Quick test_protocol_strictness;
          Alcotest.test_case "strict integers" `Quick test_strict_integers;
          QCheck_alcotest.to_alcotest ~verbose:false prop_json_oracle;
          QCheck_alcotest.to_alcotest ~verbose:false prop_request_oracle;
          QCheck_alcotest.to_alcotest ~verbose:false prop_response_oracle;
          QCheck_alcotest.to_alcotest ~verbose:false prop_decoder_fuzz;
          Alcotest.test_case "loadgen mix parsing" `Quick test_mix_parsing;
        ] );
      ( "journal",
        [ Alcotest.test_case "rotation under load" `Quick test_journal_rotation ] );
      ( "server",
        [
          Alcotest.test_case "batch and complete" `Quick
            (test_scheduling_contract ?label:None);
          Alcotest.test_case "continuous batching contract" `Quick
            (test_scheduling_contract ~label:"s9");
          Alcotest.test_case "deadline expiry" `Quick test_deadline_expiry;
          Alcotest.test_case "queue-full reject" `Quick
            (test_queue_full_reject ?label:None);
          Alcotest.test_case "continuous queue-full reject" `Quick
            (test_queue_full_reject ~label:"s9");
          Alcotest.test_case "drain completes in-flight" `Quick
            test_drain_completes_inflight;
        ] );
      ( "router",
        [
          Alcotest.test_case "FNV shard goldens" `Quick test_router_goldens;
          QCheck_alcotest.to_alcotest ~verbose:false prop_router_stability;
          Alcotest.test_case "per-shard queue isolation" `Quick
            test_shard_queue_isolation;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "TCP and Unix transport identity" `Quick
            test_daemon_transport_identity;
          Alcotest.test_case "line length bound" `Quick test_daemon_line_bound;
          Alcotest.test_case "fuzzed batch" `Quick test_daemon_fuzzed_batch;
          Alcotest.test_case "outbox bound" `Quick test_daemon_outbox_bound;
          Alcotest.test_case "client disconnect" `Quick
            test_daemon_client_disconnect;
        ] );
      ( "engine",
        [
          Alcotest.test_case "determinism across jobs" `Quick
            test_jobs_determinism;
          Alcotest.test_case "determinism across shards" `Quick
            test_shards_determinism;
          Alcotest.test_case "prompt-state cache transparent" `Quick
            test_prompt_state_cache_transparent;
          Alcotest.test_case "graceful domain errors" `Quick
            test_engine_rejects_unknowns;
          Alcotest.test_case "refine harvests preference pairs" `Quick
            test_refine_harvests_pairs;
        ] );
    ]
