(** Wire protocol of the serving layer: line-delimited JSON.

    One request object per line in, one response object per line out (see
    [docs/serving.md] for the full schema).  Responses echo the request's
    [id], so clients may pipeline arbitrarily many requests per
    connection.  Decoding is strict — unknown kinds, missing fields and
    type mismatches produce an [Error] naming the offending field; the
    daemon answers such lines with a [status="error"] response rather than
    guessing. *)

type kind =
  | Generate of {
      task : string;
      seed : int;
      temperature : float;
      domain : string option;
    }
      (** Sample one grammar-constrained response for a task prompt;
          [seed] makes the sample deterministic. *)
  | Verify of {
      steps : string list;
      scenario : string option;
      domain : string option;
      explain : bool;
    }
      (** Compile the steps with GLM2FSA and model-check the rule book;
          [scenario] selects a single world model ([None] = universal).
          [explain] asks the server to attach natural-language
          counterexample explanations for each violated spec (encoded on
          the wire only when [true], so existing clients are
          unaffected). *)
  | Score_pair of {
      steps_a : string list;
      steps_b : string list;
      scenario : string option;
      domain : string option;
      explain : bool;
    }
      (** The automated-feedback oracle: verify both responses and emit a
          preference with its formal justification.  [explain] attaches
          counterexample explanations for the loser's margin
          violations. *)
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
      (** Counterexample-guided repair ({!Dpoaf_refine.Refine}): verify
          the steps, feed each violated spec's explained lasso back into
          re-sampling, and iterate until clean or out of budget.  [seed]
          drives the per-round re-sampling deterministically.
          [max_rounds]/[attempts] override the server's default budget;
          on the wire they ride a single optional ["budget"] object,
          encoded only when at least one is set.  [explain] attaches each
          round's feedback sentences to the response trajectory. *)
  | Stats of { domain : string option }
      (** Ops plane: live metrics snapshot (counters, histogram summaries
          with exact bucket bounds, cache hit rates) plus GC/runtime
          gauges.  [domain] restricts the view to one served pack's
          per-domain twins; [None] returns everything.  Answered by the
          daemon ahead of the admission queue, so it responds even under
          full load. *)
  | Health of { domain : string option }
      (** Ops plane: queue depth, in-flight batches, drain state and
          per-domain request counters.  Also answered ahead of the
          admission queue. *)
(** Every execution kind carries an optional [domain] naming the pack that
    should execute it ([None] = the server's default pack).  Like
    [scenario], the field is encoded only when present, so single-domain
    traffic is byte-identical to the pre-domain protocol. *)

type request = {
  id : string;  (** client-chosen correlation id, echoed in the response *)
  kind : kind;
  deadline_ms : float option;
      (** drop the request unexecuted if it waits longer than this *)
}

type profile = {
  score : int;  (** [List.length satisfied] *)
  satisfied : string list;  (** spec names in rule-book order *)
  violated : string list;  (** complementary names, same order *)
  vacuous : string list;  (** subset of [satisfied] holding only vacuously *)
}

type explanation = {
  espec : string;  (** name of the violated spec *)
  etext : string;
      (** the {!Dpoaf_analysis.Explain} rendering of the counterexample
          lasso in response vocabulary *)
}
(** One counterexample explanation, as carried on the wire.  The field is
    optional in both directions: a response without explanations encodes
    byte-identically to the pre-explanation protocol. *)

type rround = {
  rr_index : int;  (** 1-based round number *)
  rr_violated : string list;
      (** the round's best candidate's violated specs *)
  rr_accepted : bool;
  rr_margin : int;  (** violated-spec count removed; positive iff accepted *)
  rr_feedback : explanation list option;
      (** the feedback sentences that conditioned the round's re-sampling;
          present only when the request set [explain] *)
}
(** One round of a repair trajectory, as carried on the wire. *)

type shard_health = {
  sh_shard : string;  (** shard name, e.g. ["shard0"] *)
  sh_queue_depth : int;  (** requests waiting in this shard's admission *)
  sh_in_flight : int;  (** batches/requests this shard is executing *)
  sh_requests : int;  (** admissions routed to this shard so far *)
  sh_draining : bool;
}
(** Per-shard liveness twin of the aggregate {!Health_report} fields.
    Reported by a sharded daemon so load imbalance and per-shard
    backpressure are visible; an unsharded daemon reports an empty list,
    which is {e not encoded} — its health line stays byte-identical to
    the pre-fleet wire format. *)

type body =
  | Generated of { steps : string list; tokens : int list; profile : profile }
  | Verified of {
      profile : profile;
      explanations : explanation list option;
          (** present only when the request set [explain]; [None] keeps
              the encoding byte-identical to the pre-explanation wire *)
    }
  | Compared of {
      preference : string;  (** ["a"], ["b"] or ["tie"] *)
      margin : int;  (** absolute score difference *)
      margin_specs : string list;
          (** specs the winner satisfies and the loser does not *)
      vacuous_margin : bool;
          (** margin non-empty but carried entirely by vacuous
              satisfactions *)
      profile_a : profile;
      profile_b : profile;
      explanations : explanation list option;
          (** when the request set [explain]: explanations for the
              loser's margin violations, i.e. exactly why it lost *)
    }
  | Refined of {
      rstatus : string;  (** ["clean"], ["improved"] or ["unchanged"] *)
      deadline_hit : bool;
          (** the per-round deadline truncated the loop; encoded on the
              wire only when [true] *)
      original_profile : profile;
      final_steps : string list;
      final_profile : profile;
      rounds : rround list;  (** the full trajectory, in round order *)
    }
      (** Answer to {!Refine}; serialized under a single ["refine"]
          member. *)
  | Stats_report of {
      metrics : (string * float) list;  (** the flat {!Dpoaf_exec.Metrics}
          summary, filtered to the requested domain when tagged *)
      histograms : (string * Dpoaf_exec.Metrics.hist_snapshot) list;
          (** full snapshots with bucket bounds — percentiles are exactly
              recomputable offline *)
      runtime : (string * float) list;
          (** {!Dpoaf_exec.Metrics.runtime_gauges} at answer time *)
    }  (** Answer to {!Stats}; serialized under a single ["stats"] member. *)
  | Health_report of {
      queue_depth : int;  (** summed across shards when sharded *)
      in_flight_batches : int;  (** summed across shards when sharded *)
      draining : bool;
      domains : (string * int) list;  (** per-domain request counters *)
      shards : shard_health list;
          (** per-shard breakdown; empty (and unencoded) when the daemon
              runs a single unsharded server *)
    }  (** Answer to {!Health}; serialized under a single ["health"]
          member. *)
  | Rejected of string  (** admission control refused the request *)
  | Expired  (** deadline passed while queued; never executed *)
  | Failed of string  (** the handler raised *)

type response = {
  rid : string;
  rbody : body;
  queue_wait_us : float;  (** submission to batch dequeue *)
  execute_us : float;  (** handler wall-clock; 0 for rejected/expired *)
}

val status_of_body : body -> string
(** ["ok"], ["rejected"], ["expired"] or ["error"]. *)

val verified : profile -> body
(** [Verified] with no explanations — the common case. *)

(** {1 Wire codec} — total inverses of each other on well-formed values. *)

val request_to_string : request -> string
val request_of_string : string -> (request, string) result
val response_to_string : response -> string
val response_of_string : string -> (response, string) result

val write_response : Buffer.t -> response -> unit
(** Append the bytes of {!response_to_string} to a buffer, with no
    intermediate string: what the daemon encodes each connection's
    outbox with. *)
