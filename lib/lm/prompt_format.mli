(** Prompt templates (paper Appendix E).

    Llama-2 requires special tokens delimiting system and user messages;
    the paper's query embeds the task in that template.  Our word-level
    model only conditions on the plain query, but the full template is kept
    for fidelity (and is what a drop-in Llama-2 backend would consume). *)

val llama2 : ?system_message:string -> string -> string
(** [llama2 task] renders the template around the bare first-stage query
    [Steps for "task":]; [system_message] defaults to the paper's ("You
    are a helpful assistant. …"). *)

val alignment_query :
  props:string list -> actions:string list -> steps:string list -> string
(** The second-stage query of §4.1, asking the model to rephrase steps over
    the defined propositions and actions. *)
