(** The autonomous-driving pack (the paper's use case), adapting
    {!Dpoaf_driving} to the {!Domain.S} interface.  Vocabulary, tasks,
    world models and response pools come from {!Dpoaf_driving}; the
    verification entry points are {!Eval.make}'s, as for every pack,
    with the profile memo [eval.profile.driving].  The hand-written
    Φ1..Φ15 rule book predates {!Spec_gen} and stays authoritative. *)

val pack : Domain.t
