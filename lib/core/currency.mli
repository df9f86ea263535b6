(** The currency model of paper §3.3: "a second dimension of statistics to
    measure the potential error in the SSC statement, based upon activity
    since the last time it was updated."

    If an SSC held with confidence [c] when its table of [N] rows was
    last inspected, and [u] mutations have happened since, then — even if
    every mutation broke the constraint for a distinct row — the fraction
    still satisfying it is at least [c − u/N].  The paper's example: 1M
    rows, 1k updates/day ⇒ ≈3% bound after a month. *)

val drift : updates_since:int -> table_rows:int -> float
(** [min 1 (u / N)]. *)

val usable_confidence : base:float -> updates_since:int -> table_rows:int ->
  float
(** [max 0 (base − drift)] — a true lower bound on the current
    confidence (verified as a property test). *)

val updates_until : base:float -> floor:float -> table_rows:int -> int
(** Mutations before the usable confidence falls below [floor]. *)
