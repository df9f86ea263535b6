(** ASC/SSC maintenance (paper §4.1–§4.3).

    For each soft constraint a {!policy} decides what happens when a
    mutation violates it:
    - [Drop] — the paper's "maintenance policy of last resort": the SC
      flips to [Violated] and stops being used;
    - [Sync_repair] — repair at violation time by {e widening} the
      statement (bands grow to cover the new row; hole rectangles
      overlapping a new value are discarded — the conservative §4.3
      tactic);
    - [Async_repair] — flip to [Violated], queue the SC, and let
      {!run_repairs} re-mine it from current data later ("dropped from
      active, and queued for repair").

    An SC with an exception table is never repaired, whatever its
    policy: its violations are stored there, and it is dropped as under
    [Drop].  Widening or re-mining would change the check the
    exception-union plan reads, and the rows already stored would then
    come back from both branches of the union.

    SSCs are never checked synchronously (their whole point); their
    confidences decay via {!Currency} and are restored by
    {!refresh_statistics}, the RUNSTATS-analogue. *)

open Rel

type policy = Drop | Sync_repair | Async_repair

type event = { sc_name : string; action : string; at_mutations : int }

type t

val fault_points : string list
(** The named fault sites this module fires ([maintenance.violation],
    [maintenance.repair], [maintenance.refresh]); declared with
    {!Obs.Fault} by {!Recovery.attach}. *)

val attach : ?default_policy:policy -> Database.t -> Sc_catalog.t -> t
(** Register the mutation listener; [default_policy] defaults to
    [Drop]. *)

val set_policy : t -> string -> policy -> unit

val events : t -> event list
(** The maintenance log, oldest first. *)

val record : t -> string -> string -> unit
(** [record t sc_name action] appends to the maintenance log — also used
    by the cardinality-feedback loop in {!Softdb}. *)

val track_fd : t -> Soft_constraint.t -> unit
(** Build the incremental lhs→rhs map for an FD soft constraint so
    violations are detected in O(1) per insert; flips the SC to
    [Violated] if the FD does not even hold at install time. *)

val row_violates : Database.t -> Soft_constraint.t -> Tuple.t -> bool
(** The row test of check-shaped and partition-domain statements (a row
    that routes to a sibling segment violates no partition-domain SC);
    [false] for every other statement class. *)

val run_repairs : t -> unit
(** Drain the asynchronous repair queue: re-mine each queued statement
    from current data, reinstating on success and dropping on failure. *)

val promote_survivors :
  ?after:int -> t -> Soft_constraint.t list * Soft_constraint.t list
(** Judge the constraints in [Probation] (paper §3.2: "not employed over a
    probationary period"): any with observed violations are dropped; those
    that survived at least [after] mutations of their table violation-free
    are promoted to [Active].  Returns [(promoted, rejected)]. *)

val refresh_statistics : t -> unit
(** Re-measure every SSC's confidence against the data (coverage of
    bands, FD agreement, check satisfaction) and reset its currency
    anchor — the periodic "brought up to date, just as other catalog
    statistics" of §1. *)

val measured_confidence : Database.t -> Soft_constraint.t -> float option
(** The measure {!refresh_statistics} applies, exposed on its own: band
    coverage / FD agreement / check satisfaction against current data,
    [None] when the statement class has no scalar measure.  This is the
    "observed selectivity" the cardinality-feedback loop compares with
    the stored confidence. *)

val queue_refresh : t -> string -> unit
(** Flag a soft constraint for refresh through the existing repair queue
    (deduplicated) — the feedback loop's escalation when observation and
    stored confidence diverge badly. *)

val repair_queue : t -> string list
(** The pending repair/refresh queue, oldest first. *)
