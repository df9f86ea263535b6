(** Cross-validation of an {!Obs.Lockdep} edge graph against the
    static [@lock-order] rank table: observed edges must go strictly
    uphill in rank and name declared locks, runtime witness violations
    are errors verbatim, and every declared rank must have been
    exercised by the run unless it carries [lockdep-waive]. *)

val lint : sources:(string * string) list -> Obs.Lockdep.graph -> Diag.t list
(** Validate a graph ({!Obs.Lockdep.graph}) against the declarations
    collected from [(filename, contents)] sources. *)
