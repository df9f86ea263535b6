(** Cross-validation of an {!Obs.Lockdep} edge-graph dump against the
    static [@lock-order] rank table: observed edges must go strictly
    uphill in rank and name declared locks, runtime witness violations
    are errors verbatim, and every declared rank must have been
    exercised by the run unless it carries [lockdep-waive]. *)

val lint_graph :
  decls:(string, Ann.decl) Hashtbl.t -> Obs.Lockdep.graph -> Diag.t list
(** Validate a parsed graph against a declaration table. *)

val lint_dump : sources:(string * string) list -> string -> Diag.t list
(** Parse a dump and validate it against the declarations collected
    from [(filename, contents)] sources. *)
