(** The catalog linter (tentpole pass 2): contradictory SCs and
    exception tables that do not hold exactly the base rows violating
    their SC's current check (errors), duplicate / subsumed soft FDs, SSCs at or below the planner's use
    threshold, exception tables grown past the rewrite-profitability
    bound, and enforced keys with no unique index on exactly their
    columns, whose every insert scans the table (warnings). *)

val exception_growth_bound : float
(** Exception-table rows beyond this fraction of the base table make the
    exception-union rewrite unprofitable (default 0.1). *)

val lint : Core.Softdb.t -> Diag.t list
