(** Cardinality estimation.

    Single-table estimation first {e summarizes} the conjuncts into
    per-column intervals (several range predicates on one column are
    estimated once from the histogram, not multiplied), then applies
    independence across columns and default filter factors for residual
    shapes — the structure of DB2's filter-factor model (paper §5).

    Twinned predicates (paper §5.1) are folded in by blending: for twins
    with combined confidence [c], the twinned estimate [E1] drops the
    superseded columns' predicates and adds the twins, and the final
    estimate is [c·E1 + (1−c)·E0] — the paper's "statistical adjustment
    based on this confidence factor". *)

open Rel
open Stats

type env = { db : Database.t; stats : Runstats.t }

val ndv : env -> table:string -> column:string -> int
(** Distinct values, from statistics; a default when none exist. *)

val interval_selectivity :
  env -> table:string -> column:string -> Interval.t -> float

val conjunct_selectivity : env -> table:string -> Expr.pred list -> float
(** Plain independence estimate of table-local conjuncts. *)

type twin = {
  t_pred : Expr.pred;
  t_confidence : float;
  t_replaces : string option;  (** column whose predicates it supersedes *)
}

val blended_selectivity :
  env -> table:string -> regular:Expr.pred list -> twins:twin list -> float
(** [c·E1 + (1−c)·E0]; equals {!conjunct_selectivity} when [twins] is
    empty. *)

val aliases_of_pred : Database.t -> Logical.block -> Expr.pred -> string list
(** Normalized aliases a predicate touches, for classification. *)

val source_selectivities : env -> Logical.block -> (string * float) list
(** Twin-blended selectivity of each source's own conjuncts, by
    normalized alias; an exception-union fold is left out, since the
    block already implies it. *)

val cross_selectivity : env -> Logical.block -> Expr.pred list -> float
(** The one rule for conjuncts the planner applies across sources
    (equi-join keys, a join residual, a leftover filter): [a = b] over
    two resolved columns is [1/max(ndv a, ndv b)], [FALSE] is 0, other
    shapes take a default filter factor; the conjuncts multiply. *)
