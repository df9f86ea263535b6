(** Logical query representation: select-project-join blocks with
    decorated predicates, possibly unioned.

    Every conjunct carries its provenance.  [estimation_only] predicates —
    the paper's {e twinned} predicates (§5.1) — are visible to the
    cardinality model but never compiled into the physical plan, and carry
    the SSC's confidence.  [Introduced] predicates come from
    semantics-preserving rewrites (valid ASCs / ICs) and {e are}
    executed.  [Folded] predicates are the exception union's fast-branch
    conjuncts: executed, but implied by the block under the check they
    fold, so the cardinality model skips them. *)

open Rel

type origin =
  | User
  | Introduced of string  (** rule or soft-constraint name *)
  | Folded of string
      (** exception-union fold of this SC's check; executed, never
          estimated *)
  | Twin of string  (** SSC name; estimation-only *)

type pred_item = {
  pred : Expr.pred;
  origin : origin;
  estimation_only : bool;
  confidence : float;  (** < 1.0 only for twins *)
  replaces : Expr.col_ref option;
      (** for a twin: the column whose user predicates it twins with; the
          blended estimate drops that column's range predicates when the
          twin is taken (paper: "use either the original predicate or the
          new predicate") *)
}

val user_pred : Expr.pred -> pred_item
val introduced_pred : rule:string -> Expr.pred -> pred_item
val folded_pred : sc:string -> Expr.pred -> pred_item
val twin_pred :
  sc:string -> confidence:float -> ?replaces:Expr.col_ref -> Expr.pred ->
  pred_item

type source = {
  table : string;
  alias : string;
  partitions : int list option;
      (** surviving partitions of a partitioned table after pruning
          ({!Rewrite}), ascending; [None] means all (or the table is not
          partitioned) *)
}

type block = {
  distinct : bool;
  items : Sqlfe.Ast.select_item list;
  from : source list;
  preds : pred_item list;
  group_by : Expr.t list;
  having : Expr.pred;  (** over the grouped output, by output names *)
  order_by : Sqlfe.Ast.order_item list;
  limit : int option;
}

type t = Block of block | Union of t list

exception Unsupported of string

val of_query : Sqlfe.Ast.query -> t
(** Raises {!Unsupported} on empty FROM or duplicate aliases. *)

val to_query : t -> Sqlfe.Ast.query
(** For display; estimation-only predicates are kept out of the WHERE. *)

val executable_preds : block -> pred_item list
val estimation_preds : block -> pred_item list
val is_folded : pred_item -> bool

(** {1 Analysis helpers} *)

val find_source : block -> string -> source option

val sources_of_col : Database.t -> block -> Expr.col_ref -> source list
(** Which sources can a column reference belong to?  Unqualified
    references are matched against the table schemas. *)

val cols_outside_preds : block -> [ `Cols of Expr.col_ref list | `Star ]
(** Column references used by select items / group by / order by. *)

val alias_used_outside :
  Database.t -> block -> string -> except:pred_item list -> bool
(** Does the block reference the alias anywhere besides the predicates in
    [except]?  The join-elimination precondition. *)

val pp_pred_item : Format.formatter -> pred_item -> unit
val pp : Format.formatter -> t -> unit
