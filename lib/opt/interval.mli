(** Interval reasoning over predicates: constant folding, substitution of
    equality-bound columns, isolation of single-column linear
    comparisons, extraction of per-column ranges from conjuncts, and
    satisfiability tests.

    This is the machinery behind predicate introduction (folding a check
    constraint against query constants), union-all branch pruning, and
    join-hole range trimming. *)

open Rel

(** {1 Folding and substitution} *)

val fold_expr : Expr.t -> Expr.t
(** Evaluate constant sub-expressions (date arithmetic included);
    ill-typed constants are left unfolded. *)

val subst_expr : (Expr.col_ref -> Expr.t option) -> Expr.t -> Expr.t
val subst_pred : (Expr.col_ref -> Expr.t option) -> Expr.pred -> Expr.pred

val simplify_pred : Expr.pred -> Expr.pred
(** Fold sub-expressions, decide constant comparisons (comparisons over
    NULL fold to [Pfalse] — WHERE semantics), and simplify boolean
    structure. *)

(** {1 Intervals} *)

type endpoint = { v : Value.t; incl : bool }

type t = { lo : endpoint option; hi : endpoint option }
(** [None] endpoint = unbounded on that side. *)

val full : t
val point : Value.t -> t
val is_full : t -> bool
val intersect : t -> t -> t
val is_empty : t -> bool

val contains : t -> t -> bool
(** [contains a b] ⟺ a ⊇ b. *)

(** {1 Recognition} *)

val isolate_cmp :
  Expr.cmp -> Expr.t -> Value.t -> (Expr.cmp * Expr.col_ref * Value.t) option
(** Isolate the single column of a linear comparison: rewrite shapes like
    [const − col ≤ v] or [col + const > v] into [col cmp const'] using
    value arithmetic (which understands date ± days). *)

val of_pred : Expr.pred -> (Expr.col_ref * t) option
(** Recognize a single-column range conjunct, after simplification and
    isolation — including [BETWEEN] over a linear expression of one
    column ([DATE 'd' − c BETWEEN 0 AND 21] isolates [c]). *)

val to_pred : Expr.col_ref -> t -> Expr.pred
(** Rebuild the predicate a (column, interval) pair denotes. *)

val normalize : Expr.pred -> Expr.pred
(** Isolated single-column form when recognizable, the input otherwise —
    used so introduced predicates are visibly sargable. *)

val summarize :
  key_of:(Expr.col_ref -> string option) -> Expr.pred list ->
  (string * (Expr.col_ref * t)) list * Expr.pred list
(** Per-column interval summary of a conjunct list: recognizable range
    conjuncts intersect into one interval per canonical column key;
    everything else is returned as residual.  [key_of] canonicalizes
    references (e.g. resolves aliases); [None] sends the conjunct to the
    residual. *)

val unsatisfiable :
  key_of:(Expr.col_ref -> string option) -> Expr.pred list -> bool
(** Sound emptiness test: [true] means no row can satisfy the
    conjunction. *)

val contradicts :
  key_of:(Expr.col_ref -> string option) -> Expr.pred list ->
  Expr.pred list -> bool
(** [contradicts ~key_of query extra]: adding the [extra] conjuncts (a
    constraint's) to the [query] conjuncts empties the interval of a key
    the query bounds — so no row satisfies both, NULLs included, since
    a query range rejects NULL where a CHECK passes on it.  An OR conjunct
    of [query] splits into cases and is refuted only when every case is,
    each on a key that case bounds. *)

val const_bindings : Expr.pred list -> (Expr.col_ref * Value.t) list
(** The [column = constant] equalities among the conjuncts. *)

val pp : Format.formatter -> t -> unit
