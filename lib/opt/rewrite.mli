(** The semantic rewrite engine: every constraint-exploiting
    transformation the paper describes, each gated by a flag so the
    experiments can ablate.

    Semantics-preserving rules — require enforced / informational ICs or
    {e valid absolute} soft constraints:
    - join elimination over referential integrity (paper §2, [6]);
    - predicate introduction from check-shaped statements (§2, [10]) —
      equality folding, then range propagation through every band a
      usable check states ({!Mining.Band});
    - join-hole range trimming (§2, [8]);
    - union-all branch pruning by branch constraints (§5);
    - group-by / order-by simplification via FDs (§2, [29]);
    - exception-table union plans (ASC-as-AST, §4.4).

    Estimation-only rule (statistical soft constraints):
    - predicate twinning with confidence (§5.1).

    Soundness notes enforced here and exercised by the property tests:
    a check constraint passes on UNKNOWN while a WHERE conjunct filters
    it, so every introduced predicate requires its unbound columns to be
    declared NOT NULL; unsatisfiability pruning only fires on
    contradictions anchored by a query predicate; the exception-union
    fast branch carries the fully folded check so the two branches
    partition qualifying rows exactly. *)

open Rel

type flags = {
  join_elimination : bool;
  predicate_introduction : bool;
  hole_trimming : bool;
  unionall_pruning : bool;
  fd_simplification : bool;
  exception_union : bool;
  twinning : bool;
  partition_pruning : bool;
}

val all_on : flags
val all_off : flags

type ssc = {
  name : string;
  table : string;
  check : Expr.pred;
  confidence : float;  (** currency-decayed *)
}
(** A statistical soft constraint usable for twinning: [check] holds on
    about [confidence] of [table]'s rows.  Twinning reads its bands
    ({!Mining.Band.of_check}). *)

(** An ASC maintained as an exception table: [exc_check] holds for every
    base-table row NOT recorded in [exc_table]. *)
type exception_info = {
  exc_constraint : string;
  exc_base_table : string;
  exc_table : string;
  exc_check : Expr.pred;
}

type named_fd = { fd_sc : string option; fd : Mining.Fd_mine.fd }
(** A mined FD tagged with the catalog constraint it came from (None for
    artifacts fed in directly, e.g. by unit tests), so certificates can
    name their premises. *)

type named_holes = { holes_sc : string option; holes : Mining.Join_holes.t }

type part_sc = {
  part_sc_name : string option;
  part_table : string;
  part_index : int;
  part_pred : Expr.pred;
}
(** A valid absolute partition-domain SC: every row of [part_table] that
    routes to segment [part_index] satisfies [part_pred].  Usually
    tighter than the routing bounds — the overturnable premise behind a
    guarded partition prune. *)

type ctx = {
  db : Database.t;
  flags : flags;
  ascs : Icdef.t list;
      (** valid absolute soft constraints, used exactly as ICs: their
          checks feed predicate introduction, bands included *)
  sscs : ssc list;  (** statistical band SCs, for twinning *)
  fds : named_fd list;  (** valid (ASC-class) FDs *)
  holes : named_holes list;
  exceptions : exception_info list;
  parts : part_sc list;  (** valid partition-domain SCs *)
}

val make_ctx :
  ?flags:flags -> ?ascs:Icdef.t list -> ?sscs:ssc list ->
  ?fds:named_fd list -> ?holes:named_holes list ->
  ?exceptions:exception_info list -> ?parts:part_sc list -> Database.t -> ctx

(** The structural change a rewrite made to the plan — together with the
    premise list this forms the machine-checkable certificate that
    {!Check.Cert} re-derives soundness from, independent of the rule
    implementation that fired. *)
type delta =
  | Source_removed of { alias : string; table : string }
  | Pred_added of Expr.pred
      (** executable conjunct appended to WHERE *)
  | Pred_twinned of { pred : Expr.pred; confidence : float }
      (** estimation-only: must never reach the physical plan *)
  | Order_key_dropped of { alias : string; col : string }
  | Group_key_dropped of string
  | Union_split of { fast_pred : Expr.pred; exc_table : string }
  | Branch_pruned
  | Block_falsified
  | Partition_pruned of { table : string; alias : string; partition : int }
      (** the named partition was eliminated from the named source;
          sound iff its partition constraint contradicts the query
          predicates ({!Check.Cert} re-derives this) *)
  | Index_access of { index : string; table : string; alias : string }
      (** the planner answered the alias from the index alone
          (index-only scan): sound while the index is readable and its
          key covers every column the block needs — guarded at
          execution by ["idx:<name>"] *)

val delta_changes_results : delta -> bool
(** [false] only for {!Pred_twinned}: every other delta alters the
    executable plan and therefore needs an absolute (or enforced)
    basis. *)

type applied = {
  rule : string;
  detail : string;
  sc : string option;
      (** the soft constraint (or IC) the rewrite relied on, for
          plan-cache dependency tracking (paper §4.1) *)
  premises : string list;
      (** every constraint name the soundness argument rests on: [sc]
          plus secondary witnesses (the key behind a join elimination,
          the checks behind an unsatisfiability proof, ...) *)
  delta : delta;
}
(** One fired rewrite — certificate included — for EXPLAIN, the
    experiment logs, plan-cache dependencies, and [softdb check]. *)

val rewrite : ctx -> Logical.t -> Logical.t * applied list
(** Run the full pipeline: pruning and join elimination and predicate
    introduction, then exception-union splitting, then hole trimming, FD
    simplification and twinning on each resulting block. *)

val block_unsatisfiable : ctx -> Logical.block -> bool

val pp_applied : Format.formatter -> applied -> unit
val pp_delta : Format.formatter -> delta -> unit
