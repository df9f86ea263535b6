(** EXPLAIN: end-to-end optimization of a parsed query with a readable
    trace — the rewritten statement, the rules that fired, the twin
    predicates the cardinality model saw, estimates, and the physical
    plan. *)

type report = {
  original : Sqlfe.Ast.query;
  logical : Logical.t;
  rewritten : Logical.t;
  applied : Rewrite.applied list;
  estimated_cardinality : float;
      (** the planner's estimate for the plan's root *)
  plan : Exec.Plan.t;
  estimates : Planner.estimates;
      (** the planner's estimated rows for every node of [plan] *)
  estimated_cost : float;
  guards : string list;
      (** names of the constraints the result-changing rewrites relied
          on (estimation-only twins excluded) — execution re-checks
          their validity at open (paper §4.1) *)
  backup_plan : Exec.Plan.t option;
      (** the rewrite-free plan, present whenever a result-changing
          rewrite fired; execution degrades to it if a guard fails *)
}

val optimize : Rewrite.ctx -> Planner.env -> Sqlfe.Ast.query -> report

val pp : Format.formatter -> report -> unit
val to_string : report -> string

(** {1 Rewrite certificates}

    The per-rewrite view [softdb check] re-derives soundness from: the
    rule, its SC premises, the structural delta, and whether the delta
    can change results.  A projection of [report.applied], kept as a
    separate type so the checker does not depend on how the rewriter
    logs. *)

type certificate = {
  cert_rule : string;
  cert_detail : string;
  cert_premises : string list;
  cert_delta : Rewrite.delta;
  cert_result_changing : bool;
}

val certificate_of : Rewrite.applied -> certificate
val certificates : report -> certificate list

val pp_certificate : Format.formatter -> certificate -> unit
val pp_certificates : Format.formatter -> report -> unit

(** {1 EXPLAIN ANALYZE}

    Optimize {e and execute} the query with per-node instrumentation,
    then annotate every operator with its estimated rows, actual rows,
    and q-error.  Estimates are the planner's own, read from
    [report.estimates] ({!Planner.plan_query}): the twin-blended numbers
    it costed and ordered joins with, so EXPLAIN shows what an SC did to
    the plan's choice.  Actuals come from
    {!Exec.Operators.run_instrumented}. *)

type node_stat = {
  depth : int;
  label : string;
  est_rows : float;
  actual_rows : int;
  node_q_error : float;
  pulls : int;
      (** calls of the node's cursor, the final [None] included; 0 when it
          was opened but never pulled, or never opened *)
  elapsed_s : float;
      (** monotonic-clock time, children included, the probe's own cost
          taken off; informational *)
}

type analysis = {
  a_report : report;
  result : Exec.Executor.result;
  nodes : node_stat list;  (** preorder *)
  total_q_error : float;  (** root estimate vs. root actual *)
}

val analyze : Rewrite.ctx -> Planner.env -> Sqlfe.Ast.query -> analysis

(** {1 Programmatic summaries}

    The benchmark harness gates on these numbers, so they are exposed as
    values rather than only via the rendered EXPLAIN ANALYZE text. *)

val rewrite_counts : report -> (string * int) list
(** Fired-rule counts of a report, sorted by rule name. *)

val node_q_error_max : analysis -> float
(** Worst q-error over the nodes that were pulled ([pulls > 0]); 1.0
    when there are none.  A node that never ran reads actual=0 whatever
    its estimate, so it is left out. *)

val node_q_error_geomean : analysis -> float
(** Geometric mean of the q-errors of the nodes that were pulled; 1.0
    when there are none. *)

val pp_analysis : Format.formatter -> analysis -> unit
val analysis_to_string : analysis -> string
