(** The system façade: a database with a soft-constraint catalog wired
    into its optimizer.

    SQL goes in; DDL/DML execute against catalog and storage (including
    the [SOFT] / [NOT ENFORCED] declaration modes and
    [CREATE EXCEPTION TABLE]); queries run through rewrite → plan →
    execute with every soft-constraint pathway available — and
    individually toggleable via {!Opt.Rewrite.flags}, which the ablation
    experiments use. *)

open Rel

type t

val create : ?flags:Opt.Rewrite.flags -> unit -> t
(** A fresh empty database with maintenance attached ([Drop] default
    policy). *)

val db : t -> Database.t
val catalog : t -> Sc_catalog.t
val maintenance : t -> Maintenance.t
val statistics : t -> Stats.Runstats.t

(** {1 Observability}

    Every executed query feeds the metrics registry and the query log,
    and — when feedback is on (the default) — recalibrates the catalog
    confidence of any SSC whose twinned predicate's observed selectivity
    contradicts it (divergence beyond the tolerance pulls the confidence
    toward the observation; beyond twice the tolerance additionally
    queues the SC for refresh).  The registries back the sys.metrics,
    sys.query_log, sys.soft_constraints and sys.plan_cache virtual
    tables, readable with plain SELECTs. *)

val metrics : t -> Obs.Metrics.t
val query_log : t -> Obs.Query_log.t

val set_feedback : ?tolerance:float -> t -> bool -> unit
(** Toggle confidence recalibration; [tolerance] defaults to
    {!Obs.Feedback.default_tolerance}. *)

type event =
  | Stmt_started of Sqlfe.Ast.statement
  | Stmt_finished of Sqlfe.Ast.statement * bool  (** success? *)
  | Began  (** then [Committed] or [Rolled_back]: the {!Txn} lifecycle *)
  | Committed
  | Rolled_back

val on_event : t -> (event -> unit) -> unit
(** Statement and transaction framing hooks — the WAL link
    ({!Recovery}) uses them for its frame boundaries and DDL capture.
    [Stmt_finished] fires around {!exec_statement} on both success
    ([true]) and exception ([false], then re-raised). *)

val notify : t -> event -> unit
(** Publish to the {!on_event} hooks; {!Txn} publishes its lifecycle. *)

val txn_recorder : t -> (Database.mutation -> unit) option
val set_txn_recorder : t -> (Database.mutation -> unit) option -> unit
(** The open transaction's undo recorder, fed every data mutation of
    this database; [None] while no transaction is open.  Owned by
    {!Txn}. *)

val next_txn_id : t -> int
(** This database's next transaction id, counting from 1. *)

exception Error of string

val rewrite_ctx : ?flags:Opt.Rewrite.flags -> t -> Opt.Rewrite.ctx
val planner_env : t -> Opt.Planner.env

val runstats : ?table:string -> t -> unit
(** Collect statistics for one table, or all. *)

val install_sc : t -> Soft_constraint.t -> unit
(** Add to the catalog (and start FD tracking when applicable). *)

val install_soft_declaration :
  t -> name:string -> table:string -> body:Icdef.body ->
  declared_confidence:float option -> unit
(** The [SOFT] DDL semantics: with a declared confidence < 1, install as
    an SSC; otherwise verify against the data — an ASC if it holds, an
    SSC at the measured confidence for check-shaped statements, an
    {!Error} otherwise. *)

val mine_partition_domains : t -> table:string -> Soft_constraint.t list
(** Mine each segment's observed partition-column band
    ({!Mining.Segment_domain}) and install it as an absolute,
    overturnable [Part_stmt] SC named [<table>_p<i>_domain], anchored on
    the segment's local mutation counter.  Replaces same-named SCs from a previous mining pass.
    Raises {!Error} if [table] is not partitioned. *)

type outcome =
  | Rows of Exec.Executor.result
  | Affected of int
  | Report of Opt.Explain.report
  | Analyzed of Opt.Explain.analysis
  | Done of string

val exec_statement : t -> Sqlfe.Ast.statement -> outcome
(** One statement, framed by the {!on_event} hooks.  A
    [CREATE INDEX ... ONLINE] registers only the write-only shell — the
    caller owns the backfill ({!Idx.Lifecycle}). *)

val exec : t -> string -> outcome
(** Parse and execute one statement.  Unlike {!exec_statement}, a
    pending ONLINE index build is finished synchronously afterwards
    (there is no session loop to drive it). *)

val exec_script : t -> string -> outcome list
(** Like {!exec}, per statement — ONLINE builds finish before the next
    statement runs. *)

val advise : t -> Idx.Advisor.candidate list
(** Mine sys.query_log plus the SC catalog for ranked index candidates —
    the generator behind sys.index_advisor and [softdb advise]. *)

val advice_statement : Idx.Advisor.candidate -> string
(** The ready-to-run [CREATE INDEX ... ONLINE] text for a candidate. *)

val optimize : ?flags:Opt.Rewrite.flags -> t -> Sqlfe.Ast.query ->
  Opt.Explain.report

val run_query : ?flags:Opt.Rewrite.flags -> t -> Sqlfe.Ast.query ->
  Exec.Executor.result

val guard_ok : t -> string -> bool
(** Is the named constraint still a valid basis for a compiled plan?
    True for declared hard/informational ICs, usable soft constraints,
    exception-backed ASCs whose exception table still exists, and
    ["idx:<name>"] guards whose index still exists and is readable. *)

val failed_guards : t -> Opt.Explain.report -> string list
(** The report's guards that no longer hold ([[]] for a report without a
    backup plan): the one fallback decision (paper §4.1's
    flag-and-revert), shared by {!execute_report} and {!Plan_cache}.
    Non-empty means the rewrite-free backup plan must run. *)

val note_guard_fallback : t -> string list -> unit
(** Record one guarded-plan fallback whose failed guards are the given
    constraint names: bumps [sc_guard_fallbacks] and, for every failed
    guard that is a partition-domain SC, the per-partition fallback
    counter [sys.partitions] reports. *)

val execute_report : t -> Opt.Explain.report ->
  Exec.Executor.result * bool
(** Execute with SC-guard checking at open: if {!failed_guards} is
    non-empty, run the rewrite-free backup plan instead, record the
    fallback ({!note_guard_fallback}), and return [true] as the second
    component. *)

val analyze : ?flags:Opt.Rewrite.flags -> t -> Sqlfe.Ast.query ->
  Opt.Explain.analysis
(** EXPLAIN ANALYZE: optimize, execute instrumented, annotate per node;
    feeds the metrics/feedback loop like any other executed query. *)

val query : ?flags:Opt.Rewrite.flags -> t -> string -> Exec.Executor.result
(** Parse, optimize and execute a SELECT. *)

val explain : ?flags:Opt.Rewrite.flags -> t -> string -> Opt.Explain.report

val query_baseline : t -> string -> Exec.Executor.result
(** The same query with the whole soft-constraint machinery off — the
    oracle used throughout the tests and benches. *)
