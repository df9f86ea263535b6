(** Plan-quality regression gating: compare two {!Measure.run}s under
    per-metric thresholds.

    Deterministic metrics gate {e hard}: an exact-class metric (rewrite
    counts, result cardinalities, guard fallbacks, WAL bytes, …) flags on
    {e any} change; a work-class metric (rows scanned, pages read, index
    probes) flags when it grows beyond a small relative+absolute slack; a
    q-error metric likewise.  Decreases in higher-is-worse metrics are
    reported as improvements, never failures.  Wall-clock metrics are
    compared with a generous slack and reported, but {e never} fail the
    gate.  A scenario present in the old run and missing from the new one
    is a coverage regression and fails; so is one in the new run that the
    baseline lacks, which would otherwise land ungated. *)

type direction =
  | Exact  (** any change flags *)
  | Higher_worse  (** increase beyond slack flags; decrease = improvement *)

type threshold = {
  prefix : string;  (** metric-name prefix this rule governs *)
  direction : direction;
  rel_slack : float;  (** fraction of the old value *)
  abs_slack : float;
}

val default_thresholds : threshold list
(** Longest-prefix match; a catch-all [""] rule closes the table. *)

val threshold_for : threshold list -> string -> threshold

type verdict = Regression | Improvement | Unchanged

type finding = {
  scenario : string;
  metric : string;
  old_v : float;
  new_v : float;
  verdict : verdict;
  gated : bool;  (** false for wall-clock findings: report-only *)
}

type outcome = {
  findings : finding list;  (** only changed metrics, regressions first *)
  missing_scenarios : string list;  (** in old, absent from new *)
  added_scenarios : string list;  (** in new, absent from old *)
  metrics_compared : int;
}

val compare_runs :
  ?thresholds:threshold list -> old_run:Measure.run -> new_run:Measure.run ->
  unit -> outcome

val regressions : outcome -> finding list
(** The gated regressions only — the gate fails iff this (or
    [missing_scenarios], or [added_scenarios]) is non-empty. *)

val passed : outcome -> bool

val render : Format.formatter -> outcome -> unit
(** A readable verdict: a table of gated regressions (if any), then
    improvements and report-only wall-clock drift, then a summary line. *)
