(** The discovery stage of the SC process (paper §3.2),
    workload-directed: "input from the optimizer, the database's
    statistics, and the workload can likely be used to direct the search
    towards those characterizations that would be most beneficial."

    The advisor parses the workload, extracts mining {!targets} — column
    pairs co-occurring in predicates, predicate columns paired with
    indexed columns (the [10] payoff case), join paths with
    range-constrained columns on both sides, grouped/ordered tables —
    mines each family, wraps the results as candidate ASCs/SSCs, and
    hands them to {!Selection}. *)

open Rel

type targets = {
  pair_targets : (string * (string * string)) list;
      (** table, (column, column) *)
  hole_targets : (string * string * string * string * string * string) list;
      (** left table, right table, join left, join right, A col, B col *)
  fd_targets : (string * string list) list;
      (** table, key columns to exclude *)
}

val extract_targets : Database.t -> Sqlfe.Ast.query list -> targets

val mine_candidates :
  ?confidences:float list -> catalog:Sc_catalog.t -> Database.t -> targets ->
  Soft_constraint.t list
(** Each column pair is mined for a line and a difference band
    ({!Mining.Band.mine}); a band whose 100% width exceeds a quarter of
    its banded column's range is dropped — the one selectivity test,
    applied to every mined band here.  Surviving bands at 100% become ASC
    candidates, lower confidences SSC candidates, each stored as its
    check and named by {!Sc_catalog.fresh_name} in [catalog]. *)

type outcome = {
  candidates : int;
  assessed : Selection.assessment list;  (** the selected subset *)
  installed : Soft_constraint.t list;
}

val advise :
  ?flags:Opt.Rewrite.flags -> ?mutations_per_workload:float -> ?k:int ->
  ?confidences:float list -> ?probation:bool -> db:Database.t ->
  stats:Stats.Runstats.t -> catalog:Sc_catalog.t ->
  workload:Sqlfe.Ast.query list -> unit -> outcome
(** Discover → select → install into [catalog].  With [probation] the
    winners are installed in the [Probation] state — monitored but not yet
    exploited — until {!Maintenance.promote_survivors} judges them
    (§3.2). *)
