(** The paper's §5 example: a [project] table with start_date / end_date
    where most durations are short, so predicates on both dates are
    heavily correlated and the independence assumption under-estimates
    badly — the motivating case for SSC twinning. *)

open Rel

type config = {
  rows : int;
  days : int;  (** start_date spread *)
  max_days : int;  (** duration bound for the bulk of projects *)
  long_fraction : float;  (** projects running longer than [max_days] *)
  seed : int;
}

val default_config : config
(** 10k rows, 90% within 5 days. *)

val base_date : Date.t
val schema : Schema.t

val load : ?config:config -> Database.t -> unit
(** Create [project] with its enforced primary key on [id], backed by the
    unique index [project_id_idx] so each insert's key check is an index
    probe, plus indexes on [start_date] and [end_date]; then load
    [config.rows] rows. *)

val active_on : Database.t -> Date.t -> int
(** Ground truth for experiment E4: projects with
    [start_date ≤ d ≤ end_date]. *)
