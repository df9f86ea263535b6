(** Lowering logical queries to physical plans: access-path selection
    (sequential vs. index range scan), greedy join ordering on estimated
    cardinalities (twin-blended, so SSCs influence join order exactly as
    the paper intends), join method choice, then grouping, projection,
    ordering and limits.  Estimation-only predicates never reach the
    physical plan. *)

open Rel
open Stats
open Exec

type env = {
  db : Database.t;
  stats : Runstats.t;
  params : Cost.params;
  use_indexes : bool;
      (** when [false], access-path selection never considers indexes —
          how {!Explain} builds the index-free backup plan *)
}

val make_env :
  ?params:Cost.params -> ?use_indexes:bool -> Database.t -> Runstats.t -> env
(** [use_indexes] defaults to [true]. *)

exception Unplannable of string
(** Raised on shapes the lowering does not support (e.g. a select item
    that is neither grouped nor aggregated). *)

type estimates = (Plan.t * float) list
(** The estimated output rows of every node of a plan, keyed by the
    node's physical identity (look one up with [List.assq]).  These are
    the only cardinality estimates softdb makes: EXPLAIN, EXPLAIN ANALYZE
    and [sys.query_log] read them. *)

val plan_query : env -> Logical.t -> Plan.t * float * estimates
(** The plan, its estimated cost, and the estimated rows of each of its
    nodes.  A scan or join reads the same twin-blended estimate the
    planner ordered joins with; costing floors it at one row, but the
    record holds the value before that floor, so a node that can produce
    nothing (the [Limit 0] of a block proven empty, a concatenation with
    no surviving segment) reads 0. *)
