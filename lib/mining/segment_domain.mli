(** Mining partition-domain soft constraints.

    For each segment of a partitioned table, the observed [[min, max]]
    band of the partition column over the segment's current rows — a
    {e tightened} version of the routing constraint, exact when mined
    and overturnable by later mutations.  The caller installs the
    candidates as [Part_stmt] soft constraints
    ({!Core.Softdb.mine_partition_domains}). *)

open Rel

type candidate = {
  partition : int;
  pred : Expr.pred;  (** over the partition column, unqualified *)
  seg_rows : int;  (** segment size when mined *)
}

val domains : Database.t -> table:string -> candidate list
(** One candidate per non-empty segment with at least one non-NULL
    partition-column value, ascending by partition index.  [[]] when the
    table is not partitioned. *)
