(** Physical query plans.

    A plan node is self-describing: {!binding} computes the tuple layout
    it produces, which downstream nodes compile their expressions against.
    Plans are built by the optimizer ({!Opt.Planner}) and interpreted by
    {!Operators}. *)

open Rel

type agg_fn = Count | Sum | Avg | Min | Max

type agg = {
  fn : agg_fn;
  arg : Expr.t option;  (** [None] only for [Count] (count every row) *)
  out_name : string;
}

type sort_key = { key : Expr.t; asc : bool }

type side = Left | Right

type t =
  | Seq_scan of { table : string; alias : string; filter : Expr.pred }
  | Index_scan of {
      table : string;
      alias : string;
      index : string;
      lo : Index.bound;
      hi : Index.bound;
      filter : Expr.pred;  (** residual, applied after the probe *)
    }
  | Index_only_scan of {
      table : string;
      alias : string;
      index : string;
      columns : string list;  (** the index key columns — the output layout *)
      lo : Index.bound;
      hi : Index.bound;
      filter : Expr.pred;  (** over the key columns only *)
    }
      (** Answer the block from the index alone: one key tuple per
          indexed rid, never touching the heap.  Sound only when the
          index is [Readable] and its key covers every column the block
          needs — the planner certifies both
          ({!Opt.Rewrite.Index_access}). *)
  | Filter of { input : t; pred : Expr.pred }
  | Project of { input : t; exprs : (Expr.t * string) list }
  | Nested_loop_join of { left : t; right : t; pred : Expr.pred }
  | Hash_join of {
      left : t;
      right : t;
      left_keys : Expr.t list;
      right_keys : Expr.t list;
      residual : Expr.pred;
      build : side;
          (** the input drained into the hash table at open; the other
              streams through it.  Either way the output row is
              [left ++ right]. *)
    }
  | Merge_join of {
      left : t;
      right : t;
      left_keys : Expr.t list;
      right_keys : Expr.t list;
      residual : Expr.pred;
    }
  | Sort of { input : t; keys : sort_key list }
  | Group of { input : t; keys : (Expr.t * string) list; aggs : agg list }
  | Distinct of t
  | Union_all of t list
  | Limit of { input : t; n : int }
  | Partition_scan of {
      table : string;
      alias : string;
      partition : int;
      filter : Expr.pred;
    }
      (** Scan one segment of a partitioned table: only member rids are
          fetched, and only the segment's pages are charged. *)
  | Partition_concat of {
      table : string;
      alias : string;
      children : (int * t) list;
          (** [(partition, subplan)] pairs, ascending by partition *)
    }
      (** The surviving segments of a partitioned source, streamed one
          after another in segment order.  Carries [table]/[alias] so its
          layout holds with zero children (every segment pruned). *)

val agg_fn_name : agg_fn -> string

val side_name : side -> string
(** ["left"] or ["right"], as EXPLAIN prints a hash join's build side. *)

val binding : Database.t -> t -> Expr.Binding.t
(** Output layout of a node ([db] supplies table schemas). *)

val children : t -> t list
(** The direct inputs of a node, left to right ([Partition_concat]
    children in partition order); [[]] for the leaf scans.  Plan walkers
    recurse through this instead of matching every constructor. *)

val referenced_tables : t -> string list
(** Tables the plan dereferences at open, sorted, deduplicated. *)

val referenced_indexes : t -> string list
(** Indexes the plan probes at open — with {!referenced_tables}, what
    the plan cache checks to detect DDL staleness (dropped table or
    index, demoted index) before running a compiled plan. *)

val pp : ?indent:int -> Format.formatter -> t -> unit

val pp_filter : Format.formatter -> Expr.pred -> unit
(** " filter (...)", or nothing for [Ptrue] — shared by the node labels
    of EXPLAIN ANALYZE. *)

val pp_bound : Format.formatter -> Index.bound -> unit
(** EXPLAIN-style tree rendering. *)

val to_string : t -> string
