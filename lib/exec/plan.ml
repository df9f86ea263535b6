(* Physical query plans.

   A plan node is self-describing: [binding] computes the tuple layout it
   produces, which downstream nodes compile their expressions against.
   Plans are built by the optimizer ({!Opt.Planner}) and interpreted by
   {!Operators}. *)

open Rel

type agg_fn = Count | Sum | Avg | Min | Max

type agg = {
  fn : agg_fn;
  arg : Expr.t option; (* None only for Count *)
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
      filter : Expr.pred; (* residual, applied after the probe *)
    }
  | Index_only_scan of {
      table : string;
      alias : string;
      index : string;
      columns : string list; (* the index key columns — the output layout *)
      lo : Index.bound;
      hi : Index.bound;
      filter : Expr.pred; (* over the key columns only *)
    }
    (* Answer the block from the index alone: emit one key tuple per
       indexed rid, never touching the heap.  Sound only when the index
       is Readable and its key covers every column the block needs —
       the planner certifies both (see Opt.Rewrite.Index_access). *)
  | Filter of { input : t; pred : Expr.pred }
  | Project of { input : t; exprs : (Expr.t * string) list }
  | Nested_loop_join of { left : t; right : t; pred : Expr.pred }
  | Hash_join of {
      left : t;
      right : t;
      left_keys : Expr.t list;
      right_keys : Expr.t list;
      residual : Expr.pred;
      build : side; (* the input drained into the hash table at open *)
    }
  | Merge_join of {
      left : t; (* both inputs are sorted on their keys by construction *)
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
  | Partition_concat of {
      table : string;
      alias : string;
      children : (int * t) list; (* (partition, subplan), ascending *)
    }

let side_name = function Left -> "left" | Right -> "right"

let agg_fn_name = function
  | Count -> "count"
  | Sum -> "sum"
  | Avg -> "avg"
  | Min -> "min"
  | Max -> "max"

(* The output layout of each node. [db] supplies table schemas. *)
let rec binding (db : Database.t) plan : Expr.Binding.t =
  match plan with
  | Seq_scan { table; alias; _ }
  | Index_scan { table; alias; _ }
  | Partition_scan { table; alias; _ }
  (* the concatenation has the scan layout even with zero children
     (all partitions pruned) *)
  | Partition_concat { table; alias; _ } ->
      Expr.Binding.of_schema ~alias (Table.schema (Database.table_exn db table))
  | Index_only_scan { table; alias; columns; _ } ->
      let schema = Table.schema (Database.table_exn db table) in
      Array.of_list
        (List.map
           (fun name ->
             {
               Expr.Binding.qualifier = Some alias;
               name;
               dtype =
                 Option.map
                   (fun i -> (Schema.column_at schema i).Schema.dtype)
                   (Schema.find_index schema name);
             })
           columns)
  | Filter { input; _ } | Limit { input; _ } | Sort { input; _ }
  | Distinct input ->
      binding db input
  | Project { input = _; exprs } ->
      Array.of_list
        (List.map
           (fun (_, name) ->
             { Expr.Binding.qualifier = None; name; dtype = None })
           exprs)
  | Nested_loop_join { left; right; _ }
  | Hash_join { left; right; _ }
  | Merge_join { left; right; _ } ->
      Expr.Binding.concat (binding db left) (binding db right)
  | Group { keys; aggs; _ } ->
      Array.of_list
        (List.map
           (fun (_, name) ->
             { Expr.Binding.qualifier = None; name; dtype = None })
           keys
        @ List.map
            (fun a ->
              { Expr.Binding.qualifier = None; name = a.out_name; dtype = None })
            aggs)
  | Union_all [] -> [||]
  | Union_all (p :: _) -> binding db p

let children = function
  | Seq_scan _ | Index_scan _ | Index_only_scan _ | Partition_scan _ -> []
  | Partition_concat { children; _ } -> List.map snd children
  | Filter { input; _ }
  | Project { input; _ }
  | Sort { input; _ }
  | Group { input; _ }
  | Limit { input; _ }
  | Distinct input ->
      [ input ]
  | Nested_loop_join { left; right; _ }
  | Hash_join { left; right; _ }
  | Merge_join { left; right; _ } ->
      [ left; right ]
  | Union_all inputs -> inputs

(* Catalog objects a plan dereferences at open — what the plan cache
   checks to detect DDL staleness (a dropped table/index, a demoted
   index) before running a compiled plan. *)
let rec referenced (tables, indexes) plan =
  let acc =
    match plan with
    | Seq_scan { table; _ }
    | Partition_scan { table; _ }
    | Partition_concat { table; _ } ->
        (table :: tables, indexes)
    | Index_scan { table; index; _ } | Index_only_scan { table; index; _ } ->
        (table :: tables, index :: indexes)
    | _ -> (tables, indexes)
  in
  List.fold_left referenced acc (children plan)

let referenced_tables plan =
  List.sort_uniq String.compare (fst (referenced ([], []) plan))

let referenced_indexes plan =
  List.sort_uniq String.compare (snd (referenced ([], []) plan))

(* Structural pretty-printer (EXPLAIN-style). *)
let rec pp ?(indent = 0) ppf plan =
  let pad = String.make indent ' ' in
  let child = indent + 2 in
  match plan with
  | Seq_scan { table; alias; filter } ->
      Fmt.pf ppf "%sSeqScan %s%s%a@." pad table
        (if alias = table then "" else " as " ^ alias)
        pp_filter filter
  | Index_scan { table; alias; index; lo; hi; filter } ->
      Fmt.pf ppf "%sIndexScan %s%s using %s [%a, %a]%a@." pad table
        (if alias = table then "" else " as " ^ alias)
        index pp_bound lo pp_bound hi pp_filter filter
  | Index_only_scan { table; alias; index; columns; lo; hi; filter } ->
      Fmt.pf ppf "%sIndexOnlyScan %s%s using %s (%s) [%a, %a]%a@." pad table
        (if alias = table then "" else " as " ^ alias)
        index
        (String.concat ", " columns)
        pp_bound lo pp_bound hi pp_filter filter
  | Filter { input; pred } ->
      Fmt.pf ppf "%sFilter %a@." pad Expr.pp_pred pred;
      pp ~indent:child ppf input
  | Project { input; exprs } ->
      Fmt.pf ppf "%sProject %a@." pad
        (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (e, n) ->
             Fmt.pf ppf "%a as %s" Expr.pp e n))
        exprs;
      pp ~indent:child ppf input
  | Nested_loop_join { left; right; pred } ->
      Fmt.pf ppf "%sNestedLoopJoin on %a@." pad Expr.pp_pred pred;
      pp ~indent:child ppf left;
      pp ~indent:child ppf right
  | Hash_join { left; right; left_keys; right_keys; residual; build } ->
      Fmt.pf ppf "%sHashJoin %a = %a%a build %s@." pad
        (Fmt.list ~sep:(Fmt.any ", ") Expr.pp)
        left_keys
        (Fmt.list ~sep:(Fmt.any ", ") Expr.pp)
        right_keys pp_filter residual (side_name build);
      pp ~indent:child ppf left;
      pp ~indent:child ppf right
  | Merge_join { left; right; left_keys; right_keys; residual } ->
      Fmt.pf ppf "%sMergeJoin %a = %a%a@." pad
        (Fmt.list ~sep:(Fmt.any ", ") Expr.pp)
        left_keys
        (Fmt.list ~sep:(Fmt.any ", ") Expr.pp)
        right_keys pp_filter residual;
      pp ~indent:child ppf left;
      pp ~indent:child ppf right
  | Sort { input; keys } ->
      Fmt.pf ppf "%sSort %a@." pad
        (Fmt.list ~sep:(Fmt.any ", ") (fun ppf k ->
             Fmt.pf ppf "%a%s" Expr.pp k.key (if k.asc then "" else " desc")))
        keys;
      pp ~indent:child ppf input
  | Group { input; keys; aggs } ->
      Fmt.pf ppf "%sGroup by %a aggs %a@." pad
        (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (e, _) -> Expr.pp ppf e))
        keys
        (Fmt.list ~sep:(Fmt.any ", ") (fun ppf a ->
             Fmt.pf ppf "%s(%a)" (agg_fn_name a.fn)
               Fmt.(option ~none:(any "*") Expr.pp)
               a.arg))
        aggs;
      pp ~indent:child ppf input
  | Distinct input ->
      Fmt.pf ppf "%sDistinct@." pad;
      pp ~indent:child ppf input
  | Union_all inputs ->
      Fmt.pf ppf "%sUnionAll (%d branches)@." pad (List.length inputs);
      List.iter (pp ~indent:child ppf) inputs
  | Limit { input; n } ->
      Fmt.pf ppf "%sLimit %d@." pad n;
      pp ~indent:child ppf input
  | Partition_scan { table; alias; partition; filter } ->
      Fmt.pf ppf "%sPartitionScan %s%s partition %d%a@." pad table
        (if alias = table then "" else " as " ^ alias)
        partition pp_filter filter
  | Partition_concat { table; alias; children } ->
      Fmt.pf ppf "%sPartitionConcat %s%s (%d partitions)@." pad table
        (if alias = table then "" else " as " ^ alias)
        (List.length children);
      List.iter (fun (_, p) -> pp ~indent:child ppf p) children

and pp_filter ppf = function
  | Expr.Ptrue -> ()
  | p -> Fmt.pf ppf " filter (%a)" Expr.pp_pred p

and pp_bound ppf = function
  | Index.Unbounded -> Fmt.string ppf "-inf"
  | Index.Incl v -> Fmt.pf ppf "%a incl" Value.pp v
  | Index.Excl v -> Fmt.pf ppf "%a excl" Value.pp v

let to_string plan = Fmt.str "%a" (pp ~indent:0) plan
