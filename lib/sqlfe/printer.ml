(* SQL pretty-printer: renders ASTs back to parseable text.  The property
   test [parse ∘ print = id] (modulo predicate parenthesization) keeps it
   honest. *)

open Rel

let pp_select_item ppf = function
  | Ast.Star -> Fmt.string ppf "*"
  | Ast.Scalar (e, None) -> Expr.pp ppf e
  | Ast.Scalar (e, Some a) -> Fmt.pf ppf "%a AS %s" Expr.pp e a
  | Ast.Aggregate (fn, arg, alias) ->
      Fmt.pf ppf "%s(%a)%a" (Ast.agg_name fn)
        Fmt.(option ~none:(any "*") Expr.pp)
        arg
        Fmt.(option (fun ppf a -> Fmt.pf ppf " AS %s" a))
        alias

let pp_table_ref ppf (r : Ast.table_ref) =
  match r.alias with
  | None -> Fmt.string ppf r.table
  | Some a -> Fmt.pf ppf "%s %s" r.table a

let pp_order_item ppf (o : Ast.order_item) =
  Fmt.pf ppf "%a%s" Expr.pp o.key (if o.asc then "" else " DESC")

let rec pp_query ppf = function
  | Ast.Select s -> pp_select ppf s
  | Ast.Union_all qs ->
      Fmt.pf ppf "%a"
        (Fmt.list ~sep:(Fmt.any "@ UNION ALL@ ") (fun ppf q ->
             Fmt.pf ppf "(%a)" pp_query q))
        qs

and pp_select ppf (s : Ast.select) =
  Fmt.pf ppf "SELECT %s%a FROM %a"
    (if s.distinct then "DISTINCT " else "")
    (Fmt.list ~sep:(Fmt.any ", ") pp_select_item)
    s.items
    (Fmt.list ~sep:(Fmt.any ", ") pp_table_ref)
    s.from;
  (match s.where with
  | Expr.Ptrue -> ()
  | p -> Fmt.pf ppf " WHERE %a" Expr.pp_pred p);
  (match s.group_by with
  | [] -> ()
  | es ->
      Fmt.pf ppf " GROUP BY %a" (Fmt.list ~sep:(Fmt.any ", ") Expr.pp) es);
  (match s.having with
  | Expr.Ptrue -> ()
  | p -> Fmt.pf ppf " HAVING %a" Expr.pp_pred p);
  (match s.order_by with
  | [] -> ()
  | os ->
      Fmt.pf ppf " ORDER BY %a"
        (Fmt.list ~sep:(Fmt.any ", ") pp_order_item)
        os);
  match s.limit with None -> () | Some n -> Fmt.pf ppf " LIMIT %d" n

let query_to_string q = Fmt.str "@[%a@]" pp_query q

let pp_constraint_mode ppf = function
  | Ast.Mode_enforced -> ()
  | Ast.Mode_informational -> Fmt.string ppf " NOT ENFORCED"
  | Ast.Mode_soft None -> Fmt.string ppf " SOFT"
  | Ast.Mode_soft (Some c) ->
      Fmt.pf ppf " SOFT CONFIDENCE %a" Value.pp (Value.Float c)

let pp_table_constraint ppf (c : Ast.table_constraint) =
  (match c.con_name with
  | Some n -> Fmt.pf ppf "CONSTRAINT %s " n
  | None -> ());
  Icdef.pp_body ppf c.con_body;
  pp_constraint_mode ppf c.con_mode

let pp_statement ppf = function
  | Ast.Query q -> pp_query ppf q
  | Ast.Explain q -> Fmt.pf ppf "EXPLAIN %a" pp_query q
  | Ast.Explain_analyze q -> Fmt.pf ppf "EXPLAIN ANALYZE %a" pp_query q
  | Ast.Create_table { name; cols; constraints } ->
      Fmt.pf ppf "CREATE TABLE %s (%a%s%a)" name
        (Fmt.list ~sep:(Fmt.any ", ") (fun ppf c ->
             Fmt.pf ppf "%s %s%s" c.Ast.col_name
               (Value.dtype_name c.Ast.col_type)
               (if c.Ast.col_not_null then " NOT NULL" else "")))
        cols
        (if constraints = [] then "" else ", ")
        (Fmt.list ~sep:(Fmt.any ", ") pp_table_constraint)
        constraints
  | Ast.Drop_table t -> Fmt.pf ppf "DROP TABLE %s" t
  | Ast.Drop_index i -> Fmt.pf ppf "DROP INDEX %s" i
  | Ast.Create_index { index_name; table; columns; unique; online } ->
      Fmt.pf ppf "CREATE %sINDEX %s ON %s (%a)%s"
        (if unique then "UNIQUE " else "")
        index_name table
        Fmt.(list ~sep:(any ", ") string)
        columns
        (if online then " ONLINE" else "")
  | Ast.Alter_add_constraint { table; con } ->
      Fmt.pf ppf "ALTER TABLE %s ADD %a" table pp_table_constraint con
  | Ast.Alter_partition_by { table; spec } -> (
      (* [Value.pp] prints SQL-lexable literals (dates as [DATE '…']),
         so the statement round-trips through the parser for WAL replay *)
      match spec with
      | Partition.Range { column; bounds } ->
          Fmt.pf ppf "ALTER TABLE %s PARTITION BY RANGE (%s) BOUNDS (%a)"
            table column
            Fmt.(list ~sep:(any ", ") Value.pp)
            bounds
      | Partition.Hash { column; buckets } ->
          Fmt.pf ppf "ALTER TABLE %s PARTITION BY HASH (%s) BUCKETS %d" table
            column buckets)
  | Ast.Drop_constraint { table; name } ->
      Fmt.pf ppf "ALTER TABLE %s DROP CONSTRAINT %s" table name
  | Ast.Create_exception_table { name; constraint_name } ->
      Fmt.pf ppf "CREATE EXCEPTION TABLE %s FOR CONSTRAINT %s" name
        constraint_name
  | Ast.Insert { table; columns; rows } ->
      Fmt.pf ppf "INSERT INTO %s%a VALUES %a" table
        Fmt.(
          option (fun ppf cs ->
              Fmt.pf ppf " (%a)" (list ~sep:(any ", ") string) cs))
        columns
        (Fmt.list ~sep:(Fmt.any ", ") (fun ppf row ->
             Fmt.pf ppf "(%a)" (Fmt.list ~sep:(Fmt.any ", ") Expr.pp) row))
        rows
  | Ast.Delete { table; where } -> (
      Fmt.pf ppf "DELETE FROM %s" table;
      match where with
      | Expr.Ptrue -> ()
      | p -> Fmt.pf ppf " WHERE %a" Expr.pp_pred p)
  | Ast.Update { table; assignments; where } -> (
      Fmt.pf ppf "UPDATE %s SET %a" table
        (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (c, e) ->
             Fmt.pf ppf "%s = %a" c Expr.pp e))
        assignments;
      match where with
      | Expr.Ptrue -> ()
      | p -> Fmt.pf ppf " WHERE %a" Expr.pp_pred p)
  | Ast.Runstats t ->
      Fmt.pf ppf "RUNSTATS%a"
        Fmt.(option (fun ppf t -> Fmt.pf ppf " %s" t))
        t

let statement_to_string s = Fmt.str "@[%a@]" pp_statement s
