(* Tests for the execution engine: every physical operator, aggregate
   semantics (nulls, empty input), join-method agreement properties, and
   the work counters the experiments report. *)

open Rel
open Exec

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let fixture () =
  let db = Database.create () in
  ignore
    (Database.create_table db
       (Schema.make "emp"
          [
            Schema.column ~nullable:false "id" Value.TInt;
            Schema.column "dept" Value.TInt;
            Schema.column "salary" Value.TInt;
            Schema.column "name" Value.TString;
          ]));
  ignore
    (Database.create_table db
       (Schema.make "dept"
          [
            Schema.column ~nullable:false "did" Value.TInt;
            Schema.column "dname" Value.TString;
          ]));
  let emp_rows =
    [
      (1, Some 10, Some 100, "ann");
      (2, Some 10, Some 200, "bob");
      (3, Some 20, Some 300, "cid");
      (4, None, Some 400, "dee");
      (5, Some 30, None, "eve");
      (6, Some 20, Some 250, "fay");
    ]
  in
  List.iter
    (fun (i, d, s, n) ->
      ignore
        (Database.insert db ~table:"emp"
           (Tuple.make
              [
                Value.Int i;
                (match d with Some d -> Value.Int d | None -> Value.Null);
                (match s with Some s -> Value.Int s | None -> Value.Null);
                Value.String n;
              ])))
    emp_rows;
  List.iter
    (fun (d, n) ->
      ignore
        (Database.insert db ~table:"dept"
           (Tuple.make [ Value.Int d; Value.String n ])))
    [ (10, "eng"); (20, "sales"); (40, "empty") ];
  ignore
    (Database.create_index db ~name:"emp_salary_idx" ~table:"emp"
       ~columns:[ "salary" ] ());
  db

let run db plan = Executor.run db plan

let scan ?(filter = Expr.Ptrue) table =
  Plan.Seq_scan { table; alias = table; filter }

let test_seq_scan_filter () =
  let db = fixture () in
  let r =
    run db
      (scan ~filter:(Expr.Cmp (Expr.Ge, Expr.column "salary", Expr.int 250))
         "emp")
  in
  check tint "three rows (null filtered)" 3 (List.length r.Executor.rows);
  check tint "scanned all" 6 r.Executor.counters.Operators.Counters.rows_scanned

let test_index_scan () =
  let db = fixture () in
  let r =
    run db
      (Plan.Index_scan
         {
           table = "emp";
           alias = "emp";
           index = "emp_salary_idx";
           lo = Index.Incl (Value.Int 200);
           hi = Index.Excl (Value.Int 400);
           filter = Expr.Ptrue;
         })
  in
  check tint "three in range" 3 (List.length r.Executor.rows);
  check tint "probe counted" 1 r.Executor.counters.Operators.Counters.index_probes;
  check tbool "fewer rows touched than table" true
    (r.Executor.counters.Operators.Counters.rows_scanned < 6)

let test_project () =
  let db = fixture () in
  let r =
    run db
      (Plan.Project
         {
           input = scan "emp";
           exprs =
             [
               (Expr.column "name", "name");
               ( Expr.Binop (Expr.Mul, Expr.column "salary", Expr.int 2),
                 "double" );
             ];
         })
  in
  check (Alcotest.list Alcotest.string) "columns" [ "name"; "double" ]
    r.Executor.columns;
  check tbool "null propagates" true
    (List.exists
       (fun row -> Tuple.get row 1 = Value.Null)
       r.Executor.rows)

let join_pred =
  Expr.Cmp (Expr.Eq, Expr.column ~rel:"emp" "dept", Expr.column ~rel:"dept" "did")

let test_joins_agree () =
  let db = fixture () in
  let nlj =
    run db
      (Plan.Nested_loop_join
         { left = scan "emp"; right = scan "dept"; pred = join_pred })
  in
  let hj =
    run db
      (Plan.Hash_join
         {
           left = scan "emp";
           right = scan "dept";
           left_keys = [ Expr.column ~rel:"emp" "dept" ];
           right_keys = [ Expr.column ~rel:"dept" "did" ];
           residual = Expr.Ptrue;
         })
  in
  let mj =
    run db
      (Plan.Merge_join
         {
           left = scan "emp";
           right = scan "dept";
           left_keys = [ Expr.column ~rel:"emp" "dept" ];
           right_keys = [ Expr.column ~rel:"dept" "did" ];
           residual = Expr.Ptrue;
         })
  in
  (* 4 matching rows: emp 1,2 -> dept 10; emp 3,6 -> dept 20; emp with
     NULL dept and dept 30/40 drop out *)
  check tint "nlj rows" 4 (List.length nlj.Executor.rows);
  check tbool "hash = nlj" true (Executor.same_rows nlj hj);
  check tbool "merge = nlj" true (Executor.same_rows nlj mj)

let test_join_residual () =
  let db = fixture () in
  let r =
    run db
      (Plan.Hash_join
         {
           left = scan "emp";
           right = scan "dept";
           left_keys = [ Expr.column ~rel:"emp" "dept" ];
           right_keys = [ Expr.column ~rel:"dept" "did" ];
           residual = Expr.Cmp (Expr.Gt, Expr.column "salary", Expr.int 150);
         })
  in
  check tint "residual filters" 3 (List.length r.Executor.rows)

let test_sort () =
  let db = fixture () in
  let r =
    run db
      (Plan.Sort
         {
           input = scan "emp";
           keys =
             [
               { Plan.key = Expr.column "dept"; asc = true };
               { Plan.key = Expr.column "salary"; asc = false };
             ];
         })
  in
  let ids = List.map (fun row -> Tuple.get row 0) r.Executor.rows in
  (* nulls sort first in total order: emp 4 (null dept) leads; within dept
     10 salary desc: 2 then 1 *)
  check tbool "null dept first" true (List.hd ids = Value.Int 4);
  check tbool "salary desc within dept" true
    (let rec idx i = function
       | [] -> -1
       | x :: tl -> if x = Value.Int 2 then i else idx (i + 1) tl
     in
     idx 0 ids < (let rec idx2 i = function
                   | [] -> -1
                   | x :: tl -> if x = Value.Int 1 then i else idx2 (i + 1) tl
                 in
                 idx2 0 ids))

let group_plan db =
  ignore db;
  Plan.Group
    {
      input = scan "emp";
      keys = [ (Expr.column "dept", "_g0") ];
      aggs =
        [
          { Plan.fn = Plan.Count; arg = None; out_name = "n" };
          { Plan.fn = Plan.Sum; arg = Some (Expr.column "salary");
            out_name = "total" };
          { Plan.fn = Plan.Avg; arg = Some (Expr.column "salary");
            out_name = "avg" };
          { Plan.fn = Plan.Min; arg = Some (Expr.column "salary");
            out_name = "mn" };
          { Plan.fn = Plan.Max; arg = Some (Expr.column "salary");
            out_name = "mx" };
        ];
    }

let test_group_aggregates () =
  let db = fixture () in
  let r = run db (group_plan db) in
  check tint "four groups (incl null dept)" 4 (List.length r.Executor.rows);
  let find dept =
    List.find
      (fun row -> Value.equal_total (Tuple.get row 0) dept)
      r.Executor.rows
  in
  let d10 = find (Value.Int 10) in
  check tbool "count 10" true (Tuple.get d10 1 = Value.Int 2);
  check tbool "sum 10" true (Tuple.get d10 2 = Value.Int 300);
  check tbool "avg 10" true (Tuple.get d10 3 = Value.Float 150.0);
  let d30 = find (Value.Int 30) in
  (* eve's salary is NULL: bare COUNT counts her; SUM, AVG, MIN, MAX are null *)
  check tbool "count rows with null agg input" true (Tuple.get d30 1 = Value.Int 1);
  check tbool "sum null" true (Tuple.get d30 2 = Value.Null);
  check tbool "min null" true (Tuple.get d30 4 = Value.Null)

let test_global_aggregate_empty_input () =
  let db = fixture () in
  let r =
    run db
      (Plan.Group
         {
           input = scan ~filter:Expr.Pfalse "emp";
           keys = [];
           aggs =
             [
               { Plan.fn = Plan.Count; arg = None; out_name = "n" };
               { Plan.fn = Plan.Sum; arg = Some (Expr.column "salary");
                 out_name = "s" };
             ];
         })
  in
  check tint "one row" 1 (List.length r.Executor.rows);
  let row = List.hd r.Executor.rows in
  check tbool "count 0" true (Tuple.get row 0 = Value.Int 0);
  check tbool "sum null" true (Tuple.get row 1 = Value.Null)

let test_distinct () =
  let db = fixture () in
  let r =
    run db
      (Plan.Distinct
         (Plan.Project
            { input = scan "emp"; exprs = [ (Expr.column "dept", "dept") ] }))
  in
  check tint "distinct depts (incl null)" 4 (List.length r.Executor.rows)

let test_union_all_and_limit () =
  let db = fixture () in
  let r = run db (Plan.Union_all [ scan "emp"; scan "emp" ]) in
  check tint "doubled" 12 (List.length r.Executor.rows);
  let r2 =
    run db (Plan.Limit { input = Plan.Union_all [ scan "emp"; scan "emp" ]; n = 7 })
  in
  check tint "limited" 7 (List.length r2.Executor.rows);
  let r3 = run db (Plan.Limit { input = scan "emp"; n = 0 }) in
  check tint "limit 0 short-circuits" 0
    r3.Executor.counters.Operators.Counters.rows_scanned;
  (* scans charge their pages on the first pull: an unpulled scan reads
     nothing *)
  check tint "limit 0 reads no pages" 0
    r3.Executor.counters.Operators.Counters.pages_read;
  let r4 =
    run db
      (Plan.Limit
         {
           input =
             Plan.Index_scan
               {
                 table = "emp";
                 alias = "emp";
                 index = "emp_salary_idx";
                 lo = Index.Unbounded;
                 hi = Index.Unbounded;
                 filter = Expr.Ptrue;
               };
           n = 0;
         })
  in
  check tint "limit 0 over an index reads no pages" 0
    r4.Executor.counters.Operators.Counters.pages_read

(* A scan streams from live storage up to the high-water mark it fixed at
   open: a row inserted mid-scan stays invisible to it. *)
let test_scan_stops_at_high_water () =
  let db = fixture () in
  let counters = Operators.Counters.create () in
  let c = Operators.open_plan db counters (scan "emp") in
  let first = c () in
  ignore
    (Database.insert db ~table:"emp"
       (Tuple.make [ Value.Int 7; Value.Null; Value.Null; Value.String "gus" ]));
  let rest = Operators.drain c in
  check tint "the six rows there at open" 6
    (List.length (Option.to_list first @ rest));
  check tint "pages charged once" 1
    counters.Operators.Counters.pages_read

(* property: hash join = nested loop join on random data *)
let joins_agree_prop =
  QCheck.Test.make ~name:"hash join = NLJ on random tables" ~count:60
    QCheck.(
      pair
        (list_of_size Gen.(int_range 0 30) (pair (int_range 0 5) (int_range 0 100)))
        (list_of_size Gen.(int_range 0 30) (pair (int_range 0 5) (int_range 0 100))))
    (fun (left_rows, right_rows) ->
      let db = Database.create () in
      ignore
        (Database.create_table db
           (Schema.make "l"
              [ Schema.column "k" Value.TInt; Schema.column "v" Value.TInt ]));
      ignore
        (Database.create_table db
           (Schema.make "r"
              [ Schema.column "k" Value.TInt; Schema.column "w" Value.TInt ]));
      List.iter
        (fun (k, v) ->
          ignore
            (Database.insert db ~table:"l"
               (Tuple.make [ Value.Int k; Value.Int v ])))
        left_rows;
      List.iter
        (fun (k, w) ->
          ignore
            (Database.insert db ~table:"r"
               (Tuple.make [ Value.Int k; Value.Int w ])))
        right_rows;
      let nlj =
        run db
          (Plan.Nested_loop_join
             {
               left = scan "l";
               right = scan "r";
               pred =
                 Expr.Cmp
                   (Expr.Eq, Expr.column ~rel:"l" "k", Expr.column ~rel:"r" "k");
             })
      in
      let hj =
        run db
          (Plan.Hash_join
             {
               left = scan "l";
               right = scan "r";
               left_keys = [ Expr.column ~rel:"l" "k" ];
               right_keys = [ Expr.column ~rel:"r" "k" ];
               residual = Expr.Ptrue;
             })
      in
      let mj =
        run db
          (Plan.Merge_join
             {
               left = scan "l";
               right = scan "r";
               left_keys = [ Expr.column ~rel:"l" "k" ];
               right_keys = [ Expr.column ~rel:"r" "k" ];
               residual = Expr.Ptrue;
             })
      in
      Executor.same_rows nlj hj && Executor.same_rows nlj mj)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "exec"
    [
      ( "scan",
        [
          Alcotest.test_case "seq filter" `Quick test_seq_scan_filter;
          Alcotest.test_case "index range" `Quick test_index_scan;
          Alcotest.test_case "project" `Quick test_project;
        ] );
      ( "join",
        [
          Alcotest.test_case "methods agree" `Quick test_joins_agree;
          Alcotest.test_case "residual" `Quick test_join_residual;
        ]
        @ qsuite [ joins_agree_prop ] );
      ( "sort-group",
        [
          Alcotest.test_case "sort" `Quick test_sort;
          Alcotest.test_case "group aggregates" `Quick test_group_aggregates;
          Alcotest.test_case "global agg on empty" `Quick
            test_global_aggregate_empty_input;
          Alcotest.test_case "distinct" `Quick test_distinct;
          Alcotest.test_case "union all + limit" `Quick
            test_union_all_and_limit;
          Alcotest.test_case "scan stops at its high-water mark" `Quick
            test_scan_stops_at_high_water;
        ] );
    ]
