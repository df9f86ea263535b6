(* End-to-end integration tests: SQL in, rows out, through the full
   Softdb façade — DDL with ENFORCED / NOT ENFORCED / SOFT modes, DML,
   the paper's worked examples at small scale, and EXPLAIN surface. *)

open Rel

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let rows_of = function
  | Core.Softdb.Rows r -> r.Exec.Executor.rows
  | _ -> Alcotest.fail "expected rows"

let affected = function
  | Core.Softdb.Affected n -> n
  | _ -> Alcotest.fail "expected affected-count"

let test_sql_end_to_end () =
  let sdb = Core.Softdb.create () in
  ignore
    (Core.Softdb.exec_script sdb
       "CREATE TABLE emp (id INT PRIMARY KEY, dept VARCHAR NOT NULL,
          salary INT, CONSTRAINT sal_pos CHECK (salary > 0));
        CREATE INDEX emp_sal ON emp (salary);
        INSERT INTO emp VALUES (1, 'eng', 100), (2, 'eng', 200),
          (3, 'hr', 150), (4, 'hr', NULL);");
  (* constraint rejects bad data *)
  check tbool "check fires" true
    (try
       ignore (Core.Softdb.exec sdb "INSERT INTO emp VALUES (5, 'x', -1)");
       false
     with Checker.Constraint_violation _ -> true);
  (* aggregate query *)
  let r =
    rows_of
      (Core.Softdb.exec sdb
         "SELECT dept, COUNT(*) AS n, SUM(salary) AS total FROM emp GROUP BY \
          dept ORDER BY dept")
  in
  check tint "two groups" 2 (List.length r);
  (match r with
  | [ eng; hr ] ->
      check tbool "eng row" true
        (Tuple.to_list eng
        = [ Value.String "eng"; Value.Int 2; Value.Int 300 ]);
      check tbool "hr: null salary excluded from sum" true
        (Tuple.to_list hr = [ Value.String "hr"; Value.Int 2; Value.Int 150 ])
  | _ -> Alcotest.fail "bad groups");
  (* update + delete *)
  check tint "update" 2
    (affected (Core.Softdb.exec sdb "UPDATE emp SET salary = salary + 10 \
                                     WHERE dept = 'eng'"));
  check tint "delete" 1
    (affected (Core.Softdb.exec sdb "DELETE FROM emp WHERE salary IS NULL"));
  let r2 = rows_of (Core.Softdb.exec sdb "SELECT COUNT(*) FROM emp") in
  check tbool "three left" true
    (match r2 with [ row ] -> Tuple.get row 0 = Value.Int 3 | _ -> false)

let test_soft_ddl_validates () =
  let sdb = Core.Softdb.create () in
  ignore
    (Core.Softdb.exec_script sdb
       "CREATE TABLE p (id INT PRIMARY KEY, lo INT, hi INT);
        INSERT INTO p VALUES (1, 0, 5), (2, 2, 9), (3, 1, 30);");
  (* holds -> ASC *)
  ignore
    (Core.Softdb.exec sdb
       "ALTER TABLE p ADD CONSTRAINT ordered CHECK (hi >= lo) SOFT");
  let sc = Option.get (Core.Sc_catalog.find (Core.Softdb.catalog sdb) "ordered") in
  check tbool "validated as absolute" true (Core.Soft_constraint.is_absolute sc);
  (* does not hold -> SSC with measured confidence *)
  ignore
    (Core.Softdb.exec sdb
       "ALTER TABLE p ADD CONSTRAINT narrow CHECK (hi - lo <= 10) SOFT");
  let sc2 = Option.get (Core.Sc_catalog.find (Core.Softdb.catalog sdb) "narrow") in
  check tbool "statistical" false (Core.Soft_constraint.is_absolute sc2);
  check tbool "measured 2/3" true
    (Float.abs (Core.Soft_constraint.confidence sc2 -. (2.0 /. 3.0)) < 1e-9);
  (* declared confidence taken as-is *)
  ignore
    (Core.Softdb.exec sdb
       "ALTER TABLE p ADD CONSTRAINT declared CHECK (hi < 100) SOFT \
        CONFIDENCE 0.9");
  let sc3 =
    Option.get (Core.Sc_catalog.find (Core.Softdb.catalog sdb) "declared")
  in
  check tbool "declared confidence" true
    (Core.Soft_constraint.confidence sc3 = 0.9)

let test_informational_ddl () =
  let sdb = Core.Softdb.create () in
  ignore
    (Core.Softdb.exec_script sdb
       "CREATE TABLE t (a INT, CONSTRAINT pos CHECK (a > 0) NOT ENFORCED);
        INSERT INTO t VALUES (-5);");
  (* accepted despite violating: informational constraints are unchecked *)
  let r = rows_of (Core.Softdb.exec sdb "SELECT * FROM t") in
  check tint "row stored" 1 (List.length r)

(* the paper's §4.4 walkthrough, end to end through SQL *)
let test_late_shipments_walkthrough () =
  let sdb = Core.Softdb.create () in
  Workload.Purchase.load
    ~config:{ Workload.Purchase.default_config with rows = 4000 }
    (Core.Softdb.db sdb);
  Core.Softdb.runstats sdb;
  (* declare the business rule as a SOFT constraint; it will not hold
     absolutely (1% late), so it lands as an SSC with measured confidence *)
  ignore
    (Core.Softdb.exec sdb
       "ALTER TABLE purchase ADD CONSTRAINT ship_3w CHECK (ship_date - \
        order_date BETWEEN 0 AND 21) SOFT");
  let sc = Option.get (Core.Sc_catalog.find (Core.Softdb.catalog sdb) "ship_3w") in
  check tbool "~99% confidence measured" true
    (let c = Core.Soft_constraint.confidence sc in
     c > 0.97 && c < 1.0);
  ignore
    (Core.Softdb.exec sdb
       "CREATE EXCEPTION TABLE late_shipments FOR CONSTRAINT ship_3w");
  let sql = "SELECT * FROM purchase WHERE ship_date = DATE '1999-12-15'" in
  let base = Core.Softdb.query_baseline sdb sql in
  let opt = Core.Softdb.query sdb sql in
  check tbool "identical answers" true (Exec.Executor.same_rows base opt);
  check tbool "cheaper" true
    (opt.Exec.Executor.counters.Exec.Operators.Counters.pages_read
    < base.Exec.Executor.counters.Exec.Operators.Counters.pages_read);
  (* EXPLAIN mentions the union *)
  let report = Core.Softdb.explain sdb sql in
  check tbool "union plan" true
    (match report.Opt.Explain.plan with
    | Exec.Plan.Union_all _ -> true
    | _ -> false)

let string_contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i =
    if i + n > h then false
    else if String.sub haystack i n = needle then true
    else go (i + 1)
  in
  go 0

let test_explain_statement () =
  let sdb = Core.Softdb.create () in
  ignore (Core.Softdb.exec sdb "CREATE TABLE t (a INT)");
  match Core.Softdb.exec sdb "EXPLAIN SELECT * FROM t WHERE a > 3" with
  | Core.Softdb.Report r ->
      let text = Opt.Explain.to_string r in
      check tbool "mentions scan" true (string_contains text "SeqScan")
  | _ -> Alcotest.fail "expected report"

(* An INT column joined to a FLOAT column: 3 = 3.0 through the hash join
   as through a filter.  The join builds on its smaller (left) input, and
   SELECT * still lists the left input's columns first. *)
let test_hash_join_int_float () =
  let sdb = Core.Softdb.create () in
  ignore
    (Core.Softdb.exec_script sdb
       "CREATE TABLE small (k INT, a INT);
        CREATE TABLE fi (f FLOAT, b INT);
        INSERT INTO small VALUES (3, 1);");
  for i = 0 to 39 do
    ignore
      (Core.Softdb.exec sdb
         (Printf.sprintf "INSERT INTO fi VALUES (%d.5, %d)" (i + 10) i))
  done;
  ignore (Core.Softdb.exec_script sdb "INSERT INTO fi VALUES (3.0, 99); RUNSTATS;");
  let sql = "SELECT s.k, f.f FROM small s, fi f WHERE s.k = f.f" in
  let plan = Exec.Plan.to_string (Core.Softdb.explain sdb sql).Opt.Explain.plan in
  check tbool "a hash join" true (string_contains plan "HashJoin");
  check tint "3 = 3.0 through the join" 1
    (List.length (rows_of (Core.Softdb.exec sdb sql)));
  check tbool "built on the smaller input" true
    (string_contains plan "build left");
  check tint "3 = 3.0 through a filter" 1
    (List.length
       (rows_of
          (Core.Softdb.exec sdb
             "SELECT s.k FROM small s, fi f WHERE s.k + 0 = f.f + 0")));
  match Core.Softdb.exec sdb "SELECT * FROM fi f, small s WHERE s.k = f.f" with
  | Core.Softdb.Rows r ->
      check (Alcotest.list Alcotest.string) "SELECT * columns"
        [ "k"; "a"; "f"; "b" ] r.Exec.Executor.columns;
      check tbool "one joined row" true
        (List.map Tuple.to_list r.Exec.Executor.rows
        = [ [ Value.Int 3; Value.Int 1; Value.Float 3.0; Value.Int 99 ] ])
  | _ -> Alcotest.fail "expected rows"

let test_int_sum_exact () =
  let sdb = Core.Softdb.create () in
  ignore
    (Core.Softdb.exec_script sdb
       "CREATE TABLE big (x INT);
        INSERT INTO big VALUES (9007199254740993), (0);");
  match
    rows_of (Core.Softdb.exec sdb "SELECT SUM(x) AS s, MAX(x) AS m FROM big")
  with
  | [ row ] ->
      check tbool "SUM is exact" true
        (Tuple.get row 0 = Value.Int 9007199254740993);
      check tbool "SUM = MAX" true (Tuple.get row 0 = Tuple.get row 1)
  | _ -> Alcotest.fail "expected one row"

let test_runstats_statement () =
  let sdb = Core.Softdb.create () in
  ignore
    (Core.Softdb.exec_script sdb
       "CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2), (3); RUNSTATS t;");
  check tbool "stats collected" true
    (Stats.Runstats.find (Core.Softdb.statistics sdb) "t" <> None)

let () =
  Alcotest.run "integration"
    [
      ( "sql",
        [
          Alcotest.test_case "end to end" `Quick test_sql_end_to_end;
          Alcotest.test_case "soft ddl validates" `Quick test_soft_ddl_validates;
          Alcotest.test_case "informational ddl" `Quick test_informational_ddl;
          Alcotest.test_case "runstats statement" `Quick
            test_runstats_statement;
          Alcotest.test_case "explain statement" `Quick test_explain_statement;
          Alcotest.test_case "hash join on int and float keys" `Quick
            test_hash_join_int_float;
          Alcotest.test_case "int sum is exact" `Quick test_int_sum_exact;
        ] );
      ( "paper-examples",
        [
          Alcotest.test_case "late shipments walkthrough" `Quick
            test_late_shipments_walkthrough;
        ] );
    ]
