(* Tests for the extension features: Sybase-style min/max domain tracking
   (paper §4.2 runtime parameterization), the transaction layer with
   soft-constraint reinstatement on abort (§4.1), equality-transitivity
   constant propagation in the rewrite engine, and bands that reach every
   rewrite the same way however they were declared. *)

open Rel

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let rules_fired report =
  List.map (fun a -> a.Opt.Rewrite.rule) report.Opt.Explain.applied
  |> List.sort_uniq String.compare

(* ---- domain tracking (min/max SCs) --------------------------------------- *)

let domain_sdb () =
  let sdb = Core.Softdb.create () in
  ignore
    (Core.Softdb.exec_script sdb
       "CREATE TABLE m (id INT PRIMARY KEY, v INT NOT NULL, w FLOAT, s \
        VARCHAR);
        CREATE INDEX m_v ON m (v);");
  for i = 1 to 500 do
    ignore
      (Core.Softdb.exec sdb
         (Printf.sprintf "INSERT INTO m VALUES (%d, %d, %f, 'x')" i
            (100 + (i mod 200))
            (float_of_int i)))
  done;
  Core.Softdb.runstats sdb;
  sdb

let test_domain_track_installs () =
  let sdb = domain_sdb () in
  let scs = Core.Domain_tracker.track sdb ~table:"m" in
  (* id, v, w are trackable; s is a string *)
  check tint "three tracked" 3 (List.length scs);
  match Core.Domain_tracker.current_range sdb ~table:"m" ~column:"v" with
  | Some (Value.Int 100, Value.Int 299) -> ()
  | Some (lo, hi) ->
      Alcotest.failf "wrong range: %s..%s" (Value.to_debug lo)
        (Value.to_debug hi)
  | None -> Alcotest.fail "no range"

let test_domain_widens_on_insert () =
  let sdb = domain_sdb () in
  ignore (Core.Domain_tracker.track sdb ~table:"m" ~columns:[ "v" ]);
  (* inserting beyond the max widens the SC instead of dropping it *)
  ignore (Core.Softdb.exec sdb "INSERT INTO m VALUES (9001, 5000, 1.0, 'y')");
  (match Core.Domain_tracker.current_range sdb ~table:"m" ~column:"v" with
  | Some (Value.Int 100, Value.Int 5000) -> ()
  | _ -> Alcotest.fail "expected widened range");
  let sc =
    Option.get
      (Core.Sc_catalog.find (Core.Softdb.catalog sdb)
         (Core.Domain_tracker.sc_name ~table:"m" ~column:"v"))
  in
  check tbool "still active" true (Core.Soft_constraint.is_usable sc)

let test_domain_proves_emptiness () =
  let sdb = domain_sdb () in
  ignore (Core.Domain_tracker.track sdb ~table:"m" ~columns:[ "v" ]);
  let sql = "SELECT * FROM m WHERE v > 10000" in
  let base = Core.Softdb.query_baseline sdb sql in
  let opt = Core.Softdb.query sdb sql in
  check tbool "sound" true (Exec.Executor.same_rows base opt);
  check tint "empty without touching a row" 0
    opt.Exec.Executor.counters.Exec.Operators.Counters.rows_scanned;
  let report = Core.Softdb.explain sdb sql in
  check tbool "proved unsatisfiable" true
    (List.mem "unsatisfiable" (rules_fired report))

let test_domain_closes_open_range () =
  let sdb = domain_sdb () in
  ignore (Core.Domain_tracker.track sdb ~table:"m" ~columns:[ "v" ]);
  (* an open-ended range closes at the maintained max: the §4.2
     "abbreviate range conditions" effect *)
  let report = Core.Softdb.explain sdb "SELECT * FROM m WHERE v >= 295" in
  check tbool "introduction fired" true
    (List.mem "predicate_introduction" (rules_fired report));
  let base = Core.Softdb.query_baseline sdb "SELECT * FROM m WHERE v >= 295" in
  let opt = Core.Softdb.query sdb "SELECT * FROM m WHERE v >= 295" in
  check tbool "sound" true (Exec.Executor.same_rows base opt)

let test_domain_retighten_after_delete () =
  let sdb = domain_sdb () in
  ignore (Core.Domain_tracker.track sdb ~table:"m" ~columns:[ "v" ]);
  ignore (Core.Softdb.exec sdb "DELETE FROM m WHERE v > 200");
  (* deletes leave the range loose but valid *)
  (match Core.Domain_tracker.current_range sdb ~table:"m" ~column:"v" with
  | Some (_, Value.Int 299) -> ()
  | _ -> Alcotest.fail "expected loose range after delete");
  Core.Domain_tracker.retighten sdb ~table:"m";
  match Core.Domain_tracker.current_range sdb ~table:"m" ~column:"v" with
  | Some (Value.Int 100, Value.Int 200) -> ()
  | Some (lo, hi) ->
      Alcotest.failf "not retightened: %s..%s" (Value.to_debug lo)
        (Value.to_debug hi)
  | None -> Alcotest.fail "no range after retighten"

(* ---- transactions ---------------------------------------------------------- *)

let txn_sdb () =
  let sdb = Core.Softdb.create () in
  ignore
    (Core.Softdb.exec_script sdb
       "CREATE TABLE acct (id INT PRIMARY KEY, bal INT NOT NULL);
        INSERT INTO acct VALUES (1, 100), (2, 200), (3, 300);");
  sdb

let balances sdb =
  (Core.Softdb.query sdb "SELECT id, bal FROM acct ORDER BY id")
    .Exec.Executor.rows |> List.map Tuple.to_list

let test_txn_commit_keeps () =
  let sdb = txn_sdb () in
  let t = Core.Txn.begin_ sdb in
  ignore (Core.Softdb.exec sdb "UPDATE acct SET bal = bal - 50 WHERE id = 1");
  ignore (Core.Softdb.exec sdb "UPDATE acct SET bal = bal + 50 WHERE id = 2");
  check tint "two mutations" 2 (Core.Txn.mutation_count t);
  Core.Txn.commit t;
  check tbool "transfer applied" true
    (balances sdb
    = [
        [ Value.Int 1; Value.Int 50 ]; [ Value.Int 2; Value.Int 250 ];
        [ Value.Int 3; Value.Int 300 ];
      ])

let test_txn_rollback_restores () =
  let sdb = txn_sdb () in
  let before = balances sdb in
  let t = Core.Txn.begin_ sdb in
  ignore (Core.Softdb.exec sdb "UPDATE acct SET bal = 0");
  ignore (Core.Softdb.exec sdb "DELETE FROM acct WHERE id = 2");
  ignore (Core.Softdb.exec sdb "INSERT INTO acct VALUES (4, 9)");
  Core.Txn.rollback t;
  check tbool "state restored" true (balances sdb = before)

let test_txn_atomically () =
  let sdb = txn_sdb () in
  let before = balances sdb in
  let r =
    Core.Txn.atomically sdb (fun () ->
        ignore (Core.Softdb.exec sdb "DELETE FROM acct WHERE id = 1");
        failwith "boom")
  in
  check tbool "error propagated" true
    (match r with
    | Error (Failure m) when String.equal m "boom" -> true
    | _ -> false);
  check tbool "rolled back" true (balances sdb = before);
  let r2 =
    Core.Txn.atomically sdb (fun () ->
        ignore (Core.Softdb.exec sdb "DELETE FROM acct WHERE id = 1"))
  in
  check tbool "committed" true (Result.is_ok r2);
  check tint "two accounts left" 2 (List.length (balances sdb))

let test_txn_reinstates_asc_on_abort () =
  (* the paper's §4.1 scenario: transaction B violates (overturns) an ASC,
     then aborts — the ASC must come back *)
  let sdb = txn_sdb () in
  ignore
    (Core.Softdb.exec sdb
       "ALTER TABLE acct ADD CONSTRAINT bal_range CHECK (bal BETWEEN 0 AND \
        1000) SOFT");
  let sc =
    Option.get (Core.Sc_catalog.find (Core.Softdb.catalog sdb) "bal_range")
  in
  check tbool "asc" true (Core.Soft_constraint.is_absolute sc);
  let t = Core.Txn.begin_ sdb in
  ignore (Core.Softdb.exec sdb "INSERT INTO acct VALUES (9, 50000)");
  check tbool "overturned inside txn" true
    (sc.Core.Soft_constraint.state = Core.Soft_constraint.Violated);
  Core.Txn.rollback t;
  check tbool "reinstated after abort" true
    (sc.Core.Soft_constraint.state = Core.Soft_constraint.Active);
  check tint "violation count restored" 0
    sc.Core.Soft_constraint.violation_count;
  (* and the data is consistent with the reinstated ASC *)
  let env = Database.checker_env (Core.Softdb.db sdb) in
  let ic =
    Icdef.make ~name:"bal_range" ~table:"acct"
      (Icdef.Check
         (Expr.Between (Expr.column "bal", Expr.int 0, Expr.int 1000)))
  in
  check tbool "holds after rollback" true (Checker.holds env ic)

let test_txn_rollback_keeps_exception_table_consistent () =
  let sdb = Core.Softdb.create () in
  Workload.Purchase.load
    ~config:{ Workload.Purchase.default_config with rows = 800 }
    (Core.Softdb.db sdb);
  ignore
    (Core.Softdb.exec sdb
       "ALTER TABLE purchase ADD CONSTRAINT ship_3w CHECK (ship_date - \
        order_date BETWEEN 0 AND 21) SOFT");
  ignore
    (Core.Softdb.exec sdb
       "CREATE EXCEPTION TABLE late_exc FOR CONSTRAINT ship_3w");
  let db = Core.Softdb.db sdb in
  let sc =
    Option.get (Core.Sc_catalog.find (Core.Softdb.catalog sdb) "ship_3w")
  in
  let handle =
    {
      Core.Exception_table.constraint_name = "ship_3w";
      base_table = "purchase";
      exception_table = "late_exc";
      check = Option.get (Core.Soft_constraint.check_pred sc);
    }
  in
  check tbool "consistent before" true
    (Core.Exception_table.consistent db handle);
  let t = Core.Txn.begin_ sdb in
  let rng = Stats.Rng.create 3 in
  Workload.Purchase.insert_batch ~violating:0.5 ~rng ~start_id:777_000
    ~count:60 db;
  check tbool "consistent inside txn" true
    (Core.Exception_table.consistent db handle);
  Core.Txn.rollback t;
  check tbool "consistent after rollback" true
    (Core.Exception_table.consistent db handle)

(* Undoing a DELETE restores the base row, whose listener re-derives the
   exception copy: the copy's own cascaded delete must not be undone as
   well, or the exception table ends up holding the row twice. *)
let test_txn_rollback_delete_keeps_one_exception_copy () =
  let sdb = Core.Softdb.create () in
  ignore
    (Core.Softdb.exec_script sdb
       "CREATE TABLE p (a INT PRIMARY KEY, b INT);
        INSERT INTO p VALUES (1, 5), (2, 50);
        ALTER TABLE p ADD CONSTRAINT b_small CHECK (b < 10) SOFT;
        CREATE EXCEPTION TABLE p_exc FOR CONSTRAINT b_small;");
  let rows sql =
    List.map Tuple.to_list (Core.Softdb.query sdb sql).Exec.Executor.rows
  in
  let exc () = rows "SELECT a, b FROM p_exc ORDER BY a" in
  let base () = rows "SELECT a, b FROM p ORDER BY a" in
  let before_base = base () and before_exc = exc () in
  check tint "one exception row" 1 (List.length before_exc);
  let rollback_of stmts =
    let t = Core.Txn.begin_ sdb in
    List.iter (fun sql -> ignore (Core.Softdb.exec sdb sql)) stmts;
    Core.Txn.rollback t;
    check tbool "base restored" true (base () = before_base);
    check tbool "one exception copy" true (exc () = before_exc)
  in
  rollback_of [ "DELETE FROM p WHERE a = 2" ];
  rollback_of [ "UPDATE p SET b = 3 WHERE a = 2" ];
  rollback_of [ "UPDATE p SET b = 60 WHERE a = 1"; "DELETE FROM p WHERE a = 1" ];
  rollback_of [ "UPDATE p SET b = 70 WHERE a = 2"; "DELETE FROM p" ]

let test_txn_single_active () =
  let sdb = txn_sdb () in
  let t = Core.Txn.begin_ sdb in
  check tbool "second begin rejected" true
    (try
       ignore (Core.Txn.begin_ sdb);
       false
     with Core.Txn.Transaction_error _ -> true);
  Core.Txn.commit t;
  let t2 = Core.Txn.begin_ sdb in
  Core.Txn.rollback t2

(* ---- equality transitivity --------------------------------------------------- *)

let test_transitivity_derives_constant () =
  let sdb = Core.Softdb.create () in
  ignore
    (Core.Softdb.exec_script sdb
       "CREATE TABLE ta (k INT PRIMARY KEY, x INT);
        CREATE TABLE tb (k INT PRIMARY KEY, y INT);
        CREATE INDEX tb_k ON tb (k);");
  for i = 1 to 300 do
    ignore
      (Core.Softdb.exec sdb
         (Printf.sprintf "INSERT INTO ta VALUES (%d, %d)" i (i * 2)));
    ignore
      (Core.Softdb.exec sdb
         (Printf.sprintf "INSERT INTO tb VALUES (%d, %d)" i (i * 3)))
  done;
  Core.Softdb.runstats sdb;
  let sql = "SELECT * FROM ta a, tb b WHERE a.k = b.k AND a.k = 42" in
  let report = Core.Softdb.explain sdb sql in
  check tbool "transitivity fired" true
    (List.mem "equality_transitivity" (rules_fired report));
  let base = Core.Softdb.query_baseline sdb sql in
  let opt = Core.Softdb.query sdb sql in
  check tbool "sound" true (Exec.Executor.same_rows base opt);
  check tint "one row" 1 (List.length opt.Exec.Executor.rows);
  check tbool "touches fewer rows" true
    (opt.Exec.Executor.counters.Exec.Operators.Counters.rows_scanned
    < base.Exec.Executor.counters.Exec.Operators.Counters.rows_scanned)

let test_transitivity_chain () =
  let sdb = Core.Softdb.create () in
  ignore
    (Core.Softdb.exec_script sdb
       "CREATE TABLE c1 (k INT PRIMARY KEY);
        CREATE TABLE c2 (k INT PRIMARY KEY);
        CREATE TABLE c3 (k INT PRIMARY KEY);");
  for i = 1 to 50 do
    List.iter
      (fun t ->
        ignore
          (Core.Softdb.exec sdb
             (Printf.sprintf "INSERT INTO %s VALUES (%d)" t i)))
      [ "c1"; "c2"; "c3" ]
  done;
  Core.Softdb.runstats sdb;
  let sql =
    "SELECT * FROM c1 a, c2 b, c3 c WHERE a.k = b.k AND b.k = c.k AND c.k = 7"
  in
  let report = Core.Softdb.explain sdb sql in
  (* the constant must reach all three relations (fixpoint iteration) *)
  let derived =
    List.filter
      (fun (a : Opt.Rewrite.applied) ->
        a.Opt.Rewrite.rule = "equality_transitivity")
      report.Opt.Explain.applied
  in
  check tint "two derived constants" 2 (List.length derived);
  let base = Core.Softdb.query_baseline sdb sql in
  let opt = Core.Softdb.query sdb sql in
  check tbool "sound" true (Exec.Executor.same_rows base opt)

(* ---- probation lifecycle (§3.2) -------------------------------------------- *)

let test_probation_invisible_then_promoted () =
  let sdb = Core.Softdb.create () in
  Workload.Purchase.load
    ~config:
      { Workload.Purchase.default_config with rows = 1000; late_fraction = 0.0 }
    (Core.Softdb.db sdb);
  Core.Softdb.runstats sdb;
  let db = Core.Softdb.db sdb in
  let tbl = Database.table_exn db "purchase" in
  let d =
    Option.get
      (Mining.Diff_band.mine tbl ~col_hi:"ship_date" ~col_lo:"order_date")
  in
  let b100 = Option.get (Mining.Diff_band.band_with d ~confidence:1.0) in
  Core.Softdb.install_sc sdb
    (Core.Soft_constraint.make ~name:"prob_band" ~table:"purchase"
       ~kind:Core.Soft_constraint.Absolute ~state:Core.Soft_constraint.Probation
       ~installed_at_mutations:(Table.mutations tbl)
       (Core.Soft_constraint.Diff_stmt (d, b100)));
  (* invisible to the optimizer while in probation *)
  let sql = Workload.Queries.purchase_ship_eq (Date.of_ymd 1999 6 15) in
  check tbool "no rewrite during probation" true
    (rules_fired (Core.Softdb.explain sdb sql) = []
    || not
         (List.mem "predicate_introduction"
            (rules_fired (Core.Softdb.explain sdb sql))));
  (* survive 100 clean mutations -> promoted *)
  let rng = Stats.Rng.create 5 in
  Workload.Purchase.insert_batch ~violating:0.0 ~rng ~start_id:600_000
    ~count:100 db;
  let m = Core.Softdb.maintenance sdb in
  let promoted, rejected = Core.Maintenance.promote_survivors ~after:100 m in
  check tint "promoted" 1 (List.length promoted);
  check tint "rejected" 0 (List.length rejected);
  check tbool "now exploited" true
    (List.mem "predicate_introduction"
       (rules_fired (Core.Softdb.explain sdb sql)))

let test_probation_rejects_violated () =
  let sdb = Core.Softdb.create () in
  Workload.Purchase.load
    ~config:
      { Workload.Purchase.default_config with rows = 1000; late_fraction = 0.0 }
    (Core.Softdb.db sdb);
  Core.Softdb.runstats sdb;
  let db = Core.Softdb.db sdb in
  let tbl = Database.table_exn db "purchase" in
  let d =
    Option.get
      (Mining.Diff_band.mine tbl ~col_hi:"ship_date" ~col_lo:"order_date")
  in
  let b100 = Option.get (Mining.Diff_band.band_with d ~confidence:1.0) in
  let sc =
    Core.Soft_constraint.make ~name:"prob_band2" ~table:"purchase"
      ~kind:Core.Soft_constraint.Absolute ~state:Core.Soft_constraint.Probation
      ~installed_at_mutations:(Table.mutations tbl)
      (Core.Soft_constraint.Diff_stmt (d, b100))
  in
  Core.Softdb.install_sc sdb sc;
  let rng = Stats.Rng.create 5 in
  Workload.Purchase.insert_batch ~violating:0.2 ~rng ~start_id:600_000
    ~count:100 db;
  check tbool "violations observed during probation" true
    (sc.Core.Soft_constraint.violation_count > 0);
  let m = Core.Softdb.maintenance sdb in
  let promoted, rejected = Core.Maintenance.promote_survivors ~after:100 m in
  check tint "none promoted" 0 (List.length promoted);
  check tint "one rejected" 1 (List.length rejected);
  check tbool "dropped" true
    (sc.Core.Soft_constraint.state = Core.Soft_constraint.Dropped)

(* ---- value-set pruning --------------------------------------------------------- *)

let test_value_set_pruning () =
  let sdb = Core.Softdb.create () in
  ignore
    (Core.Softdb.exec_script sdb
       "CREATE TABLE ev (id INT PRIMARY KEY, region VARCHAR NOT NULL);
        INSERT INTO ev VALUES (1, 'north'), (2, 'south'), (3, 'north');");
  Core.Softdb.runstats sdb;
  let db = Core.Softdb.db sdb in
  let tbl = Database.table_exn db "ev" in
  let vs =
    Option.get (Mining.Domain_mine.mine_value_set tbl ~column:"region")
  in
  Core.Softdb.install_sc sdb
    (Core.Soft_constraint.make ~name:"region_set" ~table:"ev"
       ~kind:Core.Soft_constraint.Absolute
       ~installed_at_mutations:(Table.mutations tbl)
       (Core.Soft_constraint.Ic_stmt
          (Icdef.Check (Mining.Domain_mine.value_set_to_check vs))));
  (* a constant outside the value set proves emptiness *)
  let sql = "SELECT * FROM ev WHERE region = 'mars'" in
  let base = Core.Softdb.query_baseline sdb sql in
  let opt = Core.Softdb.query sdb sql in
  check tbool "sound" true (Exec.Executor.same_rows base opt);
  check tint "zero rows touched" 0
    opt.Exec.Executor.counters.Exec.Operators.Counters.rows_scanned;
  check tbool "unsat fired" true
    (List.mem "unsatisfiable" (rules_fired (Core.Softdb.explain sdb sql)));
  (* a member of the set is untouched *)
  let sql2 = "SELECT * FROM ev WHERE region = 'north'" in
  let base2 = Core.Softdb.query_baseline sdb sql2 in
  let opt2 = Core.Softdb.query sdb sql2 in
  check tbool "member sound" true (Exec.Executor.same_rows base2 opt2);
  check tint "two rows" 2 (List.length opt2.Exec.Executor.rows)

(* ---- plan cache (§4.1): invalidation + backup plans ---------------------------- *)

let plan_cache_fixture () =
  let sdb = Core.Softdb.create () in
  Workload.Purchase.load
    ~config:
      { Workload.Purchase.default_config with rows = 3000; late_fraction = 0.0 }
    (Core.Softdb.db sdb);
  Core.Softdb.runstats sdb;
  let db = Core.Softdb.db sdb in
  let tbl = Database.table_exn db "purchase" in
  let d =
    Option.get
      (Mining.Diff_band.mine tbl ~col_hi:"ship_date" ~col_lo:"order_date")
  in
  let b100 = Option.get (Mining.Diff_band.band_with d ~confidence:1.0) in
  Core.Softdb.install_sc sdb
    (Core.Soft_constraint.make ~name:"cache_band" ~table:"purchase"
       ~kind:Core.Soft_constraint.Absolute
       ~installed_at_mutations:(Table.mutations tbl)
       (Core.Soft_constraint.Diff_stmt (d, b100)));
  sdb

let test_plan_cache_tracks_dependencies () =
  let sdb = plan_cache_fixture () in
  let cache = Core.Plan_cache.create sdb in
  let sql = Workload.Queries.purchase_ship_eq (Date.of_ymd 1999 6 15) in
  let entry = Core.Plan_cache.prepare cache ~name:"q1" sql in
  check tbool "depends on the band" true
    (List.mem "cache_band" entry.Core.Plan_cache.report.Opt.Explain.guards);
  let r = Core.Plan_cache.execute cache "q1" in
  check tbool "fast run counted" true
    ((Option.get (Core.Plan_cache.find cache "q1")).Core.Plan_cache.fast_runs
    = 1);
  let baseline = Core.Softdb.query_baseline sdb sql in
  check tbool "prepared result correct" true
    (Exec.Executor.same_rows baseline r)

let test_plan_cache_falls_back_on_violation () =
  let sdb = plan_cache_fixture () in
  let cache = Core.Plan_cache.create sdb in
  let day = Date.of_ymd 1999 6 15 in
  let sql = Workload.Queries.purchase_ship_eq day in
  ignore (Core.Plan_cache.prepare cache ~name:"q1" sql);
  (* overturn the ASC (drop policy) with a violating insert shipped on the
     probe day so the answer set actually changes *)
  ignore
    (Core.Softdb.exec sdb
       "INSERT INTO purchase VALUES (900001, 1, DATE '1999-01-05', DATE \
        '1999-06-15', 100.0, 3, 'north')");
  let sc =
    Option.get (Core.Sc_catalog.find (Core.Softdb.catalog sdb) "cache_band")
  in
  check tbool "asc overturned" true
    (sc.Core.Soft_constraint.state = Core.Soft_constraint.Violated);
  (* the prepared fast plan would now MISS the new row (its introduced
     order_date range excludes January); the cache must revert to backup *)
  let r = Core.Plan_cache.execute cache "q1" in
  let baseline = Core.Softdb.query_baseline sdb sql in
  check tbool "backup used" true
    ((Option.get (Core.Plan_cache.find cache "q1")).Core.Plan_cache.backup_runs
    = 1);
  check tbool "still correct via backup" true
    (Exec.Executor.same_rows baseline r);
  check tbool "row visible" true
    (List.exists
       (fun row -> Rel.Tuple.get row 0 = Value.Int 900001)
       r.Exec.Executor.rows);
  (* after re-mining (async repair path) + reprepare, fast plans return *)
  Core.Maintenance.set_policy (Core.Softdb.maintenance sdb) "cache_band"
    Core.Maintenance.Async_repair;
  sc.Core.Soft_constraint.state <- Core.Soft_constraint.Violated;
  let m = Core.Softdb.maintenance sdb in
  ignore m;
  (* direct re-mine for the test *)
  let tbl = Database.table_exn (Core.Softdb.db sdb) "purchase" in
  let d =
    Option.get
      (Mining.Diff_band.mine tbl ~col_hi:"ship_date" ~col_lo:"order_date")
  in
  let b100 = Option.get (Mining.Diff_band.band_with d ~confidence:1.0) in
  sc.Core.Soft_constraint.statement <-
    Core.Soft_constraint.Ic_stmt
      (Icdef.Check (Mining.Diff_band.to_check_pred d b100));
  sc.Core.Soft_constraint.state <- Core.Soft_constraint.Active;
  Core.Plan_cache.reprepare cache;
  let r2 = Core.Plan_cache.execute cache "q1" in
  check tbool "fast again after reprepare" true
    ((Option.get (Core.Plan_cache.find cache "q1")).Core.Plan_cache.fast_runs
    >= 1);
  check tbool "correct after reprepare" true
    (Exec.Executor.same_rows (Core.Softdb.query_baseline sdb sql) r2)

let test_plan_cache_ssc_deps_do_not_invalidate () =
  (* twins are estimation-only: their staleness must not flip plans *)
  let sdb = Core.Softdb.create () in
  Workload.Project.load
    ~config:{ Workload.Project.default_config with rows = 2000 }
    (Core.Softdb.db sdb);
  Core.Softdb.runstats sdb;
  let db = Core.Softdb.db sdb in
  let tbl = Database.table_exn db "project" in
  let d =
    Option.get
      (Mining.Diff_band.mine tbl ~col_hi:"end_date" ~col_lo:"start_date")
  in
  let b90 = Option.get (Mining.Diff_band.band_with d ~confidence:0.9) in
  Core.Softdb.install_sc sdb
    (Core.Soft_constraint.make ~name:"proj_ssc" ~table:"project"
       ~kind:(Core.Soft_constraint.Statistical b90.Mining.Diff_band.confidence)
       ~installed_at_mutations:(Table.mutations tbl)
       (Core.Soft_constraint.Diff_stmt (d, b90)));
  let cache = Core.Plan_cache.create sdb in
  let sql = Workload.Queries.project_active_on (Date.of_ymd 1998 9 1) in
  let entry = Core.Plan_cache.prepare cache ~name:"p1" sql in
  check tbool "twin dep excluded" false
    (List.mem "proj_ssc" entry.Core.Plan_cache.report.Opt.Explain.guards);
  ignore (Core.Plan_cache.execute cache "p1");
  check tbool "fast" true (entry.Core.Plan_cache.backup_runs = 0)

(* ---- the exact [10] scenario: linear correlation opens an index ---------------- *)

let test_linear_correlation_opens_index () =
  let sdb = Core.Softdb.create () in
  ignore
    (Core.Softdb.exec_script sdb
       "CREATE TABLE lin (id INT PRIMARY KEY, a FLOAT NOT NULL, b INT NOT \
        NULL);
        CREATE INDEX lin_a ON lin (a);");
  let db = Core.Softdb.db sdb in
  let rng = Stats.Rng.create 19 in
  for i = 1 to 3000 do
    let b = Stats.Rng.int rng 1000 in
    let a =
      (2.0 *. float_of_int b) +. 5.0 +. Stats.Rng.float_range rng (-2.0) 2.0
    in
    ignore
      (Database.insert db ~table:"lin"
         (Tuple.make [ Value.Int i; Value.Float a; Value.Int b ]))
  done;
  Core.Softdb.runstats sdb;
  (* mine the correlation and install the 100% band as an ASC *)
  let tbl = Database.table_exn db "lin" in
  let band =
    List.assoc 1.0
      (Option.get (Mining.Band.mine tbl Mining.Band.Line ~a:"a" ~b:"b"))
        .Mining.Band.bands
  in
  check tbool "k near 2" true
    (Float.abs (band.Mining.Band.map.Mining.Band.k -. 2.0) < 0.05);
  Core.Softdb.install_sc sdb
    (Core.Soft_constraint.make ~name:"lin_corr" ~table:"lin"
       ~kind:Core.Soft_constraint.Absolute
       ~installed_at_mutations:(Table.mutations tbl)
       (Core.Soft_constraint.Ic_stmt (Icdef.Check (Mining.Band.to_pred band))));
  (* the paper's query shape: a predicate on the un-indexed B *)
  List.iter
    (fun sql ->
      let report = Core.Softdb.explain sdb sql in
      check tbool ("introduction fired: " ^ sql) true
        (List.mem "predicate_introduction" (rules_fired report));
      let rec uses_index = function
        | Exec.Plan.Index_scan { index = "lin_a"; _ } -> true
        | p -> List.exists uses_index (Exec.Plan.children p)
      in
      check tbool ("index on a used: " ^ sql) true
        (uses_index report.Opt.Explain.plan);
      let base = Core.Softdb.query_baseline sdb sql in
      let opt = Core.Softdb.query sdb sql in
      check tbool ("sound: " ^ sql) true (Exec.Executor.same_rows base opt);
      check tbool ("cheaper: " ^ sql) true
        (opt.Exec.Executor.counters.Exec.Operators.Counters.rows_scanned
        < base.Exec.Executor.counters.Exec.Operators.Counters.rows_scanned))
    [
      (* equality binding: the check folds against the constant *)
      "SELECT * FROM lin WHERE b = 500";
      (* range predicate: the range on b maps through the check's band *)
      "SELECT * FROM lin WHERE b BETWEEN 100 AND 120";
    ];
  (* behind an exception table the band is used only by the exception
     union, whose fast branch takes the same fold and range image; a
     violator must come back through the exception branch *)
  ignore
    (Core.Softdb.exec sdb
       "CREATE EXCEPTION TABLE lin_exc FOR CONSTRAINT lin_corr");
  ignore (Core.Softdb.exec sdb "INSERT INTO lin VALUES (5000, 9999.0, 110)");
  List.iter
    (fun sql ->
      check tbool ("exception union fired: " ^ sql) true
        (List.mem "exception_union"
           (rules_fired (Core.Softdb.explain sdb sql)));
      let base = Core.Softdb.query_baseline sdb sql in
      check tbool ("violator returned: " ^ sql) true
        (List.exists
           (fun row -> Tuple.get row 0 = Value.Int 5000)
           base.Exec.Executor.rows);
      check tbool ("sound: " ^ sql) true
        (Exec.Executor.same_rows base (Core.Softdb.query sdb sql)))
    [
      "SELECT * FROM lin WHERE b = 110";
      "SELECT * FROM lin WHERE b BETWEEN 100 AND 120";
    ]

(* ---- one band, however it was declared ----------------------------------- *)

(* [purchase] with every order shipped on time, carrying the paper's
   [0, 21] shipping band declared in SQL ([sql], a SOFT check that holds
   and so is an ASC), installed as a mined difference band ASC
   ([mined]), or both. *)
let banded_purchase ~sql ~mined =
  let sdb = Core.Softdb.create () in
  Workload.Purchase.load
    ~config:
      {
        Workload.Purchase.default_config with
        rows = 3_000;
        late_fraction = 0.0;
      }
    (Core.Softdb.db sdb);
  Core.Softdb.runstats sdb;
  if sql then begin
    ignore
      (Core.Softdb.exec sdb
         "ALTER TABLE purchase ADD CONSTRAINT ship_3w CHECK (ship_date - \
          order_date BETWEEN 0 AND 21) SOFT");
    check tbool "declared band is an ASC" true
      (Core.Soft_constraint.is_absolute
         (Option.get
            (Core.Sc_catalog.find (Core.Softdb.catalog sdb) "ship_3w")))
  end;
  if mined then begin
    let tbl = Database.table_exn (Core.Softdb.db sdb) "purchase" in
    let d =
      Option.get
        (Mining.Diff_band.mine tbl ~col_hi:"ship_date" ~col_lo:"order_date")
    in
    Core.Softdb.install_sc sdb
      (Core.Soft_constraint.make ~name:"ship_band" ~table:"purchase"
         ~installed_at_mutations:(Table.mutations tbl)
         (Core.Soft_constraint.Diff_stmt
            ( d,
              { Mining.Diff_band.confidence = 1.0; d_min = 0.0; d_max = 21.0 }
            )))
  end;
  sdb

let introduced (report : Opt.Explain.report) =
  List.filter_map
    (fun (a : Opt.Rewrite.applied) ->
      match a.Opt.Rewrite.delta with
      | Opt.Rewrite.Pred_added p
        when a.Opt.Rewrite.rule = "predicate_introduction" ->
          Some (Expr.to_string_pred p)
      | _ -> None)
    report.Opt.Explain.applied

let ship_day = Date.of_ymd 1999 6 10

(* The SQL band, the mined band, and both at once introduce the same
   conjuncts, each once, read the same rows and give the same estimate. *)
let test_one_band_however_declared () =
  let fixtures =
    [
      ("declared", banded_purchase ~sql:true ~mined:false);
      ("mined", banded_purchase ~sql:false ~mined:true);
      ("both", banded_purchase ~sql:true ~mined:true);
    ]
  in
  List.iter
    (fun sql ->
      let on (label, sdb) =
        let r = Core.Softdb.query sdb sql in
        check tbool (label ^ " sound: " ^ sql) true
          (Exec.Executor.same_rows (Core.Softdb.query_baseline sdb sql) r);
        let report = Core.Softdb.explain sdb sql in
        ( introduced report,
          r.Exec.Executor.counters.Exec.Operators.Counters.rows_scanned,
          report.Opt.Explain.estimated_cardinality )
      in
      match List.map on fixtures with
      | [ ((preds, scanned, _) as declared); mined; both ] ->
          check tint ("one conjunct introduced: " ^ sql) 1 (List.length preds);
          check tbool ("index narrows the scan: " ^ sql) true (scanned < 3_000);
          let same = Alcotest.(triple (list string) int (float 1e-9)) in
          check same ("mined as declared: " ^ sql) declared mined;
          check same ("both as either alone: " ^ sql) declared both
      | _ -> assert false)
    [
      Workload.Queries.purchase_ship_eq ship_day;
      Workload.Queries.purchase_ship_range ship_day (Date.add_days ship_day 6);
    ]

(* A statistical band twins however it came to be: mined, declared in
   SQL with SOFT CONFIDENCE, or declared SOFT and found not to hold (then
   kept as an SSC at its measured confidence). *)
let twin_sql =
  "SELECT * FROM purchase WHERE order_date BETWEEN DATE '1999-03-01' AND \
   DATE '1999-03-31' AND ship_date <= DATE '1999-04-10'"

let twinned sdb =
  List.exists
    (fun (a : Opt.Rewrite.applied) -> a.Opt.Rewrite.rule = "twinning")
    (Core.Softdb.explain sdb twin_sql).Opt.Explain.applied

let test_ssc_twins_however_declared () =
  let purchase () =
    let sdb = Core.Softdb.create () in
    Workload.Purchase.load
      ~config:{ Workload.Purchase.default_config with rows = 5_000 }
      (Core.Softdb.db sdb);
    Core.Softdb.runstats sdb;
    sdb
  in
  let mined = purchase () in
  let tbl = Database.table_exn (Core.Softdb.db mined) "purchase" in
  let d =
    Option.get
      (Mining.Diff_band.mine tbl ~col_hi:"ship_date" ~col_lo:"order_date")
  in
  let band =
    { (Option.get (Mining.Diff_band.band_with d ~confidence:0.95)) with
      Mining.Diff_band.confidence = 0.95 }
  in
  Core.Softdb.install_sc mined
    (Core.Soft_constraint.make ~name:"ship_band" ~table:"purchase"
       ~kind:(Core.Soft_constraint.Statistical 0.95)
       ~installed_at_mutations:(Table.mutations tbl)
       (Core.Soft_constraint.Diff_stmt (d, band)));
  let declared = purchase () in
  ignore
    (Core.Softdb.exec declared
       (Printf.sprintf
          "ALTER TABLE purchase ADD CONSTRAINT ship_band CHECK (ship_date - \
           order_date BETWEEN %.0f AND %.0f) SOFT CONFIDENCE 0.95"
          band.Mining.Diff_band.d_min band.Mining.Diff_band.d_max));
  let failed = purchase () in
  ignore
    (Core.Softdb.exec_script failed
       "ALTER TABLE purchase ADD CONSTRAINT ship_3w CHECK (ship_date - \
        order_date BETWEEN 0 AND 21) SOFT;\n\
        CREATE EXCEPTION TABLE late_shipments FOR CONSTRAINT ship_3w;");
  check tbool "a failed SOFT band is an SSC" false
    (Core.Soft_constraint.is_absolute
       (Option.get (Core.Sc_catalog.find (Core.Softdb.catalog failed) "ship_3w")));
  List.iter
    (fun (label, sdb) ->
      check tbool (label ^ " twins") true (twinned sdb);
      check tbool (label ^ " sound") true
        (Exec.Executor.same_rows
           (Core.Softdb.query_baseline sdb twin_sql)
           (Core.Softdb.query sdb twin_sql)))
    [ ("mined", mined); ("declared", declared); ("failed", failed) ];
  let estimate sdb =
    (Core.Softdb.explain sdb twin_sql).Opt.Explain.estimated_cardinality
  in
  check (Alcotest.float 1e-9) "declared estimates as mined" (estimate mined)
    (estimate declared)

(* The declared band ([ship_3w]) and the same band mined ([ship_band])
   take each maintenance path alike: one fixture of each, the same
   statements, then the two SCs compared. *)
let declared_and_mined () =
  [
    ("ship_3w", banded_purchase ~sql:true ~mined:false);
    ("ship_band", banded_purchase ~sql:false ~mined:true);
  ]

let sc_of (name, sdb) =
  Option.get (Core.Sc_catalog.find (Core.Softdb.catalog sdb) name)

let late_insert id days =
  Printf.sprintf
    "INSERT INTO purchase VALUES (%d, 1, DATE '1999-06-01', DATE '%s', \
     10.0, 1, 'north')"
    id
    (Date.to_string (Date.add_days (Date.of_ymd 1999 6 1) days))

let same_check label pairs =
  match List.map (fun p -> Core.Soft_constraint.check_pred (sc_of p)) pairs with
  | [ Some declared; Some mined ] ->
      check Alcotest.string label
        (Expr.to_string_pred declared)
        (Expr.to_string_pred mined);
      check tbool (label ^ " (structurally)") true (declared = mined);
      declared
  | _ -> Alcotest.fail (label ^ ": expected two checks")

let test_one_band_sync_repair () =
  let pairs = declared_and_mined () in
  List.iter
    (fun (name, sdb) ->
      Core.Maintenance.set_policy (Core.Softdb.maintenance sdb) name
        Core.Maintenance.Sync_repair;
      ignore (Core.Softdb.exec sdb (late_insert 900001 40)))
    pairs;
  List.iter
    (fun p ->
      check tbool (fst p ^ " widened, still active") true
        (Core.Soft_constraint.is_usable (sc_of p)))
    pairs;
  let widened = same_check "widened alike" pairs in
  check Alcotest.string "widened to the late row"
    "(ship_date - order_date) BETWEEN 0 AND 40"
    (Expr.to_string_pred widened)

let test_one_band_async_remine () =
  let pairs = declared_and_mined () in
  List.iter
    (fun (name, sdb) ->
      let m = Core.Softdb.maintenance sdb in
      Core.Maintenance.set_policy m name Core.Maintenance.Async_repair;
      ignore (Core.Softdb.exec sdb (late_insert 900001 40));
      check tbool (name ^ " violated while queued") false
        (Core.Soft_constraint.is_usable (sc_of (name, sdb)));
      Core.Maintenance.run_repairs m)
    pairs;
  List.iter
    (fun p ->
      check tbool (fst p ^ " re-mined and reinstated") true
        (Core.Soft_constraint.is_usable (sc_of p)))
    pairs;
  ignore (same_check "re-mined alike" pairs)

let test_one_band_measured_confidence () =
  let pairs = declared_and_mined () in
  let measured =
    List.map
      (fun (name, sdb) ->
        (* a late row and a row with no ship date: the share is over the
           rows with both columns *)
        ignore (Core.Softdb.exec sdb (late_insert 900001 40));
        ignore
          (Core.Softdb.exec sdb
             "INSERT INTO purchase VALUES (900002, 1, DATE '1999-06-01', \
              NULL, 10.0, 1, 'north')");
        Option.get
          (Core.Maintenance.measured_confidence (Core.Softdb.db sdb)
             (sc_of (name, sdb))))
      pairs
  in
  match measured with
  | [ declared; mined ] ->
      check (Alcotest.float 0.0) "declared measures as mined" mined declared;
      check (Alcotest.float 1e-12) "the late row is the one miss"
        (3000.0 /. 3001.0) mined
  | _ -> assert false

let test_one_band_codec_roundtrip () =
  let pairs = declared_and_mined () in
  let reprs =
    List.map
      (fun p ->
        let stmt = (sc_of p).Core.Soft_constraint.statement in
        let repr = Core.Sc_codec.statement_repr stmt in
        check tbool (fst p ^ " round-trips") true
          (Core.Sc_codec.statement_of_repr repr = stmt);
        repr)
      pairs
  in
  match reprs with
  | [ declared; mined ] ->
      check Alcotest.string "one repr" declared mined;
      check tbool "written as its check" true
        (String.starts_with ~prefix:"ic|" mined)
  | _ -> assert false

(* ---- APB-style hierarchies end to end ----------------------------------------- *)

let test_apb_hierarchy_fds () =
  let sdb = Core.Softdb.create () in
  Workload.Apb.load
    ~config:{ Workload.Apb.default_config with facts = 4000; skus = 300 }
    (Core.Softdb.db sdb);
  Core.Softdb.runstats sdb;
  let db = Core.Softdb.db sdb in
  let product = Database.table_exn db "product" in
  (* the hierarchy must be discoverable *)
  let fds = Mining.Fd_mine.mine ~max_lhs:1 ~exclude_keys:[ "sku"; "pname" ] product in
  let has lhs rhs =
    List.exists
      (fun f -> f.Mining.Fd_mine.lhs = [ lhs ] && f.Mining.Fd_mine.rhs = rhs)
      fds
  in
  check tbool "class -> pgroup" true (has "class" "pgroup");
  check tbool "pgroup -> family" true (has "pgroup" "family");
  (* install class -> pgroup and exploit it on the rollup query *)
  Core.Softdb.install_sc sdb
    (Core.Soft_constraint.make ~name:"class_group_fd" ~table:"product"
       ~kind:Core.Soft_constraint.Absolute
       ~installed_at_mutations:(Table.mutations product)
       (Core.Soft_constraint.Fd_stmt
          { Mining.Fd_mine.table = "product"; lhs = [ "class" ];
            rhs = "pgroup" }));
  let sql = Workload.Apb.rollup_by_class_and_group in
  let report = Core.Softdb.explain sdb sql in
  check tbool "fd simplification fired" true
    (List.mem "fd_simplification" (rules_fired report));
  let base = Core.Softdb.query_baseline sdb sql in
  let opt = Core.Softdb.query sdb sql in
  check tbool "rollup sound" true (Exec.Executor.same_rows base opt);
  (* the other APB queries stay sound too *)
  List.iter
    (fun sql ->
      let base = Core.Softdb.query_baseline sdb sql in
      let opt = Core.Softdb.query sdb sql in
      check tbool ("sound: " ^ sql) true (Exec.Executor.same_rows base opt))
    Workload.Apb.queries

let () =
  Alcotest.run "extensions"
    [
      ( "domain_tracker",
        [
          Alcotest.test_case "installs ranges" `Quick
            test_domain_track_installs;
          Alcotest.test_case "widens on insert" `Quick
            test_domain_widens_on_insert;
          Alcotest.test_case "proves emptiness" `Quick
            test_domain_proves_emptiness;
          Alcotest.test_case "closes open range" `Quick
            test_domain_closes_open_range;
          Alcotest.test_case "retighten after delete" `Quick
            test_domain_retighten_after_delete;
        ] );
      ( "txn",
        [
          Alcotest.test_case "commit keeps" `Quick test_txn_commit_keeps;
          Alcotest.test_case "rollback restores" `Quick
            test_txn_rollback_restores;
          Alcotest.test_case "atomically" `Quick test_txn_atomically;
          Alcotest.test_case "reinstates ASC on abort" `Quick
            test_txn_reinstates_asc_on_abort;
          Alcotest.test_case "exception table consistent across rollback"
            `Quick test_txn_rollback_keeps_exception_table_consistent;
          Alcotest.test_case "rollback of a delete keeps one exception copy"
            `Quick test_txn_rollback_delete_keeps_one_exception_copy;
          Alcotest.test_case "single active" `Quick test_txn_single_active;
        ] );
      ( "equality_transitivity",
        [
          Alcotest.test_case "derives constant" `Quick
            test_transitivity_derives_constant;
          Alcotest.test_case "chain fixpoint" `Quick test_transitivity_chain;
        ] );
      ( "probation",
        [
          Alcotest.test_case "invisible then promoted" `Quick
            test_probation_invisible_then_promoted;
          Alcotest.test_case "rejects violated" `Quick
            test_probation_rejects_violated;
        ] );
      ( "value_set",
        [ Alcotest.test_case "pruning" `Quick test_value_set_pruning ] );
      ( "linear_correlation",
        [
          Alcotest.test_case "[10]: correlation opens index" `Quick
            test_linear_correlation_opens_index;
        ] );
      ( "band_reach",
        [
          Alcotest.test_case "one band, however declared" `Quick
            test_one_band_however_declared;
          Alcotest.test_case "an SSC twins, however declared" `Quick
            test_ssc_twins_however_declared;
          Alcotest.test_case "declared as mined: sync repair" `Quick
            test_one_band_sync_repair;
          Alcotest.test_case "declared as mined: async re-mine" `Quick
            test_one_band_async_remine;
          Alcotest.test_case "declared as mined: measured confidence" `Quick
            test_one_band_measured_confidence;
          Alcotest.test_case "declared as mined: codec round trip" `Quick
            test_one_band_codec_roundtrip;
        ] );
      ( "plan_cache",
        [
          Alcotest.test_case "tracks dependencies" `Quick
            test_plan_cache_tracks_dependencies;
          Alcotest.test_case "falls back on violation" `Quick
            test_plan_cache_falls_back_on_violation;
          Alcotest.test_case "ssc deps never invalidate" `Quick
            test_plan_cache_ssc_deps_do_not_invalidate;
        ] );
      ( "apb",
        [
          Alcotest.test_case "hierarchy FDs mined and exploited" `Slow
            test_apb_hierarchy_fds;
        ] );
    ]
