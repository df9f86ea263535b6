(* Tests for the observability & cardinality-feedback subsystem: the
   metrics registry, q-error and confidence recalibration, the query log,
   EXPLAIN ANALYZE (estimated vs. actual rows per plan node), the
   sys.* virtual tables, and the end-to-end loop where a contradicted
   SSC's catalog confidence is pulled toward the observed selectivity. *)

open Rel

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tfloat = Alcotest.float

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---- metrics registry ------------------------------------------------------ *)

let test_metrics_counters_gauges () =
  let m = Obs.Metrics.create () in
  check tint "unknown counter is 0" 0 (Obs.Metrics.counter m "nope");
  Obs.Metrics.incr m "a";
  Obs.Metrics.incr ~by:4 m "a";
  check tint "counter accumulates" 5 (Obs.Metrics.counter m "a");
  check tbool "unknown gauge" true (Obs.Metrics.gauge m "g" = None);
  Obs.Metrics.set_gauge m "g" 2.5;
  Obs.Metrics.set_gauge m "g" 3.5;
  check (tfloat 1e-9) "gauge keeps last" 3.5
    (Option.get (Obs.Metrics.gauge m "g"));
  Obs.Metrics.reset m;
  check tint "reset clears" 0 (Obs.Metrics.counter m "a")

let test_metrics_samples_summary () =
  let m = Obs.Metrics.create () in
  check tbool "no samples -> no summary" true
    (Obs.Metrics.summary m "s" = None);
  List.iter (Obs.Metrics.observe m "s") [ 4.0; 1.0; 3.0; 2.0 ];
  check tbool "oldest first" true
    (Obs.Metrics.samples m "s" = [ 4.0; 1.0; 3.0; 2.0 ]);
  let s = Option.get (Obs.Metrics.summary m "s") in
  check tint "count" 4 s.Obs.Metrics.count;
  check (tfloat 1e-9) "mean" 2.5 s.Obs.Metrics.mean;
  check (tfloat 1e-9) "min" 1.0 s.Obs.Metrics.min_v;
  check (tfloat 1e-9) "max" 4.0 s.Obs.Metrics.max_v

let test_snapshot_deterministic_no_timings () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr ~by:7 m "c";
  Obs.Metrics.set_gauge m "g" 1.5;
  Obs.Metrics.observe m "s" 2.0;
  (* timings must never surface in the snapshot: they are wall clock *)
  let x = Obs.Metrics.time m "t.wall" (fun () -> 41 + 1) in
  check tint "time returns result" 42 x;
  check tbool "timing recorded" true
    (List.exists (fun (n, _, _) -> n = "t.wall") (Obs.Metrics.timings m));
  let snap = Obs.Metrics.snapshot m in
  check tbool "snapshot excludes timings" false
    (List.exists (fun (n, _, _) -> n = "t.wall") snap);
  check tbool "snapshot stable" true (snap = Obs.Metrics.snapshot m);
  check tbool "counter row" true (List.mem ("c", "counter", 7.0) snap);
  check tbool "gauge row" true (List.mem ("g", "gauge", 1.5) snap);
  check tbool "sample expands" true (List.mem ("s.count", "sample", 1.0) snap)

(* ---- q-error and recalibration -------------------------------------------- *)

let test_q_error () =
  check (tfloat 1e-9) "exact" 1.0
    (Obs.Feedback.q_error ~estimated:10.0 ~actual:10);
  check (tfloat 1e-9) "overestimate" 10.0
    (Obs.Feedback.q_error ~estimated:100.0 ~actual:10);
  check (tfloat 1e-9) "underestimate" 10.0
    (Obs.Feedback.q_error ~estimated:10.0 ~actual:100);
  (* both sides floored at one row: empty results don't divide by zero *)
  check (tfloat 1e-9) "empty vs empty" 1.0
    (Obs.Feedback.q_error ~estimated:0.0 ~actual:0);
  check (tfloat 1e-9) "estimate below a row" 5.0
    (Obs.Feedback.q_error ~estimated:0.2 ~actual:5)

let test_recalibrate () =
  (* within tolerance: noise, keep the stored confidence *)
  check tbool "keep" true
    (Obs.Feedback.recalibrate ~stored:0.9 ~observed:0.85 ()
     = Obs.Feedback.Keep);
  (* moderate divergence: move toward the observation, no refresh *)
  (match Obs.Feedback.recalibrate ~stored:0.5 ~observed:0.65 () with
  | Obs.Feedback.Adjust { confidence; refresh } ->
      check (tfloat 1e-9) "half-step toward observed" 0.575 confidence;
      check tbool "no refresh" false refresh
  | Obs.Feedback.Keep -> Alcotest.fail "expected Adjust");
  (* divergence beyond twice the tolerance also queues a refresh *)
  (match Obs.Feedback.recalibrate ~stored:0.4 ~observed:0.9 () with
  | Obs.Feedback.Adjust { confidence; refresh } ->
      check (tfloat 1e-9) "moved toward observed" 0.65 confidence;
      check tbool "refresh queued" true refresh
  | Obs.Feedback.Keep -> Alcotest.fail "expected Adjust");
  (* a full-rate step lands exactly on the observation *)
  (match Obs.Feedback.recalibrate ~rate:1.0 ~stored:0.2 ~observed:0.8 () with
  | Obs.Feedback.Adjust { confidence; _ } ->
      check (tfloat 1e-9) "rate 1 jumps" 0.8 confidence
  | Obs.Feedback.Keep -> Alcotest.fail "expected Adjust")

let test_query_log () =
  let log = Obs.Query_log.create ~capacity:3 () in
  check (tfloat 1e-9) "empty mean" 1.0 (Obs.Query_log.mean_q_error log);
  for i = 1 to 5 do
    ignore
      (Obs.Query_log.add log
         ~sql:(Printf.sprintf "q%d" i)
         ~estimated_rows:(float_of_int (10 * i))
         ~actual_rows:10 ~rewrites:[] ~twins:[])
  done;
  check tint "bounded" 3 (Obs.Query_log.length log);
  (match Obs.Query_log.entries log with
  | first :: _ -> check tbool "oldest kept is q3" true (first.Obs.Query_log.sql = "q3")
  | [] -> Alcotest.fail "log empty");
  check (tfloat 1e-9) "worst q-error" 5.0 (Obs.Query_log.worst_q_error log);
  let last = Option.get (Obs.Query_log.last log) in
  check (tfloat 1e-9) "last entry q-error" 5.0 last.Obs.Query_log.q_error;
  Obs.Query_log.clear log;
  check tint "cleared" 0 (Obs.Query_log.length log)

(* ---- fixture: a table with a minable difference band ----------------------- *)

(* 100 rows; 90 have hi - lo in [0, 9], 10 outliers at hi - lo = 100, so
   the 0.9-confidence band is [0, 9] and its measured coverage is 0.9. *)
let band_sdb () =
  let sdb = Core.Softdb.create () in
  ignore (Core.Softdb.exec sdb "CREATE TABLE ev (lo INT, hi INT)");
  let b = Buffer.create 1024 in
  Buffer.add_string b "INSERT INTO ev VALUES ";
  for i = 0 to 99 do
    let lo = i in
    let d = if i mod 10 = 9 then 100 else i mod 10 in
    if i > 0 then Buffer.add_string b ", ";
    Buffer.add_string b (Printf.sprintf "(%d, %d)" lo (lo + d))
  done;
  ignore (Core.Softdb.exec sdb (Buffer.contents b));
  Core.Softdb.runstats sdb;
  sdb

let install_band_ssc sdb ~name ~confidence =
  let tbl = Database.table_exn (Core.Softdb.db sdb) "ev" in
  let d = Option.get (Mining.Diff_band.mine tbl ~col_hi:"hi" ~col_lo:"lo") in
  let band = Option.get (Mining.Diff_band.band_with d ~confidence:0.9) in
  Core.Softdb.install_sc sdb
    (Core.Soft_constraint.make ~name ~table:"ev"
       ~kind:(Core.Soft_constraint.Statistical confidence)
       ~installed_at_mutations:
         (Core.Sc_catalog.mutations_of (Core.Softdb.db sdb) "ev")
       (Core.Soft_constraint.Diff_stmt (d, band)))

(* a range on hi plus any predicate on lo makes the diff-band twin fire *)
let twin_sql = "SELECT * FROM ev WHERE hi >= 50 AND hi <= 60 AND lo >= 0"

(* ---- EXPLAIN ANALYZE ------------------------------------------------------- *)

let test_explain_analyze () =
  let sdb = band_sdb () in
  let baseline = Core.Softdb.query_baseline sdb twin_sql in
  let expected = List.length baseline.Exec.Executor.rows in
  match Core.Softdb.exec sdb ("EXPLAIN ANALYZE " ^ twin_sql) with
  | Core.Softdb.Analyzed a ->
      check tint "result rows" expected
        (List.length a.Opt.Explain.result.Exec.Executor.rows);
      (match a.Opt.Explain.nodes with
      | root :: _ ->
          check tint "root actual rows" expected
            root.Opt.Explain.actual_rows;
          check tbool "root q-error consistent" true
            (Float.abs
               (root.Opt.Explain.node_q_error
               -. Obs.Feedback.q_error
                    ~estimated:root.Opt.Explain.est_rows ~actual:expected)
            < 1e-9)
      | [] -> Alcotest.fail "no annotated nodes");
      check tbool "every node executed or idle" true
        (List.for_all
           (fun n -> n.Opt.Explain.actual_rows >= 0)
           a.Opt.Explain.nodes);
      let rendered = Opt.Explain.analysis_to_string a in
      check tbool "renders actual rows" true (contains rendered "actual=");
      check tbool "renders q-error" true (contains rendered "q=")
  | _ -> Alcotest.fail "expected Analyzed outcome"

(* Blocking operators drain their inputs while opening; the open must be
   charged to the node, or its inclusive time falls below its children's
   and its self time goes negative. *)
let test_explain_analyze_inclusive_times () =
  let sdb = Core.Softdb.create () in
  ignore (Core.Softdb.exec sdb "CREATE TABLE o (id INT, c INT)");
  ignore (Core.Softdb.exec sdb "CREATE TABLE l (oid INT, q INT)");
  let insert table n row =
    let b = Buffer.create (n * 16) in
    Buffer.add_string b ("INSERT INTO " ^ table ^ " VALUES ");
    for i = 0 to n - 1 do
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (row i)
    done;
    ignore (Core.Softdb.exec sdb (Buffer.contents b))
  in
  insert "o" 2000 (fun i -> Printf.sprintf "(%d, %d)" i (i mod 37));
  insert "l" 6000 (fun i -> Printf.sprintf "(%d, %d)" (i mod 2000) i);
  Core.Softdb.runstats sdb;
  let a =
    Core.Softdb.analyze sdb
      (Sqlfe.Parser.parse_query_string
         "SELECT o.c, COUNT(*) AS n, SUM(l.q) AS s FROM o, l WHERE o.id = \
          l.oid GROUP BY o.c ORDER BY o.c")
  in
  let labels = List.map (fun n -> n.Opt.Explain.label) a.Opt.Explain.nodes in
  List.iter
    (fun op ->
      check tbool (op ^ " in the plan") true
        (List.exists (fun l -> contains l op) labels))
    [ "HashJoin"; "Group"; "Sort" ];
  (* preorder: a node's direct children are the following nodes one level
     deeper, up to the next node at its own depth or above *)
  let rec check_nodes = function
    | [] -> ()
    | (n : Opt.Explain.node_stat) :: rest ->
        let rec kids acc = function
          | (c : Opt.Explain.node_stat) :: more
            when c.Opt.Explain.depth > n.Opt.Explain.depth ->
              kids
                (if c.Opt.Explain.depth = n.Opt.Explain.depth + 1 then
                   acc +. c.Opt.Explain.elapsed_s
                 else acc)
                more
          | _ -> acc
        in
        let children = kids 0.0 rest in
        check tbool
          (Printf.sprintf "%s: %.6fs covers its children's %.6fs"
             n.Opt.Explain.label n.Opt.Explain.elapsed_s children)
          true
          (n.Opt.Explain.elapsed_s +. 1e-9 >= children);
        check_nodes rest
  in
  check_nodes a.Opt.Explain.nodes

(* A node below [LIMIT 0] is opened but never pulled: it reads actual=0
   whatever its estimate, so the q-error summaries leave it out.  A
   drained node is pulled once per row and once more for the end. *)
let test_q_error_skips_unpulled () =
  let sdb = Core.Softdb.create () in
  ignore (Core.Softdb.exec sdb "CREATE TABLE t (id INT, v INT)");
  ignore
    (Core.Softdb.exec sdb
       ("INSERT INTO t VALUES "
       ^ String.concat ", "
           (List.init 500 (fun i -> Printf.sprintf "(%d, %d)" i (i mod 7)))));
  Core.Softdb.runstats sdb;
  let analyze sql = Core.Softdb.analyze sdb (Sqlfe.Parser.parse_query_string sql) in
  let scan a =
    List.find
      (fun n -> contains n.Opt.Explain.label "SeqScan")
      a.Opt.Explain.nodes
  in
  let a = analyze "SELECT * FROM t LIMIT 0" in
  let s = scan a in
  check tint "scan never pulled" 0 s.Opt.Explain.pulls;
  check tbool "its q-error is its estimate" true (s.Opt.Explain.node_q_error > 100.0);
  let pulled =
    List.filter (fun n -> n.Opt.Explain.pulls > 0) a.Opt.Explain.nodes
  in
  check tbool "the limit was pulled" true (pulled <> []);
  check (Alcotest.float 1e-9) "max over pulled nodes only"
    (List.fold_left (fun m n -> Float.max m n.Opt.Explain.node_q_error) 1.0 pulled)
    (Opt.Explain.node_q_error_max a);
  check tbool "geomean leaves it out" true
    (Opt.Explain.node_q_error_geomean a < s.Opt.Explain.node_q_error);
  let b = analyze "SELECT * FROM t WHERE v = 3" in
  let s = scan b in
  check tint "a drained scan: rows + 1 pulls" (s.Opt.Explain.actual_rows + 1)
    s.Opt.Explain.pulls

(* ---- SSC confidence recalibration end to end -------------------------------- *)

let test_ssc_recalibration () =
  let sdb = band_sdb () in
  (* stored confidence 0.4 contradicts the measured coverage 0.9 *)
  install_band_ssc sdb ~name:"ev_band" ~confidence:0.4;
  (* the baseline runs first: it logs its own (twin-free) entry, and the
     twin query must be the log's last for the inspection below *)
  let baseline = Core.Softdb.query_baseline sdb twin_sql in
  let result = Core.Softdb.query sdb twin_sql in
  check tbool "twin preserved the result" true
    (Exec.Executor.same_rows baseline result);
  let sc =
    Option.get (Core.Sc_catalog.find (Core.Softdb.catalog sdb) "ev_band")
  in
  (match sc.Core.Soft_constraint.kind with
  | Core.Soft_constraint.Statistical c ->
      check (tfloat 1e-6) "confidence pulled toward observed 0.9" 0.65 c
  | Core.Soft_constraint.Absolute -> Alcotest.fail "SSC became absolute");
  check tint "one recalibration counted" 1
    (Obs.Metrics.counter (Core.Softdb.metrics sdb) "feedback.recalibrations");
  check tbool "queued for refresh" true
    (List.mem "ev_band"
       (Core.Maintenance.repair_queue (Core.Softdb.maintenance sdb)));
  (* the query log carries the observation *)
  let last = Option.get (Obs.Query_log.last (Core.Softdb.query_log sdb)) in
  (match last.Obs.Query_log.twins with
  | [ tw ] ->
      check tbool "twin names the SSC" true (tw.Obs.Query_log.sc = "ev_band");
      check (tfloat 1e-6) "stored" 0.4 tw.Obs.Query_log.stored;
      check (tfloat 1e-6) "observed" 0.9 tw.Obs.Query_log.observed;
      check (tfloat 1e-6) "adjusted" 0.65
        (Option.get tw.Obs.Query_log.adjusted)
  | _ -> Alcotest.fail "expected exactly one twin observation");
  (* a second run starts from the recalibrated 0.65: still diverging from
     0.9, so it moves again — toward, never past, the observation *)
  ignore (Core.Softdb.query sdb twin_sql);
  (match sc.Core.Soft_constraint.kind with
  | Core.Soft_constraint.Statistical c ->
      check tbool "monotone approach" true (c > 0.65 && c <= 0.9)
  | Core.Soft_constraint.Absolute -> Alcotest.fail "SSC became absolute")

(* The coverage a twin observes is reused while the table and the SC's
   statement stay put; every kind of change must invalidate it, so the
   observation always equals a fresh measurement. *)
let test_coverage_memo_invalidation () =
  let sdb = band_sdb () in
  install_band_ssc sdb ~name:"ev_band" ~confidence:0.4;
  let observe () =
    ignore (Core.Softdb.query sdb twin_sql);
    let last = Option.get (Obs.Query_log.last (Core.Softdb.query_log sdb)) in
    match last.Obs.Query_log.twins with
    | [ tw ] -> tw.Obs.Query_log.observed
    | _ -> Alcotest.fail "expected one twin observation"
  in
  let fresh () =
    let sc =
      Option.get (Core.Sc_catalog.find (Core.Softdb.catalog sdb) "ev_band")
    in
    Option.get (Core.Maintenance.measured_confidence (Core.Softdb.db sdb) sc)
  in
  let previous = ref (observe ()) in
  check (tfloat 1e-9) "first observation" (fresh ()) !previous;
  check (tfloat 1e-9) "repeated observation" !previous (observe ());
  let after ?(moves = true) what change =
    change ();
    let observed = observe () in
    check (tfloat 1e-9) (what ^ ": observed = fresh") (fresh ()) observed;
    if moves then
      check tbool (what ^ " moved the coverage") true (observed <> !previous);
    previous := observed
  in
  let exec sql = ignore (Core.Softdb.exec sdb sql) in
  after "insert" (fun () ->
      exec "INSERT INTO ev VALUES (200, 300), (201, 301), (202, 302)");
  after "update" (fun () -> exec "UPDATE ev SET hi = lo + 100 WHERE lo < 5");
  after "delete" (fun () -> exec "DELETE FROM ev WHERE hi - lo = 100");
  (* inside the transaction the coverage moves; the rollback moves it
     back, past the entry the transaction left behind *)
  let inside = ref 0.0 in
  let before = !previous in
  after ~moves:false "rollback" (fun () ->
      let t = Core.Txn.begin_ sdb in
      exec "INSERT INTO ev VALUES (300, 400), (301, 401)";
      inside := observe ();
      Core.Txn.rollback t);
  check tbool "the transaction's own observation differed" true
    (!inside <> before);
  check (tfloat 1e-9) "rollback restored the coverage" before !previous;
  after "re-install" (fun () ->
      Core.Sc_catalog.drop (Core.Softdb.catalog sdb) "ev_band";
      let tbl = Database.table_exn (Core.Softdb.db sdb) "ev" in
      let d =
        Option.get (Mining.Diff_band.mine tbl ~col_hi:"hi" ~col_lo:"lo")
      in
      let band = Option.get (Mining.Diff_band.band_with d ~confidence:0.9) in
      (* the same name over a narrower band *)
      let band =
        { band with Mining.Diff_band.d_max = band.Mining.Diff_band.d_min +. 2.0 }
      in
      Core.Softdb.install_sc sdb
        (Core.Soft_constraint.make ~name:"ev_band" ~table:"ev"
           ~kind:(Core.Soft_constraint.Statistical 0.4)
           ~installed_at_mutations:
             (Core.Sc_catalog.mutations_of (Core.Softdb.db sdb) "ev")
           (Core.Soft_constraint.Diff_stmt (d, band))))

let test_feedback_off_keeps_confidence () =
  let sdb = band_sdb () in
  install_band_ssc sdb ~name:"ev_band" ~confidence:0.4;
  Core.Softdb.set_feedback sdb false;
  ignore (Core.Softdb.query sdb twin_sql);
  let sc =
    Option.get (Core.Sc_catalog.find (Core.Softdb.catalog sdb) "ev_band")
  in
  (match sc.Core.Soft_constraint.kind with
  | Core.Soft_constraint.Statistical c ->
      check (tfloat 1e-9) "confidence untouched" 0.4 c
  | Core.Soft_constraint.Absolute -> Alcotest.fail "SSC became absolute");
  (* the observation is still logged, just not applied *)
  let last = Option.get (Obs.Query_log.last (Core.Softdb.query_log sdb)) in
  (match last.Obs.Query_log.twins with
  | [ tw ] -> check tbool "not adjusted" true (tw.Obs.Query_log.adjusted = None)
  | _ -> Alcotest.fail "expected one twin observation")

(* ---- sys.* virtual tables --------------------------------------------------- *)

let col result name =
  let rec idx i = function
    | [] -> Alcotest.fail ("no column " ^ name)
    | c :: _ when c = name -> i
    | _ :: rest -> idx (i + 1) rest
  in
  let i = idx 0 result.Exec.Executor.columns in
  List.map (fun row -> Tuple.get row i) result.Exec.Executor.rows

let test_sys_metrics_sql () =
  let sdb = band_sdb () in
  ignore (Core.Softdb.query sdb twin_sql);
  let r =
    Core.Softdb.query sdb
      "SELECT name, kind, value FROM sys.metrics WHERE name = \
       'queries.executed'"
  in
  (match (col r "name", col r "value") with
  | [ Value.String "queries.executed" ], [ Value.Float v ] ->
      check tbool "at least one query counted" true (v >= 1.0)
  | _ -> Alcotest.fail "expected one queries.executed row");
  (* virtual tables are read-only *)
  check tbool "insert rejected" true
    (try
       ignore
         (Core.Softdb.exec sdb "INSERT INTO sys.metrics VALUES ('x', 'c', 1)");
       false
     with Database.Catalog_error _ -> true);
  (* and their names are reserved against CREATE TABLE *)
  check tbool "create collision rejected" true
    (try
       ignore
         (Database.create_table (Core.Softdb.db sdb)
            (Schema.make "sys.metrics" [ Schema.column "a" Value.TInt ]));
       false
     with Database.Catalog_error _ -> true)

let test_sys_soft_constraints_sql () =
  let sdb = band_sdb () in
  install_band_ssc sdb ~name:"ev_band" ~confidence:0.8;
  let r =
    Core.Softdb.query sdb
      "SELECT name, kind, confidence FROM sys.soft_constraints"
  in
  (match (col r "name", col r "kind", col r "confidence") with
  | [ Value.String "ev_band" ], [ Value.String "SSC" ], [ Value.Float c ] ->
      check (tfloat 1e-9) "declared confidence surfaced" 0.8 c
  | _ -> Alcotest.fail "expected the one installed SSC")

let test_sys_query_log_sql () =
  let sdb = band_sdb () in
  ignore (Core.Softdb.query sdb twin_sql);
  let r =
    Core.Softdb.query sdb "SELECT sql, actual_rows, q_error FROM sys.query_log"
  in
  check tbool "at least the twin query logged" true
    (List.length r.Exec.Executor.rows >= 1);
  check tbool "q_error at least 1" true
    (List.for_all
       (function Value.Float q -> q >= 1.0 | _ -> false)
       (col r "q_error"))

let test_sys_plan_cache_sql () =
  let sdb = band_sdb () in
  let cache = Core.Plan_cache.create sdb in
  ignore (Core.Plan_cache.prepare cache ~name:"q1" twin_sql);
  ignore (Core.Plan_cache.execute cache "q1");
  ignore (Core.Plan_cache.execute cache "q1");
  let r =
    Core.Softdb.query sdb
      "SELECT name, valid, fast_runs, backup_runs FROM sys.plan_cache"
  in
  (match (col r "name", col r "valid", col r "fast_runs") with
  | [ Value.String "q1" ], [ Value.Bool true ], [ Value.Int 2 ] -> ()
  | _ -> Alcotest.fail "expected q1 with two fast runs");
  let s = Core.Plan_cache.stats cache in
  check tint "stats entries" 1 s.Core.Plan_cache.entries;
  check tint "stats valid" 1 s.Core.Plan_cache.valid;
  check tint "stats fast" 2 s.Core.Plan_cache.fast_runs;
  check tint "stats backup" 0 s.Core.Plan_cache.backup_runs

(* ---- every view's layout, pinned ------------------------------------------- *)

let view_layouts =
  let s = Value.TString and i = Value.TInt and f = Value.TFloat
  and b = Value.TBool in
  let nn name dtype = (name, dtype, false) and null name dtype = (name, dtype, true) in
  [
    ("sys.metrics", [ nn "name" s; nn "kind" s; nn "value" f ]);
    ( "sys.query_log",
      [
        nn "seq" i; nn "sql" s; nn "estimated_rows" f; nn "actual_rows" i;
        nn "q_error" f; nn "rewrites" s; nn "twins" s; nn "fell_back" b;
      ] );
    ( "sys.soft_constraints",
      [
        nn "name" s; nn "table_name" s; nn "kind" s; nn "state" s;
        null "confidence" f; null "current_confidence" f; nn "violations" i;
        nn "statement" s;
      ] );
    ( "sys.plan_cache",
      [
        nn "name" s; nn "sql" s; nn "valid" b; nn "dependencies" s;
        nn "fast_runs" i; nn "backup_runs" i; nn "last_used" i;
      ] );
    ( "sys.indexes",
      [
        nn "name" s; nn "table_name" s; nn "columns" s; nn "is_unique" b;
        nn "state" s; nn "entries" i; nn "distinct_keys" i;
      ] );
    ( "sys.index_advisor",
      [
        nn "rank" i; nn "table_name" s; nn "columns" s; nn "covering" b;
        nn "score" f; nn "queries" i; nn "reason" s; nn "statement" s;
      ] );
    ( "sys.recovery",
      [
        nn "mode" s; nn "torn_tail" b; nn "scanned_lines" i;
        nn "applied_records" i; nn "committed_txns" i; nn "dropped_txns" s;
        nn "corrupt_lines" i; nn "quarantined_bytes" i; null "salvage_path" s;
      ] );
    ("sys.lockdep", [ nn "held_lock" s; nn "acquired_lock" s; nn "times_seen" i ]);
    ( "sys.partitions",
      [
        nn "table_name" s; nn "part_index" i; nn "spec" s; nn "part_bounds" s;
        nn "rows" i; null "sc_name" s; null "sc_state" s; nn "rows_scanned" i;
        nn "pages_read" i; nn "fallbacks" i;
      ] );
    ( "sys.sessions",
      [
        nn "session_id" i; nn "name" s; nn "state" s; nn "in_txn" b;
        nn "queries" i; nn "writes" i; nn "errors" i; nn "prepared" i;
      ] );
  ]

(* A database on which every view has rows: recovered from a log, with a
   banded table and its exception table, a partitioned and indexed
   table, logged queries, and a served session that prepared and ran a
   plan under the lock-order witness. *)
let with_populated_views f =
  let path = Filename.temp_file "softdb_views" ".wal" in
  let sdb, link, _ = Core.Recovery.resume path in
  ignore (Core.Softdb.exec sdb "CREATE TABLE w (id INT PRIMARY KEY)");
  ignore (Core.Softdb.exec sdb "INSERT INTO w VALUES (1)");
  Core.Recovery.detach link;
  let sdb, link, _ = Core.Recovery.resume path in
  Workload.Purchase.load
    ~config:{ Workload.Purchase.default_config with rows = 1_000 }
    (Core.Softdb.db sdb);
  List.iter
    (fun sql -> ignore (Core.Softdb.exec sdb sql))
    [
      "ALTER TABLE purchase ADD CONSTRAINT ship_3w CHECK (ship_date - \
       order_date BETWEEN 0 AND 21) SOFT";
      "CREATE EXCEPTION TABLE late_shipments FOR CONSTRAINT ship_3w";
      "CREATE TABLE p (id INT PRIMARY KEY, v INT)";
      "INSERT INTO p VALUES (1, 1), (2, 2), (150, 3), (250, 4)";
      "ALTER TABLE p PARTITION BY RANGE (id) BOUNDS (100, 200)";
    ];
  Core.Softdb.runstats sdb;
  ignore (Core.Softdb.mine_partition_domains sdb ~table:"p");
  ignore
    (Core.Softdb.query sdb
       "SELECT * FROM purchase WHERE ship_date = DATE '1999-03-15'");
  Obs.Lockdep.enable ();
  let server = Srv.Server.create ~workers:1 sdb in
  let client, server_end = Srv.Transport.pipe () in
  ignore (Srv.Server.serve_connection_async server server_end);
  List.iteri
    (fun id payload ->
      client.Srv.Transport.send
        (Srv.Proto.request_to_line { Srv.Proto.id; payload });
      ignore (client.Srv.Transport.recv ()))
    [
      Srv.Proto.Prepare { handle = "h"; sql = "SELECT COUNT(*) FROM p" };
      Srv.Proto.Execute { handle = "h" };
    ];
  Fun.protect
    ~finally:(fun () ->
      client.Srv.Transport.close ();
      Srv.Server.shutdown server;
      Obs.Lockdep.disable ();
      Obs.Lockdep.reset ();
      Core.Recovery.detach link;
      Sys.remove path)
    (fun () -> f sdb)

let test_sys_view_layouts () =
  with_populated_views (fun sdb ->
      List.iter
        (fun (view, golden) ->
          let schema =
            Table.schema (Database.table_exn (Core.Softdb.db sdb) view)
          in
          let layout =
            List.map (fun (name, dtype, nullable) ->
                (name, Value.dtype_name dtype, nullable))
          in
          check
            Alcotest.(list (triple string string bool))
            (view ^ " layout") (layout golden)
            (layout
               (List.map
                  (fun (c : Schema.column) ->
                    (c.Schema.name, c.Schema.dtype, c.Schema.nullable))
                  (Schema.columns schema)));
          let r = Core.Softdb.query_baseline sdb ("SELECT * FROM " ^ view) in
          check tbool (view ^ " has rows") true (r.Exec.Executor.rows <> []);
          check
            Alcotest.(list string)
            (view ^ " SELECT * columns")
            (List.map (fun (name, _, _) -> name) golden)
            r.Exec.Executor.columns)
        view_layouts)

(* ---------------------------------------------------------------------------- *)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick
            test_metrics_counters_gauges;
          Alcotest.test_case "samples and summary" `Quick
            test_metrics_samples_summary;
          Alcotest.test_case "snapshot deterministic, no timings" `Quick
            test_snapshot_deterministic_no_timings;
        ] );
      ( "feedback",
        [
          Alcotest.test_case "q-error" `Quick test_q_error;
          Alcotest.test_case "recalibrate verdicts" `Quick test_recalibrate;
          Alcotest.test_case "query log" `Quick test_query_log;
        ] );
      ( "explain_analyze",
        [
          Alcotest.test_case "annotated plan" `Quick test_explain_analyze;
          Alcotest.test_case "inclusive times cover children" `Quick
            test_explain_analyze_inclusive_times;
          Alcotest.test_case "q-error skips nodes never pulled" `Quick
            test_q_error_skips_unpulled;
        ] );
      ( "recalibration",
        [
          Alcotest.test_case "ssc confidence converges" `Quick
            test_ssc_recalibration;
          Alcotest.test_case "feedback off keeps confidence" `Quick
            test_feedback_off_keeps_confidence;
          Alcotest.test_case "coverage memo invalidation" `Quick
            test_coverage_memo_invalidation;
        ] );
      ( "sys_tables",
        [
          Alcotest.test_case "sys.metrics" `Quick test_sys_metrics_sql;
          Alcotest.test_case "sys.soft_constraints" `Quick
            test_sys_soft_constraints_sql;
          Alcotest.test_case "sys.query_log" `Quick test_sys_query_log_sql;
          Alcotest.test_case "sys.plan_cache" `Quick test_sys_plan_cache_sql;
          Alcotest.test_case "every view's layout" `Quick test_sys_view_layouts;
        ] );
    ]
