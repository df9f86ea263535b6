(* lib/idx tests: the online build lifecycle under interleaved writes,
   unique-violation demotion, the mid-backfill crash matrix over the
   idx.backfill.* fault points, WAL replay of online index DDL, the
   guarded index-only fallback when an index is demoted mid-flight,
   rewrite certificates, the sys.indexes / sys.index_advisor views, and
   the advisor's ranking rules. *)

open Rel

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ---- fixtures ------------------------------------------------------------ *)

(* [t] with [rows] rows: id unique, k = id mod 10 (duplicates), v = 3*id *)
let make_sdb ?(rows = 300) () =
  Obs.Fault.reset ();
  let sdb = Core.Softdb.create () in
  ignore (Core.Softdb.exec sdb "CREATE TABLE t (id INT, k INT, v INT)");
  for i = 1 to rows do
    ignore
      (Core.Softdb.exec sdb
         (Printf.sprintf "INSERT INTO t VALUES (%d, %d, %d)" i (i mod 10)
            (i * 3)))
  done;
  sdb

(* Register just the Write_only shell: exec_statement does not finish
   ONLINE builds (the string-level [exec] would). *)
let shell ?(unique = false) sdb name columns =
  let sql =
    Printf.sprintf "CREATE %sINDEX %s ON t (%s) ONLINE"
      (if unique then "UNIQUE " else "")
      name (String.concat ", " columns)
  in
  ignore (Core.Softdb.exec_statement sdb (Sqlfe.Parser.parse_statement sql));
  Option.get (Database.find_index_by_name (Core.Softdb.db sdb) name)

(* Zero lost maintenance records: the index holds exactly the live rows,
   each under its current key. *)
let index_consistent sdb idx =
  let db = Core.Softdb.db sdb in
  let tbl = Database.table_exn db (Index.table_name idx) in
  let live =
    List.filter_map
      (fun rid -> Option.map (fun row -> (rid, row)) (Table.get tbl rid))
      (Table.rids tbl)
  in
  List.length live = Index.entries idx
  && List.for_all
       (fun (rid, row) ->
         let p = Index.lookup idx (Index.key_of idx row) in
         Array.mem rid (Array.sub p 1 p.(0)))
       live

let sorted_rows (r : Exec.Executor.result) =
  List.sort compare (List.map Tuple.to_list r.Exec.Executor.rows)

(* ---- online build under interleaved concurrent writes -------------------- *)

let test_online_build_interleaved_writes () =
  let sdb = make_sdb () in
  let db = Core.Softdb.db sdb in
  let idx = shell sdb "t_k" [ "k" ] in
  check tbool "shell is write-only" true (Index.state idx = Index.Write_only);
  let build = Idx.Lifecycle.start ~batch:32 db idx in
  check tbool "backfilling" true (Index.state idx = Index.Backfilling);
  (* between every backfill batch: an insert (above the watermark, so
     maintenance-only), a delete and an update of backfilled territory —
     the races the idempotent (key, rid) tree must absorb *)
  let n = ref 300 in
  let continue = ref true in
  while !continue do
    incr n;
    ignore
      (Core.Softdb.exec sdb
         (Printf.sprintf "INSERT INTO t VALUES (%d, %d, %d)" !n (!n mod 10)
            (!n * 3)));
    ignore
      (Core.Softdb.exec sdb
         (Printf.sprintf "DELETE FROM t WHERE id = %d" (!n - 250)));
    ignore
      (Core.Softdb.exec sdb
         (Printf.sprintf "UPDATE t SET k = %d WHERE id = %d" ((!n * 7) mod 10)
            (!n - 100)));
    continue := Idx.Lifecycle.step build
  done;
  check tbool "built" true (Idx.Lifecycle.finish build = Idx.Lifecycle.Built);
  check tbool "readable" true (Index.is_readable idx);
  check tbool "zero lost maintenance records" true (index_consistent sdb idx);
  let p = Idx.Lifecycle.progress build in
  check tint "cursor reached the watermark" p.Idx.Lifecycle.p_watermark
    p.Idx.Lifecycle.p_cursor;
  (* the probe path agrees with a full scan *)
  let via_index = Core.Softdb.query sdb "SELECT id FROM t WHERE k = 3" in
  let oracle = Core.Softdb.query_baseline sdb "SELECT id FROM t WHERE k = 3" in
  check tbool "probe matches oracle" true
    (sorted_rows via_index = sorted_rows oracle)

let test_unique_violation_demotes_not_fails () =
  let sdb = make_sdb ~rows:50 () in
  (* k = id mod 10: duplicates guaranteed *)
  let db = Core.Softdb.db sdb in
  let idx = shell ~unique:true sdb "t_uk" [ "k" ] in
  (match Idx.Lifecycle.run ~batch:8 db idx with
  | Idx.Lifecycle.Built -> Alcotest.fail "duplicate keys must demote the build"
  | Idx.Lifecycle.Demoted_build _ ->
      check tbool "demoted" true (Index.state idx = Index.Demoted));
  (* the promise of ONLINE: foreground traffic was never broken *)
  ignore (Core.Softdb.exec sdb "INSERT INTO t VALUES (51, 1, 153)");
  let r = Core.Softdb.query sdb "SELECT id FROM t WHERE k = 1" in
  check tbool "foreground queries still run" true
    (List.length r.Exec.Executor.rows > 0)

let test_start_batch_validation () =
  let sdb = make_sdb ~rows:10 () in
  let db = Core.Softdb.db sdb in
  let idx = shell sdb "t_k" [ "k" ] in
  (match Idx.Lifecycle.start ~batch:0 db idx with
  | exception Idx.Lifecycle.Lifecycle_error _ -> ()
  | _ -> Alcotest.fail "batch 0 accepted");
  let build = Idx.Lifecycle.start db idx in
  (* a second build of the same index cannot start *)
  match Idx.Lifecycle.start db idx with
  | exception Idx.Lifecycle.Lifecycle_error _ ->
      while Idx.Lifecycle.step build do
        ()
      done;
      check tbool "first build completes" true
        (Idx.Lifecycle.finish build = Idx.Lifecycle.Built)
  | _ -> Alcotest.fail "double start accepted"

(* ---- crash safety: the idx.backfill.* matrix ----------------------------- *)

let wal_fixture () =
  Obs.Fault.reset ();
  let sdb = Core.Softdb.create () in
  let wal = Wal.create_memory () in
  let link = Core.Recovery.attach sdb wal in
  ignore (Core.Softdb.exec sdb "CREATE TABLE t (id INT, k INT, v INT)");
  for i = 1 to 100 do
    ignore
      (Core.Softdb.exec sdb
         (Printf.sprintf "INSERT INTO t VALUES (%d, %d, %d)" i (i mod 10)
            (i * 3)))
  done;
  Core.Recovery.flush link;
  (sdb, wal, link)

let test_crash_matrix_mid_backfill () =
  List.iter
    (fun point ->
      let sdb, wal, link = wal_fixture () in
      let db = Core.Softdb.db sdb in
      let idx = shell sdb "t_k" [ "k" ] in
      Obs.Fault.arm point Obs.Fault.Crash;
      let crashed =
        try
          ignore (Idx.Lifecycle.run ~batch:16 db idx);
          false
        with Obs.Fault.Injected_crash _ -> true
      in
      Core.Recovery.kill link;
      Obs.Fault.reset ();
      check tbool (point ^ ": crashed") true crashed;
      let sdb2 = Core.Recovery.recover (Wal.records wal) in
      let db2 = Core.Softdb.db sdb2 in
      (match Database.find_index_by_name db2 "t_k" with
      | None -> Alcotest.failf "%s: index lost by recovery" point
      | Some idx2 ->
          (* the invariant: consistent, or cleanly demoted — never a
             half-built index serving probes *)
          check tbool
            (point ^ ": consistent or demoted")
            true
            ((Index.is_readable idx2 && index_consistent sdb2 idx2)
            || Index.state idx2 = Index.Demoted);
          (* every idx.backfill.* point fires before Readable is logged,
             so the recovery sweep must land on Demoted here *)
          check tbool (point ^ ": demoted") true
            (Index.state idx2 = Index.Demoted));
      let r = Core.Softdb.query_baseline sdb2 "SELECT id FROM t" in
      check tint (point ^ ": heap rows survive") 100
        (List.length r.Exec.Executor.rows);
      (* and the demoted index never backs a plan *)
      let r2 = Core.Softdb.query sdb2 "SELECT id FROM t WHERE k = 3" in
      check tint (point ^ ": queries still correct") 10
        (List.length r2.Exec.Executor.rows))
    [ "idx.backfill.start"; "idx.backfill.batch"; "idx.backfill.finish" ]

let test_shell_only_crash_recovers_write_only () =
  let sdb, wal, link = wal_fixture () in
  let _idx = shell sdb "t_k" [ "k" ] in
  Core.Recovery.flush link;
  Core.Recovery.kill link;
  (* crash before any build started *)
  let sdb2 = Core.Recovery.recover (Wal.records wal) in
  let idx2 =
    Option.get (Database.find_index_by_name (Core.Softdb.db sdb2) "t_k")
  in
  check tbool "still a write-only shell" true
    (Index.state idx2 = Index.Write_only);
  (* maintenance hooks are live on the recovered shell *)
  ignore (Core.Softdb.exec sdb2 "INSERT INTO t VALUES (101, 3, 303)");
  check tbool "shell maintained after recovery" true
    (Index.entries idx2 = 1)

let test_completed_build_replays_readable () =
  let sdb, wal, link = wal_fixture () in
  ignore (Core.Softdb.exec sdb "CREATE INDEX t_k ON t (k) ONLINE");
  (* [exec] drives the build to completion synchronously *)
  let idx =
    Option.get (Database.find_index_by_name (Core.Softdb.db sdb) "t_k")
  in
  check tbool "built readable" true (Index.is_readable idx);
  ignore (Core.Softdb.exec sdb "INSERT INTO t VALUES (101, 3, 303)");
  Core.Recovery.flush link;
  Core.Recovery.kill link;
  let sdb2 = Core.Recovery.recover (Wal.records wal) in
  let idx2 =
    Option.get (Database.find_index_by_name (Core.Softdb.db sdb2) "t_k")
  in
  check tbool "readable after replay" true (Index.is_readable idx2);
  check tbool "rebuilt consistent" true (index_consistent sdb2 idx2);
  check tint "post-build insert indexed" 11
    (Index.lookup_value idx2 (Value.Int 3)).(0)

(* ---- guarded fallback on mid-flight demotion ----------------------------- *)

let covering_sql = "SELECT k, v FROM t WHERE k = 3"

let test_midflight_demotion_falls_back () =
  let sdb = make_sdb () in
  let db = Core.Softdb.db sdb in
  ignore (Core.Softdb.exec sdb "CREATE INDEX t_kv ON t (k, v)");
  let report = Core.Softdb.explain sdb covering_sql in
  check tbool "index_only applied" true
    (List.exists
       (fun (a : Opt.Rewrite.applied) -> a.Opt.Rewrite.rule = "index_only")
       report.Opt.Explain.applied);
  check tbool "plan guarded by idx:t_kv" true
    (List.mem "idx:t_kv" report.Opt.Explain.guards);
  check tbool "backup plan compiled" true
    (report.Opt.Explain.backup_plan <> None);
  let expected = sorted_rows (Core.Softdb.query_baseline sdb covering_sql) in
  let before =
    Obs.Metrics.counter (Core.Softdb.metrics sdb) "sc_guard_fallbacks"
  in
  (* demote in the window between optimize and execute *)
  Database.set_index_state db
    (Option.get (Database.find_index_by_name db "t_kv"))
    Index.Demoted;
  let result, fell_back = Core.Softdb.execute_report sdb report in
  check tbool "fell back to the backup plan" true fell_back;
  check tbool "backup produced the right rows" true
    (sorted_rows result = expected);
  check tint "sc_guard_fallbacks incremented" (before + 1)
    (Obs.Metrics.counter (Core.Softdb.metrics sdb) "sc_guard_fallbacks")

let test_readable_index_runs_fast_plan () =
  let sdb = make_sdb () in
  ignore (Core.Softdb.exec sdb "CREATE INDEX t_kv ON t (k, v)");
  let report = Core.Softdb.explain sdb covering_sql in
  let result, fell_back = Core.Softdb.execute_report sdb report in
  check tbool "no fallback while readable" false fell_back;
  check tbool "fast plan rows correct" true
    (sorted_rows result
    = sorted_rows (Core.Softdb.query_baseline sdb covering_sql))

(* ---- rewrite certificates ------------------------------------------------ *)

let test_index_only_certificate_verifies () =
  let sdb = make_sdb () in
  let db = Core.Softdb.db sdb in
  ignore (Core.Softdb.exec sdb "CREATE INDEX t_kv ON t (k, v)");
  (match Check.Cert.basis_of sdb "idx:t_kv" with
  | Check.Cert.Soft_absolute -> ()
  | _ -> Alcotest.fail "readable index must be an overturnable basis");
  let report, diags = Check.Cert.check_query sdb covering_sql in
  check tbool "index_only fired under the checker" true
    (List.exists
       (fun (a : Opt.Rewrite.applied) -> a.Opt.Rewrite.rule = "index_only")
       report.Opt.Explain.applied);
  check tbool "certificate verifies" false (Check.Diag.has_errors diags);
  Database.set_index_state db
    (Option.get (Database.find_index_by_name db "t_kv"))
    Index.Demoted;
  (match Check.Cert.basis_of sdb "idx:t_kv" with
  | Check.Cert.Invalid _ -> ()
  | _ -> Alcotest.fail "demoted index must be an invalid basis");
  (* with the index demoted the rewrite no longer fires, and the plain
     plan carries no idx premises to fail *)
  let report2, diags2 = Check.Cert.check_query sdb covering_sql in
  check tbool "rewrite gone after demotion" false
    (List.exists
       (fun (a : Opt.Rewrite.applied) -> a.Opt.Rewrite.rule = "index_only")
       report2.Opt.Explain.applied);
  check tbool "plain plan still verifies" false (Check.Diag.has_errors diags2)

(* ---- sys views and the advisor ------------------------------------------- *)

let test_sys_indexes_view () =
  let sdb = make_sdb ~rows:20 () in
  ignore (Core.Softdb.exec sdb "CREATE INDEX t_k ON t (k)");
  let r =
    Core.Softdb.query_baseline sdb
      "SELECT name, table_name, columns, state FROM sys.indexes"
  in
  check tbool "index listed" true
    (List.exists
       (fun row ->
         Tuple.to_list row
         = [
             Value.String "t_k"; Value.String "t"; Value.String "k";
             Value.String "readable";
           ])
       r.Exec.Executor.rows);
  Database.set_index_state (Core.Softdb.db sdb)
    (Option.get (Database.find_index_by_name (Core.Softdb.db sdb) "t_k"))
    Index.Demoted;
  let r2 =
    Core.Softdb.query_baseline sdb
      "SELECT state FROM sys.indexes WHERE name = 't_k'"
  in
  check tbool "demotion visible in sys.indexes" true
    (List.map Tuple.to_list r2.Exec.Executor.rows
    = [ [ Value.String "demoted" ] ])

let test_advisor_from_query_log () =
  let sdb = make_sdb ~rows:40 () in
  (* a repeated sargable query on an unindexed column feeds the log *)
  for _ = 1 to 5 do
    ignore (Core.Softdb.query sdb "SELECT v FROM t WHERE v = 30")
  done;
  let cands = Core.Softdb.advise sdb in
  let cand =
    List.find_opt
      (fun (c : Idx.Advisor.candidate) ->
        c.Idx.Advisor.cand_table = "t" && c.Idx.Advisor.cand_columns = [ "v" ])
      cands
  in
  (match cand with
  | None -> Alcotest.fail "advisor missed the mined workload"
  | Some c ->
      check tbool "covering (index-only)" true c.Idx.Advisor.cand_covering;
      check tint "serves the logged statements" 5 c.Idx.Advisor.cand_queries;
      let stmt = Core.Softdb.advice_statement c in
      check tbool "advice is an online build" true
        (String.length stmt >= 6
        && String.sub stmt (String.length stmt - 6) 6 = "ONLINE"));
  let r =
    Core.Softdb.query_baseline sdb
      "SELECT table_name, columns FROM sys.index_advisor"
  in
  check tbool "sys.index_advisor surfaces it" true
    (List.exists
       (fun row ->
         Tuple.to_list row = [ Value.String "t"; Value.String "v" ])
       r.Exec.Executor.rows);
  (* building the advised index suppresses the candidate *)
  ignore (Core.Softdb.exec sdb "CREATE INDEX t_v ON t (v) ONLINE");
  check tbool "indexed candidate suppressed" true
    (List.for_all
       (fun (c : Idx.Advisor.candidate) ->
         not (c.Idx.Advisor.cand_table = "t"
             && c.Idx.Advisor.cand_columns = [ "v" ]))
       (Core.Softdb.advise sdb))

let test_advisor_sc_hints () =
  let db = Database.create () in
  let schema =
    Schema.make "t"
      [
        Schema.column ~nullable:false "a" Value.TInt;
        Schema.column ~nullable:false "b" Value.TInt;
        Schema.column ~nullable:false "c" Value.TInt;
      ]
  in
  ignore (Database.create_table db schema);
  let queries =
    List.concat (List.init 3 (fun _ -> [ "SELECT a, b FROM t WHERE a = 1" ]))
  in
  (* an FD a → b makes the covering extension (a, b) free *)
  let with_fd =
    Idx.Advisor.advise db ~queries
      ~hints:
        [ Idx.Advisor.Fd { table = "t"; determinant = [ "a" ]; dependents = [ "b" ] } ]
  in
  check tbool "FD hint yields a covering candidate" true
    (List.exists
       (fun (c : Idx.Advisor.candidate) ->
         c.Idx.Advisor.cand_covering
         && c.Idx.Advisor.cand_columns = [ "a"; "b" ])
       with_fd);
  (* a band SC on the ranged column boosts the score *)
  let range_q =
    List.concat
      (List.init 3 (fun _ -> [ "SELECT c FROM t WHERE c > 5 AND c < 9" ]))
  in
  let plain = Idx.Advisor.advise db ~queries:range_q ~hints:[] in
  let banded =
    Idx.Advisor.advise db ~queries:range_q
      ~hints:
        [ Idx.Advisor.Band { table = "t"; column = "c"; width = 0.1; ssc = false } ]
  in
  let score cands =
    match
      List.find_opt
        (fun (c : Idx.Advisor.candidate) ->
          c.Idx.Advisor.cand_columns = [ "c" ])
        cands
    with
    | Some c -> c.Idx.Advisor.cand_score
    | None -> Alcotest.fail "no candidate on the banded column"
  in
  check tbool "band hint boosts the score" true (score banded > score plain)

(* A declared band that fails verification becomes an SSC.  Its band
   still boosts the ship_date candidate, and the reason must call it an
   SSC's: an ASC's band would hold for every row. *)
let test_advisor_ssc_band () =
  let sdb = Core.Softdb.create () in
  Workload.Purchase.load
    ~config:{ Workload.Purchase.default_config with rows = 5_000; seed = 1 }
    (Core.Softdb.db sdb);
  Core.Softdb.runstats sdb;
  ignore
    (Core.Softdb.exec sdb
       "ALTER TABLE purchase ADD CONSTRAINT ship_3w CHECK (ship_date - \
        order_date BETWEEN 0 AND 21) SOFT");
  check tbool "ship_3w failed verification: an SSC" true
    (List.exists
       (fun sc ->
         sc.Core.Soft_constraint.name = "ship_3w"
         && match sc.Core.Soft_constraint.kind with
            | Core.Soft_constraint.Statistical _ -> true
            | Core.Soft_constraint.Absolute -> false)
       (Core.Sc_catalog.all (Core.Softdb.catalog sdb)));
  for _ = 1 to 3 do
    ignore
      (Core.Softdb.query sdb
         "SELECT * FROM purchase WHERE ship_date BETWEEN DATE '1999-03-01' \
          AND DATE '1999-03-07'")
  done;
  match
    List.find_opt
      (fun (c : Idx.Advisor.candidate) ->
        c.Idx.Advisor.cand_table = "purchase"
        && c.Idx.Advisor.cand_columns = [ "ship_date" ])
      (Core.Softdb.advise sdb)
  with
  | None -> Alcotest.fail "no ship_date candidate"
  | Some c ->
      let reason = c.Idx.Advisor.cand_reason in
      check tbool ("names the SSC band: " ^ reason) true
        (contains reason "tight SSC band on ship_date");
      check tbool ("no ASC band: " ^ reason) false (contains reason "ASC band")

(* ---- plan cache: DDL staleness ------------------------------------------- *)

let test_plan_cache_execute_after_drop_index () =
  let sdb = make_sdb () in
  let cache = Core.Plan_cache.create sdb in
  ignore (Core.Softdb.exec sdb "CREATE INDEX t_kv ON t (k, v)");
  let entry = Core.Plan_cache.prepare cache ~name:"q" covering_sql in
  check tbool "entry tracks the probed index" true
    (List.mem "t_kv" entry.Core.Plan_cache.obj_indexes);
  let r1 = Core.Plan_cache.execute cache "q" in
  ignore (Core.Softdb.exec sdb "DROP INDEX t_kv");
  (* the compiled plan is stale: execute must re-prepare, not open it *)
  let r2 = Core.Plan_cache.execute cache "q" in
  check tbool "same rows after re-preparation" true
    (sorted_rows r1 = sorted_rows r2);
  check tbool "re-preparation counted" true
    (Obs.Metrics.counter (Core.Softdb.metrics sdb)
       "plan_cache.ddl_repreparations"
    >= 1);
  check tbool "stale index reference gone" false
    (List.mem "t_kv" entry.Core.Plan_cache.obj_indexes)

let test_plan_cache_execute_after_demotion () =
  let sdb = make_sdb () in
  let cache = Core.Plan_cache.create sdb in
  ignore (Core.Softdb.exec sdb "CREATE INDEX t_kv ON t (k, v)");
  ignore (Core.Plan_cache.prepare cache ~name:"q" covering_sql);
  let r1 = Core.Plan_cache.execute cache "q" in
  Database.set_index_state (Core.Softdb.db sdb)
    (Option.get (Database.find_index_by_name (Core.Softdb.db sdb) "t_kv"))
    Index.Demoted;
  let r2 = Core.Plan_cache.execute cache "q" in
  check tbool "demotion also forces re-preparation" true
    (sorted_rows r1 = sorted_rows r2)

(* ---- registry ------------------------------------------------------------ *)

let () =
  Alcotest.run "idx"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "online build under interleaved writes" `Quick
            test_online_build_interleaved_writes;
          Alcotest.test_case "unique violation demotes, never fails writers"
            `Quick test_unique_violation_demotes_not_fails;
          Alcotest.test_case "start/batch validation" `Quick
            test_start_batch_validation;
        ] );
      ( "crash",
        [
          Alcotest.test_case "crash matrix mid-backfill" `Quick
            test_crash_matrix_mid_backfill;
          Alcotest.test_case "shell-only crash recovers write-only" `Quick
            test_shell_only_crash_recovers_write_only;
          Alcotest.test_case "completed build replays readable" `Quick
            test_completed_build_replays_readable;
        ] );
      ( "guard",
        [
          Alcotest.test_case "mid-flight demotion falls back" `Quick
            test_midflight_demotion_falls_back;
          Alcotest.test_case "readable index runs the fast plan" `Quick
            test_readable_index_runs_fast_plan;
          Alcotest.test_case "index-only certificate verifies" `Quick
            test_index_only_certificate_verifies;
        ] );
      ( "advisor",
        [
          Alcotest.test_case "sys.indexes view" `Quick test_sys_indexes_view;
          Alcotest.test_case "advisor mines the query log" `Quick
            test_advisor_from_query_log;
          Alcotest.test_case "SC hints shape the ranking" `Quick
            test_advisor_sc_hints;
          Alcotest.test_case "an SSC band reads as an SSC" `Quick
            test_advisor_ssc_band;
        ] );
      ( "plan-cache",
        [
          Alcotest.test_case "execute after DROP INDEX re-prepares" `Quick
            test_plan_cache_execute_after_drop_index;
          Alcotest.test_case "execute after demotion re-prepares" `Quick
            test_plan_cache_execute_after_demotion;
        ] );
    ]
