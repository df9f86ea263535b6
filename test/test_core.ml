(* Tests for the soft-constraint facility: representation, currency decay,
   catalog lifecycle, exception-table maintenance, the violation policies
   (drop / sync repair / async repair), SSC statistics refresh, and the
   selection/advisor stages. *)

open Rel

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tfloat = Alcotest.float

(* ---- currency model ------------------------------------------------------- *)

let test_currency_bound () =
  (* the paper's example: 1M rows, 1k updates/day -> ~3% after a month *)
  check (tfloat 1e-9) "one month drift" 0.03
    (Core.Currency.drift ~updates_since:30_000 ~table_rows:1_000_000);
  check (tfloat 1e-9) "usable confidence" 0.97
    (Core.Currency.usable_confidence ~base:1.0 ~updates_since:30_000
       ~table_rows:1_000_000);
  check (tfloat 1e-9) "floor at zero" 0.0
    (Core.Currency.usable_confidence ~base:0.5 ~updates_since:600_000
       ~table_rows:1_000_000);
  check tint "updates until floor" 30_000
    (Core.Currency.updates_until ~base:1.0 ~floor:0.97 ~table_rows:1_000_000)

let currency_is_lower_bound_prop =
  (* simulate: start with a fraction c satisfying, apply u adversarial
     updates (each can break one distinct row); measured fraction is
     always >= usable_confidence *)
  QCheck.Test.make ~name:"currency bound is a true lower bound" ~count:200
    QCheck.(triple (int_range 1 10_000) (int_range 0 5_000) (float_range 0.5 1.0))
    (fun (rows, updates, c) ->
      let satisfying = int_of_float (c *. float_of_int rows) in
      let broken = min updates satisfying in
      let measured = float_of_int (satisfying - broken) /. float_of_int rows in
      let bound =
        Core.Currency.usable_confidence
          ~base:(float_of_int satisfying /. float_of_int rows)
          ~updates_since:updates ~table_rows:rows
      in
      measured >= bound -. 1e-9)

(* ---- catalog ---------------------------------------------------------------- *)

let mk_check_sc name table pred =
  Core.Soft_constraint.make ~name ~table ~kind:Core.Soft_constraint.Absolute
    ~installed_at_mutations:0
    (Core.Soft_constraint.Ic_stmt (Icdef.Check pred))

let test_catalog_lifecycle () =
  let cat = Core.Sc_catalog.create () in
  let sc = mk_check_sc "sc1" "t" (Expr.Cmp (Expr.Gt, Expr.column "a", Expr.int 0)) in
  Core.Sc_catalog.add cat sc;
  check tbool "found" true (Core.Sc_catalog.find cat "sc1" <> None);
  check tbool "duplicate rejected" true
    (try
       Core.Sc_catalog.add cat (mk_check_sc "SC1" "t" Expr.Ptrue);
       false
     with Core.Sc_catalog.Duplicate_name _ -> true);
  check tint "usable" 1 (List.length (Core.Sc_catalog.usable cat));
  sc.Core.Soft_constraint.state <- Core.Soft_constraint.Violated;
  check tint "violated unusable" 0 (List.length (Core.Sc_catalog.usable cat));
  Core.Sc_catalog.drop cat "sc1";
  check tbool "dropped" true (Core.Sc_catalog.find cat "sc1" = None)

let test_catalog_ctx_confidence_decay () =
  let sdb = Core.Softdb.create () in
  let db = Core.Softdb.db sdb in
  Workload.Project.load
    ~config:{ Workload.Project.default_config with rows = 1000 }
    db;
  let tbl = Database.table_exn db "project" in
  let d =
    Option.get
      (Mining.Diff_band.mine tbl ~col_hi:"end_date" ~col_lo:"start_date")
  in
  let b90 = Option.get (Mining.Diff_band.band_with d ~confidence:0.9) in
  let sc =
    Core.Soft_constraint.make ~name:"pb" ~table:"project"
      ~kind:(Core.Soft_constraint.Statistical 0.9)
      ~installed_at_mutations:(Table.mutations tbl)
      (Core.Soft_constraint.Diff_stmt (d, b90))
  in
  Core.Softdb.install_sc sdb sc;
  let conf0 = Core.Sc_catalog.current_confidence db sc in
  check (tfloat 1e-9) "fresh" 0.9 conf0;
  (* 100 mutations over 1000 rows -> bound decays by 0.1 *)
  for i = 1 to 100 do
    ignore
      (Database.insert db ~table:"project"
         (Tuple.make
            [
              Value.Int (10_000 + i);
              Value.Date 0;
              Value.Date 3;
              Value.String "eng";
              Value.Null;
            ]))
  done;
  let conf1 = Core.Sc_catalog.current_confidence db sc in
  check tbool "decayed" true (conf1 < 0.85);
  (* the rewrite ctx must carry the decayed confidence *)
  let ctx = Core.Softdb.rewrite_ctx sdb in
  match ctx.Opt.Rewrite.sscs with
  | [ { Opt.Rewrite.name = "pb"; confidence; _ } ] ->
      check (tfloat 1e-6) "ctx confidence" conf1 confidence
  | _ -> Alcotest.fail "expected one ssc in ctx"

(* ---- exception tables ---------------------------------------------------------- *)

let purchase_sdb ?(rows = 1500) ?(late = 0.02) () =
  let sdb = Core.Softdb.create () in
  Workload.Purchase.load
    ~config:
      { Workload.Purchase.default_config with rows; late_fraction = late }
    (Core.Softdb.db sdb);
  Core.Softdb.runstats sdb;
  sdb

let install_band sdb ~name ~confidence =
  let db = Core.Softdb.db sdb in
  let tbl = Database.table_exn db "purchase" in
  let d =
    Option.get
      (Mining.Diff_band.mine tbl ~col_hi:"ship_date" ~col_lo:"order_date")
  in
  let band = Option.get (Mining.Diff_band.band_with d ~confidence) in
  let kind =
    if band.Mining.Diff_band.confidence >= 1.0 then
      Core.Soft_constraint.Absolute
    else Core.Soft_constraint.Statistical band.Mining.Diff_band.confidence
  in
  let sc =
    Core.Soft_constraint.make ~name ~table:"purchase" ~kind
      ~installed_at_mutations:(Table.mutations tbl)
      (Core.Soft_constraint.Diff_stmt (d, band))
  in
  Core.Softdb.install_sc sdb sc;
  sc

let test_exception_table_tracks_violators () =
  let sdb = purchase_sdb () in
  let db = Core.Softdb.db sdb in
  let sc = install_band sdb ~name:"band99" ~confidence:0.99 in
  let handle =
    Core.Exception_table.install db ~sc ~table_name:"late_exc"
  in
  check tbool "initially consistent" true
    (Core.Exception_table.consistent db handle);
  let n0 = Core.Exception_table.exception_rows db handle in
  check tbool "some initial exceptions" true (n0 > 0);
  (* violating inserts land in the exception table *)
  let rng = Stats.Rng.create 8 in
  Workload.Purchase.insert_batch ~violating:1.0 ~rng ~start_id:900_000
    ~count:25 (Core.Softdb.db sdb);
  check tbool "consistent after inserts" true
    (Core.Exception_table.consistent db handle);
  check tbool "grew" true
    (Core.Exception_table.exception_rows db handle > n0);
  (* repairing updates remove rows from the exception table *)
  let tbl = Database.table_exn db "purchase" in
  let schema = Table.schema tbl in
  let ship_pos = Schema.index_exn schema "ship_date"
  and order_pos = Schema.index_exn schema "order_date" in
  Table.iteri tbl ~f:(fun rid row ->
      match (Tuple.get row ship_pos, Tuple.get row order_pos) with
      | Value.Date s, Value.Date o when s - o > 25 ->
          let fixed = Tuple.copy row in
          fixed.(ship_pos) <- Value.Date (o + 5);
          Database.update db ~table:"purchase" rid fixed
      | _ -> ());
  check tbool "consistent after repairs" true
    (Core.Exception_table.consistent db handle);
  check tint "empty after repairing all" 0
    (Core.Exception_table.exception_rows db handle)

(* ---- maintenance policies --------------------------------------------------------- *)

let test_drop_policy () =
  let sdb = purchase_sdb ~late:0.0 () in
  let sc = install_band sdb ~name:"asc100" ~confidence:1.0 in
  check tbool "absolute" true (Core.Soft_constraint.is_absolute sc);
  let m = Core.Softdb.maintenance sdb in
  Core.Maintenance.set_policy m "asc100" Core.Maintenance.Drop;
  (* a violating insert drops it *)
  let rng = Stats.Rng.create 4 in
  Workload.Purchase.insert_batch ~violating:1.0 ~rng ~start_id:700_000 ~count:1
    (Core.Softdb.db sdb);
  check tbool "violated" true
    (sc.Core.Soft_constraint.state = Core.Soft_constraint.Violated);
  check tint "one violation recorded" 1 sc.Core.Soft_constraint.violation_count

let test_sync_repair_policy () =
  let sdb = purchase_sdb ~late:0.0 () in
  let sc = install_band sdb ~name:"asc_sync" ~confidence:1.0 in
  let m = Core.Softdb.maintenance sdb in
  Core.Maintenance.set_policy m "asc_sync" Core.Maintenance.Sync_repair;
  let rng = Stats.Rng.create 4 in
  Workload.Purchase.insert_batch ~violating:1.0 ~rng ~start_id:700_000 ~count:3
    (Core.Softdb.db sdb);
  check tbool "still active" true
    (sc.Core.Soft_constraint.state = Core.Soft_constraint.Active);
  (* the widened band must now cover the whole table *)
  (match sc.Core.Soft_constraint.statement with
  | Core.Soft_constraint.Diff_stmt (d, band) ->
      let tbl = Database.table_exn (Core.Softdb.db sdb) "purchase" in
      check (tfloat 1e-9) "full coverage after widening" 1.0
        (Mining.Diff_band.coverage tbl d band)
  | _ -> Alcotest.fail "wrong statement")

let test_async_repair_policy () =
  let sdb = purchase_sdb ~late:0.0 () in
  let sc = install_band sdb ~name:"asc_async" ~confidence:1.0 in
  let m = Core.Softdb.maintenance sdb in
  Core.Maintenance.set_policy m "asc_async" Core.Maintenance.Async_repair;
  let rng = Stats.Rng.create 4 in
  Workload.Purchase.insert_batch ~violating:1.0 ~rng ~start_id:700_000 ~count:2
    (Core.Softdb.db sdb);
  check tbool "violated while queued" true
    (sc.Core.Soft_constraint.state = Core.Soft_constraint.Violated);
  Core.Maintenance.run_repairs m;
  check tbool "reinstated" true
    (sc.Core.Soft_constraint.state = Core.Soft_constraint.Active);
  (* re-mined band covers the new data *)
  match sc.Core.Soft_constraint.statement with
  | Core.Soft_constraint.Diff_stmt (d, band) ->
      let tbl = Database.table_exn (Core.Softdb.db sdb) "purchase" in
      check (tfloat 1e-9) "coverage" 1.0 (Mining.Diff_band.coverage tbl d band)
  | _ -> Alcotest.fail "wrong statement"

(* An exception-backed ASC stores its violations; no policy may repair
   it, or the widened check would admit a stored row to the fast branch
   of the exception-union plan as well, and the row would come back
   twice. *)
let test_exception_backed_asc_stores_violations () =
  List.iter
    (fun (label, policy) ->
      let sdb = purchase_sdb ~rows:5000 ~late:0.0 () in
      let sc = install_band sdb ~name:"ship_band" ~confidence:1.0 in
      check tbool "absolute" true (Core.Soft_constraint.is_absolute sc);
      let m = Core.Softdb.maintenance sdb in
      Core.Maintenance.set_policy m "ship_band" policy;
      ignore
        (Core.Softdb.exec sdb
           "CREATE EXCEPTION TABLE ship_exc FOR CONSTRAINT ship_band");
      let before = sc.Core.Soft_constraint.statement in
      (* shipped 40 days after its order *)
      ignore
        (Core.Softdb.exec sdb
           "INSERT INTO purchase VALUES (900001, 1, DATE '1999-06-01', \
            DATE '1999-07-11', 10.0, 1, 'north')");
      Core.Maintenance.run_repairs m;
      let sql = "SELECT id FROM purchase WHERE ship_date = DATE '1999-07-11'" in
      let ids r = List.sort compare r.Exec.Executor.rows in
      let rewritten = Core.Softdb.query sdb sql in
      check tbool (label ^ ": exception union fired") true
        (List.exists
           (fun (a : Opt.Rewrite.applied) -> a.rule = "exception_union")
           (Core.Softdb.explain sdb sql).Opt.Explain.applied);
      check tint (label ^ ": late row once")
        (List.length (Core.Softdb.query_baseline sdb sql).Exec.Executor.rows)
        (List.length rewritten.Exec.Executor.rows);
      check tbool (label ^ ": same rows as the baseline") true
        (ids rewritten = ids (Core.Softdb.query_baseline sdb sql));
      check tbool (label ^ ": statement not widened") true
        (sc.Core.Soft_constraint.statement = before))
    [
      ("drop", Core.Maintenance.Drop);
      ("sync", Core.Maintenance.Sync_repair);
      ("async", Core.Maintenance.Async_repair);
    ]

let test_fd_violation_detection () =
  let sdb = Core.Softdb.create () in
  ignore
    (Core.Softdb.exec_script sdb
       "CREATE TABLE emp (id INT PRIMARY KEY, dept INT, dname VARCHAR);
        INSERT INTO emp VALUES (1, 10, 'eng'), (2, 10, 'eng'), (3, 20, 'hr');");
  let db = Core.Softdb.db sdb in
  let tbl = Database.table_exn db "emp" in
  let fd = { Mining.Fd_mine.table = "emp"; lhs = [ "dept" ]; rhs = "dname" } in
  let sc =
    Core.Soft_constraint.make ~name:"dept_fd" ~table:"emp"
      ~kind:Core.Soft_constraint.Absolute
      ~installed_at_mutations:(Table.mutations tbl)
      (Core.Soft_constraint.Fd_stmt fd)
  in
  Core.Softdb.install_sc sdb sc;
  (* consistent insert keeps it *)
  ignore (Core.Softdb.exec sdb "INSERT INTO emp VALUES (4, 20, 'hr')");
  check tbool "consistent insert ok" true
    (sc.Core.Soft_constraint.state = Core.Soft_constraint.Active);
  (* violating insert drops it *)
  ignore (Core.Softdb.exec sdb "INSERT INTO emp VALUES (5, 20, 'legal')");
  check tbool "fd violation detected" true
    (sc.Core.Soft_constraint.state = Core.Soft_constraint.Violated)

let test_ssc_refresh () =
  let sdb = purchase_sdb ~late:0.02 () in
  let sc = install_band sdb ~name:"ssc_refresh" ~confidence:0.99 in
  (* make the data worse: 50% of new rows violate *)
  let rng = Stats.Rng.create 17 in
  Workload.Purchase.insert_batch ~violating:0.5 ~rng ~start_id:800_000
    ~count:500 (Core.Softdb.db sdb);
  let m = Core.Softdb.maintenance sdb in
  Core.Maintenance.refresh_statistics m;
  let measured = Core.Soft_constraint.confidence sc in
  (* 1500 clean + ~500 half violating => ~0.875 *)
  check tbool "confidence refreshed downward" true
    (measured < 0.95 && measured > 0.8)

(* ---- selection & advisor ------------------------------------------------------------ *)

let test_selection_ranks_useful_sc () =
  let sdb = purchase_sdb ~rows:3000 () in
  let db = Core.Softdb.db sdb in
  let tbl = Database.table_exn db "purchase" in
  let d =
    Option.get
      (Mining.Diff_band.mine tbl ~col_hi:"ship_date" ~col_lo:"order_date")
  in
  let b100 = Option.get (Mining.Diff_band.band_with d ~confidence:1.0) in
  let useful =
    Core.Soft_constraint.make ~name:"useful_band" ~table:"purchase"
      ~kind:Core.Soft_constraint.Absolute
      ~installed_at_mutations:(Table.mutations tbl)
      (Core.Soft_constraint.Diff_stmt (d, b100))
  in
  (* a useless SC: a domain range on a column the workload never touches *)
  let useless =
    Core.Soft_constraint.make ~name:"useless_range" ~table:"purchase"
      ~kind:Core.Soft_constraint.Absolute
      ~installed_at_mutations:(Table.mutations tbl)
      (Core.Soft_constraint.Ic_stmt
         (Icdef.Check
            (Expr.Between (Expr.column "customer", Expr.int 0, Expr.int 10_000))))
  in
  let workload =
    List.map Workload.Queries.parse
      [
        Workload.Queries.purchase_ship_eq (Date.of_ymd 1999 6 15);
        Workload.Queries.purchase_ship_range (Date.of_ymd 1999 3 1)
          (Date.of_ymd 1999 3 10);
      ]
  in
  let assessments =
    Core.Selection.assess ~db ~stats:(Core.Softdb.statistics sdb)
      ~catalog:(Core.Softdb.catalog sdb) ~workload [ useful; useless ]
  in
  let find name =
    List.find
      (fun (a : Core.Selection.assessment) ->
        a.Core.Selection.sc.Core.Soft_constraint.name = name)
      assessments
  in
  let u = find "useful_band" and z = find "useless_range" in
  check tbool "useful beats useless" true
    (u.Core.Selection.net > z.Core.Selection.net);
  check tbool "useful is net positive" true (u.Core.Selection.net > 0.0);
  let selected =
    Core.Selection.select ~db ~stats:(Core.Softdb.statistics sdb)
      ~catalog:(Core.Softdb.catalog sdb) ~workload [ useful; useless ]
  in
  check tbool "selection keeps the useful one" true
    (List.exists
       (fun (a : Core.Selection.assessment) ->
         a.Core.Selection.sc.Core.Soft_constraint.name = "useful_band")
       selected)

let test_advisor_end_to_end () =
  let sdb = purchase_sdb ~rows:3000 () in
  let db = Core.Softdb.db sdb in
  Workload.Project.load
    ~config:{ Workload.Project.default_config with rows = 2000 }
    db;
  Core.Softdb.runstats sdb;
  let workload = List.map Workload.Queries.parse Workload.Queries.advisor_workload in
  let outcome =
    Core.Advisor.advise ~db ~stats:(Core.Softdb.statistics sdb)
      ~catalog:(Core.Softdb.catalog sdb) ~workload ()
  in
  check tbool "mined candidates" true (outcome.Core.Advisor.candidates > 0);
  check tbool "installed something" true (outcome.Core.Advisor.installed <> []);
  (* the installed SCs must improve at least one workload query's cost *)
  let improved =
    List.exists
      (fun (a : Core.Selection.assessment) -> a.Core.Selection.benefit > 0.0)
      outcome.Core.Advisor.assessed
  in
  check tbool "positive benefit" true improved;
  (* and the whole pipeline still returns correct answers *)
  List.iter
    (fun sql ->
      let base = Core.Softdb.query_baseline sdb sql in
      let opt = Core.Softdb.query sdb sql in
      check tbool "advisor output sound" true (Exec.Executor.same_rows base opt))
    Workload.Queries.advisor_workload

(* Mined SC names are numbered per database, not per process: building
   the advisor scenario twice in one process installs the same names. *)
let test_advisor_names_per_database () =
  let fixture =
    List.find
      (fun f -> f.Benchkit.Scenario.fixture_name = "advisor/asc")
      Benchkit.Scenario.fixtures
  in
  let names () =
    let sdb = fixture.Benchkit.Scenario.fixture_setup Benchkit.Scenario.Quick in
    List.map
      (fun sc -> sc.Core.Soft_constraint.name)
      (Core.Sc_catalog.all (Core.Softdb.catalog sdb))
  in
  let first = names () in
  check tbool "the advisor installed SCs" true (first <> []);
  check
    Alcotest.(list string)
    "the same names the second time" first (names ())

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "core"
    [
      ( "currency",
        [ Alcotest.test_case "paper bound" `Quick test_currency_bound ]
        @ qsuite [ currency_is_lower_bound_prop ] );
      ( "catalog",
        [
          Alcotest.test_case "lifecycle" `Quick test_catalog_lifecycle;
          Alcotest.test_case "ctx confidence decay" `Quick
            test_catalog_ctx_confidence_decay;
        ] );
      ( "exception_table",
        [
          Alcotest.test_case "tracks violators" `Quick
            test_exception_table_tracks_violators;
        ] );
      ( "maintenance",
        [
          Alcotest.test_case "drop policy" `Quick test_drop_policy;
          Alcotest.test_case "sync repair widens" `Quick test_sync_repair_policy;
          Alcotest.test_case "async repair re-mines" `Quick
            test_async_repair_policy;
          Alcotest.test_case "exception-backed ASC stores violations" `Quick
            test_exception_backed_asc_stores_violations;
          Alcotest.test_case "fd violation detection" `Quick
            test_fd_violation_detection;
          Alcotest.test_case "ssc refresh" `Quick test_ssc_refresh;
        ] );
      ( "selection",
        [
          Alcotest.test_case "ranks useful above useless" `Quick
            test_selection_ranks_useful_sc;
          Alcotest.test_case "advisor end to end" `Slow test_advisor_end_to_end;
          Alcotest.test_case "advisor names are per database" `Quick
            test_advisor_names_per_database;
        ] );
    ]
