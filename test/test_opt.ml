(* Tests for the optimizer: interval reasoning, cardinality estimation
   with twin blending, every rewrite rule (positive and negative cases),
   the planner's access-path and lowering choices, and the global
   soundness property — rewrites never change answers. *)

open Rel
open Opt

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tfloat = Alcotest.float

(* ---- interval reasoning ---------------------------------------------------- *)

let p = Sqlfe.Parser.parse_pred_string

let test_simplify_folds_constants () =
  check tbool "3 < 5" true (Interval.simplify_pred (p "3 < 5") = Expr.Ptrue);
  check tbool "3 > 5" true (Interval.simplify_pred (p "3 > 5") = Expr.Pfalse);
  check tbool "arith" true
    (Interval.simplify_pred (p "2 + 2 = 4") = Expr.Ptrue);
  check tbool "and short-circuit" true
    (Interval.simplify_pred (p "3 > 5 AND a = 1") = Expr.Pfalse);
  check tbool "or keeps live side" true
    (match Interval.simplify_pred (p "3 > 5 OR a = 1") with
    | Expr.Cmp (Expr.Eq, _, _) -> true
    | _ -> false)

let test_isolation () =
  (* c - 10 <= 5  ⟺  c <= 15 *)
  (match Interval.of_pred (p "c - 10 <= 5") with
  | Some (r, iv) ->
      check Alcotest.string "col" "c" r.Expr.col;
      check tbool "hi 15" true
        (iv.Interval.hi = Some { Interval.v = Value.Int 15; incl = true })
  | None -> Alcotest.fail "no isolation");
  (* 20 - c < 5  ⟺  c > 15 *)
  (match Interval.of_pred (p "20 - c < 5") with
  | Some (_, iv) ->
      check tbool "lo 15 excl" true
        (iv.Interval.lo = Some { Interval.v = Value.Int 15; incl = false })
  | None -> Alcotest.fail "no isolation flip");
  (* date arithmetic: DATE - c BETWEEN 0 AND 21 isolates c *)
  match Interval.of_pred (p "DATE '1999-12-15' - c BETWEEN 0 AND 21") with
  | Some (r, iv) ->
      check Alcotest.string "col" "c" r.Expr.col;
      check tbool "date bounds" true
        (match (iv.Interval.lo, iv.Interval.hi) with
        | Some lo, Some hi ->
            lo.Interval.v = Value.Date (Date.of_ymd 1999 11 24)
            && hi.Interval.v = Value.Date (Date.of_ymd 1999 12 15)
        | _ -> false)
  | None -> Alcotest.fail "no date isolation"

let test_interval_ops () =
  let get pred =
    match Interval.of_pred (p pred) with
    | Some (_, iv) -> iv
    | None -> Alcotest.failf "unparsed interval %s" pred
  in
  let a = get "x BETWEEN 1 AND 10" and b = get "x >= 5" in
  let i = Interval.intersect a b in
  check tbool "intersect [5,10]" true
    (i.Interval.lo = Some { Interval.v = Value.Int 5; incl = true }
    && i.Interval.hi = Some { Interval.v = Value.Int 10; incl = true });
  check tbool "contains" true (Interval.contains a i);
  check tbool "not contains" false (Interval.contains i a);
  check tbool "empty" true
    (Interval.is_empty (Interval.intersect (get "x < 3") (get "x > 7")));
  check tbool "point non-empty" false
    (Interval.is_empty (Interval.intersect (get "x <= 3") (get "x >= 3")))

let test_unsatisfiable () =
  let key_of (r : Expr.col_ref) = Some r.Expr.col in
  check tbool "contradiction" true
    (Interval.unsatisfiable ~key_of [ p "x > 10"; p "x < 5" ]);
  check tbool "satisfiable" false
    (Interval.unsatisfiable ~key_of [ p "x > 10"; p "y < 5" ]);
  check tbool "point ok" false
    (Interval.unsatisfiable ~key_of [ p "x >= 5"; p "x <= 5" ])

let test_summarize_residual () =
  let key_of (r : Expr.col_ref) = Some r.Expr.col in
  let entries, residual =
    Interval.summarize ~key_of
      [ p "x > 1"; p "x < 9"; p "y = 4"; p "x <> 3"; p "z IS NULL" ]
  in
  check tint "two columns" 2 (List.length entries);
  check tint "two residuals" 2 (List.length residual)

(* interval algebra properties *)
let gen_interval =
  let open QCheck.Gen in
  let endpoint =
    oneof
      [
        return None;
        map2
          (fun v incl -> Some { Interval.v = Value.Int v; incl })
          (int_range (-20) 20) bool;
      ]
  in
  map2 (fun lo hi -> { Interval.lo; hi }) endpoint endpoint

let member v (iv : Interval.t) =
  (match iv.Interval.lo with
  | None -> true
  | Some { Interval.v = l; incl } ->
      let c = Value.compare_total (Value.Int v) l in
      if incl then c >= 0 else c > 0)
  && (match iv.Interval.hi with
     | None -> true
     | Some { Interval.v = h; incl } ->
         let c = Value.compare_total (Value.Int v) h in
         if incl then c <= 0 else c < 0)

let interval_intersect_prop =
  QCheck.Test.make ~name:"intersect is pointwise conjunction" ~count:300
    QCheck.(triple (make gen_interval) (make gen_interval) (int_range (-25) 25))
    (fun (a, b, v) ->
      member v (Interval.intersect a b) = (member v a && member v b))

let interval_empty_prop =
  QCheck.Test.make ~name:"is_empty means no integer member" ~count:300
    (QCheck.make gen_interval)
    (fun iv ->
      if Interval.is_empty iv then
        List.for_all (fun v -> not (member v iv)) (List.init 61 (fun i -> i - 30))
      else true)

let interval_contains_prop =
  QCheck.Test.make ~name:"contains implies member subsumption" ~count:300
    QCheck.(triple (make gen_interval) (make gen_interval) (int_range (-25) 25))
    (fun (a, b, v) ->
      if Interval.contains a b then (not (member v b)) || member v a else true)

let interval_roundtrip_prop =
  QCheck.Test.make ~name:"to_pred/of_pred roundtrip" ~count:300
    (QCheck.make gen_interval)
    (fun iv ->
      QCheck.assume (not (Interval.is_empty iv));
      let r = { Expr.rel = None; col = "x" } in
      match Interval.of_pred (Interval.to_pred r iv) with
      | Some (_, iv') ->
          (* the reconstructed interval denotes the same set *)
          List.for_all
            (fun v -> member v iv = member v iv')
            (List.init 61 (fun i -> i - 30))
      | None -> Interval.is_full iv (* Ptrue has no interval form *))

(* ---- fixture: purchase-like database for rewrite/planner tests ------------- *)

let small_purchase ?(rows = 2000) ?(late = 0.01) () =
  let sdb = Core.Softdb.create () in
  let db = Core.Softdb.db sdb in
  Workload.Purchase.load
    ~config:{ Workload.Purchase.default_config with rows; late_fraction = late }
    db;
  Core.Softdb.runstats sdb;
  sdb

let tpcd_db () =
  let sdb = Core.Softdb.create () in
  Workload.Tpcd.load
    ~config:
      {
        Workload.Tpcd.default_config with
        customers = 200;
        orders = 800;
        sales_rows = 60;
      }
    (Core.Softdb.db sdb);
  Workload.Tpcd.create_sales
    ~config:{ Workload.Tpcd.default_config with sales_rows = 60 }
    (Core.Softdb.db sdb);
  Core.Softdb.runstats sdb;
  sdb

let rules_fired report =
  List.map (fun a -> a.Rewrite.rule) report.Explain.applied
  |> List.sort_uniq String.compare

(* ---- join elimination -------------------------------------------------------- *)

let test_join_elimination_fires () =
  let sdb = tpcd_db () in
  List.iter
    (fun sql ->
      let base = Core.Softdb.query_baseline sdb sql in
      let opt = Core.Softdb.query sdb sql in
      let report = Core.Softdb.explain sdb sql in
      check tbool ("fired on: " ^ sql) true
        (List.mem "join_elimination" (rules_fired report));
      check tbool ("sound on: " ^ sql) true (Exec.Executor.same_rows base opt);
      check tbool "less work" true
        (opt.Exec.Executor.counters.Exec.Operators.Counters.rows_scanned
        < base.Exec.Executor.counters.Exec.Operators.Counters.rows_scanned))
    Workload.Queries.join_elimination_suite

let test_join_elimination_negative () =
  let sdb = tpcd_db () in
  let report = Core.Softdb.explain sdb Workload.Queries.join_elimination_negative in
  check tbool "does not fire when parent columns are used" false
    (List.mem "join_elimination" (rules_fired report));
  let base = Core.Softdb.query_baseline sdb Workload.Queries.join_elimination_negative in
  let opt = Core.Softdb.query sdb Workload.Queries.join_elimination_negative in
  check tbool "still sound" true (Exec.Executor.same_rows base opt)

let test_join_elimination_requires_fk () =
  (* same-shaped join between unrelated tables must not be eliminated *)
  let sdb = tpcd_db () in
  let sql =
    "SELECT n.n_name FROM nation n, customer c WHERE n.n_nationkey = \
     c.c_custkey"
  in
  let report = Core.Softdb.explain sdb sql in
  check tbool "no fk, no elimination" false
    (List.mem "join_elimination" (rules_fired report))

let test_join_elimination_nullable_fk_adds_not_null () =
  (* orders.o_custkey is NOT NULL in our schema, so build a nullable case *)
  let sdb = Core.Softdb.create () in
  ignore
    (Core.Softdb.exec_script sdb
       "CREATE TABLE parent (pk INT PRIMARY KEY, v INT);
        CREATE TABLE child (ck INT PRIMARY KEY, fk INT,
          CONSTRAINT cfk FOREIGN KEY (fk) REFERENCES parent (pk) NOT ENFORCED);
        INSERT INTO parent VALUES (1, 10), (2, 20);
        INSERT INTO child VALUES (1, 1), (2, 2), (3, NULL);");
  Core.Softdb.runstats sdb;
  let sql = "SELECT c.ck FROM child c, parent p WHERE c.fk = p.pk" in
  let base = Core.Softdb.query_baseline sdb sql in
  let opt = Core.Softdb.query sdb sql in
  check tint "inner join drops the null-fk row" 2
    (List.length base.Exec.Executor.rows);
  check tbool "sound with nullable fk" true (Exec.Executor.same_rows base opt)

(* ---- predicate introduction ---------------------------------------------------- *)

let test_predicate_introduction () =
  let sdb = small_purchase () in
  (* install a mined 100% diff band as an ASC *)
  let db = Core.Softdb.db sdb in
  let tbl = Database.table_exn db "purchase" in
  let d =
    Option.get (Mining.Diff_band.mine tbl ~col_hi:"ship_date" ~col_lo:"order_date")
  in
  let b100 = Option.get (Mining.Diff_band.band_with d ~confidence:1.0) in
  Core.Softdb.install_sc sdb
    (Core.Soft_constraint.make ~name:"ship_asc" ~table:"purchase"
       ~kind:Core.Soft_constraint.Absolute
       ~installed_at_mutations:(Table.mutations tbl)
       (Core.Soft_constraint.Diff_stmt (d, b100)));
  let sql = Workload.Queries.purchase_ship_eq (Date.of_ymd 1999 6 15) in
  let report = Core.Softdb.explain sdb sql in
  check tbool "introduction fired" true
    (List.mem "predicate_introduction" (rules_fired report));
  (* plan must now use the order_date index *)
  let rec uses_index = function
    | Exec.Plan.Index_scan { index = "purchase_order_date_idx"; _ } -> true
    | p -> List.exists uses_index (Exec.Plan.children p)
  in
  check tbool "index path opened" true (uses_index report.Explain.plan);
  let base = Core.Softdb.query_baseline sdb sql in
  let opt = Core.Softdb.query sdb sql in
  check tbool "sound" true (Exec.Executor.same_rows base opt);
  check tbool "fewer pages" true
    (opt.Exec.Executor.counters.Exec.Operators.Counters.pages_read
    < base.Exec.Executor.counters.Exec.Operators.Counters.pages_read)

let test_predicate_introduction_needs_validity () =
  (* an SSC (99%) must NOT be used for executable introduction *)
  let sdb = small_purchase () in
  let db = Core.Softdb.db sdb in
  let tbl = Database.table_exn db "purchase" in
  let d =
    Option.get (Mining.Diff_band.mine tbl ~col_hi:"ship_date" ~col_lo:"order_date")
  in
  let b99 = Option.get (Mining.Diff_band.band_with d ~confidence:0.99) in
  Core.Softdb.install_sc sdb
    (Core.Soft_constraint.make ~name:"ship_ssc" ~table:"purchase"
       ~kind:(Core.Soft_constraint.Statistical b99.Mining.Diff_band.confidence)
       ~installed_at_mutations:(Table.mutations tbl)
       (Core.Soft_constraint.Diff_stmt (d, b99)));
  let sql = Workload.Queries.purchase_ship_eq (Date.of_ymd 1999 6 15) in
  let report = Core.Softdb.explain sdb sql in
  check tbool "no executable introduction from an SSC" false
    (List.mem "predicate_introduction" (rules_fired report));
  let base = Core.Softdb.query_baseline sdb sql in
  let opt = Core.Softdb.query sdb sql in
  check tbool "sound" true (Exec.Executor.same_rows base opt)

(* ---- exception union ------------------------------------------------------------- *)

let setup_exception_db ?(rows = 3000) () =
  let sdb = small_purchase ~rows ~late:0.02 () in
  let db = Core.Softdb.db sdb in
  let tbl = Database.table_exn db "purchase" in
  let d =
    Option.get (Mining.Diff_band.mine tbl ~col_hi:"ship_date" ~col_lo:"order_date")
  in
  let b99 = Option.get (Mining.Diff_band.band_with d ~confidence:0.99) in
  Core.Softdb.install_sc sdb
    (Core.Soft_constraint.make ~name:"ship_band" ~table:"purchase"
       ~kind:(Core.Soft_constraint.Statistical b99.Mining.Diff_band.confidence)
       ~installed_at_mutations:(Table.mutations tbl)
       (Core.Soft_constraint.Diff_stmt (d, b99)));
  ignore
    (Core.Softdb.exec sdb
       "CREATE EXCEPTION TABLE late_shipments FOR CONSTRAINT ship_band");
  sdb

let test_exception_union_sound () =
  let sdb = setup_exception_db () in
  List.iter
    (fun day ->
      let sql = Workload.Queries.purchase_ship_eq day in
      let report = Core.Softdb.explain sdb sql in
      check tbool "exception union fired" true
        (List.mem "exception_union" (rules_fired report));
      let base = Core.Softdb.query_baseline sdb sql in
      let opt = Core.Softdb.query sdb sql in
      check tbool "answers identical" true (Exec.Executor.same_rows base opt);
      check tbool "cheaper" true
        (opt.Exec.Executor.counters.Exec.Operators.Counters.pages_read
        < base.Exec.Executor.counters.Exec.Operators.Counters.pages_read))
    [ Date.of_ymd 1999 3 1; Date.of_ymd 1999 6 15; Date.of_ymd 1999 12 20 ]

let test_exception_union_stays_correct_under_updates () =
  let sdb = setup_exception_db () in
  let db = Core.Softdb.db sdb in
  (* insert fresh rows, half violating *)
  let rng = Stats.Rng.create 55 in
  Workload.Purchase.insert_batch ~violating:0.5 ~rng ~start_id:1_000_000
    ~count:200 db;
  let sql = Workload.Queries.purchase_ship_range (Date.of_ymd 1999 7 1)
      (Date.of_ymd 1999 7 14) in
  let base = Core.Softdb.query_baseline sdb sql in
  let opt = Core.Softdb.query sdb sql in
  check tbool "still identical after violating updates" true
    (Exec.Executor.same_rows base opt)

(* The range fold: a ship_date window maps through the band onto an
   order_date range the index serves, the check stays beside it, and the
   answer is the rewrite-free one. *)
let rec uses_index name = function
  | Exec.Plan.Index_scan { index; _ } when index = name -> true
  | p -> List.exists (uses_index name) (Exec.Plan.children p)

let folded_preds report =
  let rec go acc = function
    | Logical.Block b ->
        List.filter Logical.is_folded b.Logical.preds @ acc
    | Logical.Union ts -> List.fold_left go acc ts
  in
  List.map (fun (p : Logical.pred_item) -> p.Logical.pred)
    (go [] report.Explain.rewritten)

let check_range_fold ?(index = "purchase_order_date_idx") sdb sql =
  let report = Core.Softdb.explain sdb sql in
  check tbool ("exception union fired: " ^ sql) true
    (List.mem "exception_union" (rules_fired report));
  check tbool ("index path opened: " ^ sql) true
    (uses_index index report.Explain.plan);
  let base = Core.Softdb.query_baseline sdb sql in
  let opt = Core.Softdb.query sdb sql in
  check tbool ("answers identical: " ^ sql) true
    (Exec.Executor.same_rows base opt);
  check tbool ("fewer pages: " ^ sql) true
    (opt.Exec.Executor.counters.Exec.Operators.Counters.pages_read
    < base.Exec.Executor.counters.Exec.Operators.Counters.pages_read);
  report

let test_exception_union_ship_ranges () =
  let sdb = setup_exception_db () in
  List.iter
    (fun where ->
      let report =
        check_range_fold sdb ("SELECT * FROM purchase WHERE " ^ where)
      in
      (* the check executes beside the derived range, each its own item *)
      let folded = folded_preds report in
      check tbool "check and derived range both folded" true
        (List.length folded >= 2
        && List.exists
             (fun p ->
               match Interval.of_pred p with
               | Some (r, _) -> r.Expr.col = "order_date"
               | None -> false)
             folded))
    [
      "ship_date BETWEEN DATE '1999-07-01' AND DATE '1999-07-30'";
      "ship_date >= DATE '1999-12-01'";
      "ship_date < DATE '1999-01-20'";
    ]

(* The reverse direction: an order_date window bounds ship_date, which an
   index on ship_date then serves (the order_date index is dropped, so
   only the fold opens a path).  ship_date is nullable, so the block
   must reject NULLs there itself. *)
let test_exception_union_order_range () =
  let sdb = setup_exception_db () in
  ignore (Core.Softdb.exec sdb "DROP INDEX purchase_order_date_idx");
  ignore
    (Core.Softdb.exec sdb "CREATE INDEX purchase_ship_idx ON purchase (ship_date)");
  Core.Softdb.runstats sdb;
  ignore
    (check_range_fold ~index:"purchase_ship_idx" sdb
       "SELECT * FROM purchase WHERE order_date BETWEEN DATE '1999-07-01' AND \
        DATE '1999-07-03' AND ship_date >= DATE '1999-01-01'")

(* Unshipped orders: NULL ship_date.  A ship_date range rejects them, so
   the fold stays sound; without one, the check would be UNKNOWN on them
   — in neither branch — and the rewrite must not fire. *)
let test_exception_union_null_ship_dates () =
  let sdb = setup_exception_db () in
  for i = 0 to 9 do
    ignore
      (Core.Softdb.exec sdb
         (Printf.sprintf
            "INSERT INTO purchase VALUES (%d, 1, DATE '1999-07-0%d', NULL, \
             9.0, 1, 'north')"
            (700_000 + i) (1 + (i mod 3))))
  done;
  Core.Softdb.runstats sdb;
  ignore
    (check_range_fold sdb
       "SELECT * FROM purchase WHERE ship_date BETWEEN DATE '1999-07-01' AND \
        DATE '1999-07-30'");
  ignore
    (Core.Softdb.exec sdb "CREATE INDEX purchase_ship_idx ON purchase (ship_date)");
  Core.Softdb.runstats sdb;
  let sql =
    "SELECT * FROM purchase WHERE order_date BETWEEN DATE '1999-07-01' AND \
     DATE '1999-07-03'"
  in
  check tbool "no fold over a nullable, unbounded column" false
    (List.mem "exception_union" (rules_fired (Core.Softdb.explain sdb sql)));
  let base = Core.Softdb.query_baseline sdb sql in
  let opt = Core.Softdb.query sdb sql in
  check tbool "unshipped orders still answered" true
    (Exec.Executor.same_rows base opt)

(* A violator shipped before it was ordered lies inside the derived
   order_date window and inside the ship_date window: branch 1's check
   keeps it out, so only the exceptions return it — exactly once. *)
let test_exception_union_negative_gap_once () =
  let sdb = setup_exception_db () in
  ignore
    (Core.Softdb.exec sdb
       "INSERT INTO purchase VALUES (710001, 1, DATE '1999-07-10', DATE \
        '1999-07-07', 9.0, 1, 'north')");
  let sql =
    "SELECT * FROM purchase WHERE ship_date BETWEEN DATE '1999-07-01' AND \
     DATE '1999-07-30'"
  in
  ignore (check_range_fold sdb sql);
  let opt = Core.Softdb.query sdb sql in
  check tint "the violator comes back once" 1
    (List.length
       (List.filter
          (fun row -> Tuple.get row 0 = Value.Int 710001)
          opt.Exec.Executor.rows))

(* ---- union-all pruning -------------------------------------------------------------- *)

let test_unionall_pruning () =
  let sdb = tpcd_db () in
  let sql =
    Workload.Tpcd.sales_union_sql ~date_lo:(Date.of_ymd 1999 1 10)
      ~date_hi:(Date.of_ymd 1999 3 20)
  in
  let base = Core.Softdb.query_baseline sdb sql in
  let opt = Core.Softdb.query sdb sql in
  let report = Core.Softdb.explain sdb sql in
  check tbool "pruning fired" true
    (List.mem "unionall_pruning" (rules_fired report));
  check tbool "sound" true (Exec.Executor.same_rows base opt);
  (match report.Explain.plan with
  | Exec.Plan.Union_all branches ->
      check tint "three branches survive" 3 (List.length branches)
  | _ -> Alcotest.fail "expected union all plan");
  check tbool "scans 3/12 of the rows" true
    (opt.Exec.Executor.counters.Exec.Operators.Counters.rows_scanned * 3
    <= base.Exec.Executor.counters.Exec.Operators.Counters.rows_scanned)

(* ---- hole trimming ---------------------------------------------------------------- *)

let holes_db () =
  let sdb = Core.Softdb.create () in
  let db = Core.Softdb.db sdb in
  ignore
    (Core.Softdb.exec_script sdb
       "CREATE TABLE hleft (j INT PRIMARY KEY, a INT NOT NULL);
        CREATE TABLE hright (j INT NOT NULL, b INT NOT NULL);");
  let rng = Stats.Rng.create 31 in
  let k = ref 0 in
  while !k < 1200 do
    let a = Stats.Rng.int rng 100 and b = Stats.Rng.int rng 100 in
    (* planted hole: no pairs with a in [20,50) and b in [30,70) *)
    if not (a >= 20 && a < 50 && b >= 30 && b < 70) then begin
      incr k;
      ignore
        (Database.insert db ~table:"hleft"
           (Tuple.make [ Value.Int !k; Value.Int a ]));
      ignore
        (Database.insert db ~table:"hright"
           (Tuple.make [ Value.Int !k; Value.Int b ]))
    end
  done;
  Core.Softdb.runstats sdb;
  let left = Database.table_exn db "hleft"
  and right = Database.table_exn db "hright" in
  let h =
    Option.get
      (Mining.Join_holes.mine ~grid:25 ~left ~right ~join_left:"j"
         ~join_right:"j" ~left_col:"a" ~right_col:"b" ())
  in
  Core.Softdb.install_sc sdb
    (Core.Soft_constraint.make ~name:"hole_sc" ~table:"hleft"
       ~kind:Core.Soft_constraint.Absolute
       ~installed_at_mutations:(Table.mutations left)
       (Core.Soft_constraint.Holes_stmt h));
  sdb

let test_hole_trimming () =
  let sdb = holes_db () in
  (* A-range inside the hole's A span; B range overlapping the hole *)
  let sql =
    "SELECT * FROM hleft l, hright r WHERE l.j = r.j AND l.a BETWEEN 25 AND \
     45 AND r.b BETWEEN 10 AND 65"
  in
  let base = Core.Softdb.query_baseline sdb sql in
  let opt = Core.Softdb.query sdb sql in
  let report = Core.Softdb.explain sdb sql in
  check tbool "trimming fired" true
    (List.mem "hole_trimming" (rules_fired report));
  check tbool "sound" true (Exec.Executor.same_rows base opt)

let test_hole_trimming_empty_range () =
  let sdb = holes_db () in
  let sql =
    "SELECT * FROM hleft l, hright r WHERE l.j = r.j AND l.a BETWEEN 25 AND \
     45 AND r.b BETWEEN 35 AND 60"
  in
  let base = Core.Softdb.query_baseline sdb sql in
  let opt = Core.Softdb.query sdb sql in
  check tint "truly empty" 0 (List.length base.Exec.Executor.rows);
  check tbool "sound" true (Exec.Executor.same_rows base opt)

(* ---- FD simplification ---------------------------------------------------------------- *)

let test_fd_simplification () =
  let sdb = tpcd_db () in
  let db = Core.Softdb.db sdb in
  let nation = Database.table_exn db "nation" in
  Core.Softdb.install_sc sdb
    (Core.Soft_constraint.make ~name:"nation_fd" ~table:"nation"
       ~kind:Core.Soft_constraint.Absolute
       ~installed_at_mutations:(Table.mutations nation)
       (Core.Soft_constraint.Fd_stmt
          { Mining.Fd_mine.table = "nation"; lhs = [ "n_nationkey" ];
            rhs = "n_name" }));
  (* ORDER BY: second key redundant *)
  let base = Core.Softdb.query_baseline sdb Workload.Queries.fd_order_by in
  let opt = Core.Softdb.query sdb Workload.Queries.fd_order_by in
  let report = Core.Softdb.explain sdb Workload.Queries.fd_order_by in
  check tbool "fd fired on order by" true
    (List.mem "fd_simplification" (rules_fired report));
  check tbool "same ordered output" true
    (base.Exec.Executor.rows = opt.Exec.Executor.rows);
  (* GROUP BY: n_name dropped from keys, recovered via MIN *)
  let base_g = Core.Softdb.query_baseline sdb Workload.Queries.fd_group_by in
  let opt_g = Core.Softdb.query sdb Workload.Queries.fd_group_by in
  let report_g = Core.Softdb.explain sdb Workload.Queries.fd_group_by in
  check tbool "fd fired on group by" true
    (List.mem "fd_simplification" (rules_fired report_g));
  check tbool "same groups" true (Exec.Executor.same_rows base_g opt_g)

(* ---- twinning & estimation ---------------------------------------------------------- *)

let twin_db () =
  let sdb = Core.Softdb.create () in
  let db = Core.Softdb.db sdb in
  Workload.Project.load db;
  Core.Softdb.runstats sdb;
  let tbl = Database.table_exn db "project" in
  let d =
    Option.get (Mining.Diff_band.mine tbl ~col_hi:"end_date" ~col_lo:"start_date")
  in
  let b90 = Option.get (Mining.Diff_band.band_with d ~confidence:0.9) in
  Core.Softdb.install_sc sdb
    (Core.Soft_constraint.make ~name:"proj_band" ~table:"project"
       ~kind:(Core.Soft_constraint.Statistical b90.Mining.Diff_band.confidence)
       ~installed_at_mutations:(Table.mutations tbl)
       (Core.Soft_constraint.Diff_stmt (d, b90)));
  sdb

let qerror est truth =
  let est = max est 1.0 and truth = max truth 1.0 in
  if est > truth then est /. truth else truth /. est

let test_twinning_improves_estimates () =
  let sdb = twin_db () in
  let db = Core.Softdb.db sdb in
  let worst_indep = ref 0.0 and worst_twin = ref 0.0 in
  List.iter
    (fun day ->
      let sql = Workload.Queries.project_active_on day in
      let truth = float_of_int (Workload.Project.active_on db day) in
      let indep =
        (Core.Softdb.explain ~flags:Rewrite.all_off sdb sql)
          .Explain.estimated_cardinality
      in
      let twin = (Core.Softdb.explain sdb sql).Explain.estimated_cardinality in
      worst_indep := max !worst_indep (qerror indep truth);
      worst_twin := max !worst_twin (qerror twin truth))
    [
      Date.of_ymd 1998 6 1; Date.of_ymd 1998 9 1; Date.of_ymd 1999 3 1;
      Date.of_ymd 1999 9 1;
    ];
  check tbool "twinning shrinks worst-case q-error by >= 3x" true
    (!worst_twin *. 3.0 <= !worst_indep)

let test_twins_never_execute () =
  let sdb = twin_db () in
  let sql = Workload.Queries.project_active_on (Date.of_ymd 1998 9 1) in
  let base = Core.Softdb.query_baseline sdb sql in
  let opt = Core.Softdb.query sdb sql in
  check tbool "answers unchanged by twinning" true
    (Exec.Executor.same_rows base opt)

let test_blended_selectivity_formula () =
  (* E = c*E1 + (1-c)*E0 exactly *)
  let sdb = twin_db () in
  let env =
    { Selectivity.db = Core.Softdb.db sdb;
      stats = Core.Softdb.statistics sdb }
  in
  let regular = [ p "start_date <= DATE '1998-09-01'";
                  p "end_date >= DATE '1998-09-01'" ] in
  let twin_pred = p "start_date >= DATE '1998-08-27'" in
  let e0 = Selectivity.conjunct_selectivity env ~table:"project" regular in
  let e1 =
    Selectivity.conjunct_selectivity env ~table:"project"
      [ List.nth regular 0; twin_pred ]
  in
  let blended =
    Selectivity.blended_selectivity env ~table:"project" ~regular
      ~twins:
        [
          { Selectivity.t_pred = twin_pred; t_confidence = 0.9;
            t_replaces = Some "end_date" };
        ]
  in
  check (tfloat 1e-9) "exact blend" ((0.9 *. e1) +. (0.1 *. e0)) blended

(* ---- planner --------------------------------------------------------------------------- *)

let test_planner_access_path () =
  let sdb = small_purchase () in
  (* selective range on the indexed column -> index scan *)
  let r1 =
    Core.Softdb.explain sdb
      "SELECT * FROM purchase WHERE order_date BETWEEN DATE '1999-06-01' AND \
       DATE '1999-06-03'"
  in
  (match r1.Explain.plan with
  | Exec.Plan.Index_scan _ -> ()
  | pl -> Alcotest.failf "expected index scan, got %s" (Exec.Plan.to_string pl));
  (* unselective range -> seq scan *)
  let r2 =
    Core.Softdb.explain sdb
      "SELECT * FROM purchase WHERE order_date >= DATE '1999-01-15'"
  in
  match r2.Explain.plan with
  | Exec.Plan.Seq_scan _ -> ()
  | pl -> Alcotest.failf "expected seq scan, got %s" (Exec.Plan.to_string pl)

let test_planner_join_order () =
  let sdb = tpcd_db () in
  (* selective filter on customer should put customer on the build side /
     start of the greedy order; mostly we check it runs and is correct *)
  let sql =
    "SELECT o.o_orderkey, c.c_name FROM orders o, customer c WHERE \
     o.o_custkey = c.c_custkey AND c.c_acctbal > 9000"
  in
  let base = Core.Softdb.query_baseline sdb sql in
  let opt = Core.Softdb.query sdb sql in
  check tbool "join sound" true (Exec.Executor.same_rows base opt)

let test_planner_group_order_limit () =
  let sdb = tpcd_db () in
  let sql =
    "SELECT o.o_custkey, COUNT(*) AS n, SUM(o.o_totalprice) AS total FROM \
     orders o GROUP BY o.o_custkey ORDER BY n DESC, o_custkey LIMIT 5"
  in
  let r = Core.Softdb.query sdb sql in
  check tint "limit applied" 5 (List.length r.Exec.Executor.rows);
  (* verify descending counts *)
  let counts =
    List.map (fun row -> Value.int_exn (Tuple.get row 1)) r.Exec.Executor.rows
  in
  let rec sorted_desc = function
    | a :: b :: tl -> a >= b && sorted_desc (b :: tl)
    | _ -> true
  in
  check tbool "sorted desc" true (sorted_desc counts)

(* The planner is the only estimator: for every fixture statement,
   EXPLAIN ANALYZE's root, the report's [est. rows] and sys.query_log all
   read the planner's root estimate, and the estimates of its nodes fit
   together (a UNION ALL sums its branches, LIMIT n caps at n). *)
let test_one_estimate_per_node () =
  let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b) in
  let rec fits ests (plan : Exec.Plan.t) =
    let est = List.assq plan ests in
    (match plan with
    | Exec.Plan.Union_all inputs ->
        check tbool "a UNION ALL sums its branches" true
          (close est
             (List.fold_left
                (fun acc p -> acc +. List.assq p ests)
                0.0 inputs))
    | Exec.Plan.Limit { n; _ } ->
        check tbool "LIMIT n estimates at most n" true
          (est <= float_of_int n);
        if n = 0 then check (tfloat 0.0) "LIMIT 0 estimates 0" 0.0 est
    | _ -> ());
    List.iter (fits ests) (Exec.Plan.children plan)
  in
  List.iter
    (fun (fx : Benchkit.Scenario.fixture) ->
      let sdb = fx.Benchkit.Scenario.fixture_setup Benchkit.Scenario.Quick in
      List.iter
        (fun sql ->
          let a =
            Core.Softdb.analyze sdb (Sqlfe.Parser.parse_query_string sql)
          in
          let report = a.Explain.a_report in
          let label what =
            Printf.sprintf "%s: %s: %s" fx.Benchkit.Scenario.fixture_name sql
              what
          in
          let root = List.hd a.Explain.nodes in
          check (tfloat 0.0) (label "EXPLAIN ANALYZE root is est. rows")
            report.Explain.estimated_cardinality root.Explain.est_rows;
          (match Obs.Query_log.last (Core.Softdb.query_log sdb) with
          | Some e ->
              check (tfloat 0.0) (label "sys.query_log records est. rows")
                report.Explain.estimated_cardinality
                e.Obs.Query_log.estimated_rows
          | None -> Alcotest.fail (label "not logged"));
          fits report.Explain.estimates report.Explain.plan)
        fx.Benchkit.Scenario.fixture_queries)
    Benchkit.Scenario.fixtures

(* ---- global soundness property -------------------------------------------------------- *)

(* Random single-table and two-table queries over purchase: the full
   rewrite pipeline (with ASC + SSC + exceptions installed) must never
   change answers. *)
let rewrite_soundness_prop =
  let sdb = setup_exception_db ~rows:1500 () in
  let db = Core.Softdb.db sdb in
  let tbl = Database.table_exn db "purchase" in
  let d =
    Option.get (Mining.Diff_band.mine tbl ~col_hi:"ship_date" ~col_lo:"order_date")
  in
  let b100 = Option.get (Mining.Diff_band.band_with d ~confidence:1.0) in
  Core.Softdb.install_sc sdb
    (Core.Soft_constraint.make ~name:"ship_asc_prop" ~table:"purchase"
       ~kind:Core.Soft_constraint.Absolute
       ~installed_at_mutations:(Table.mutations tbl)
       (Core.Soft_constraint.Diff_stmt (d, b100)));
  let gen =
    QCheck.Gen.(
      let day = map (fun d -> Date.add_days Workload.Purchase.base_date d)
          (int_range 0 400) in
      let qty = int_range 1 50 in
      oneof
        [
          map
            (fun d ->
              Printf.sprintf "SELECT * FROM purchase WHERE ship_date = DATE '%s'"
                (Date.to_string d))
            day;
          map2
            (fun d1 d2 ->
              let lo = min d1 d2 and hi = max d1 d2 in
              Printf.sprintf
                "SELECT id, amount FROM purchase WHERE ship_date BETWEEN DATE \
                 '%s' AND DATE '%s' AND quantity > 10"
                (Date.to_string lo) (Date.to_string hi))
            day day;
          map2
            (fun d q ->
              Printf.sprintf
                "SELECT region, COUNT(*) AS n FROM purchase WHERE order_date \
                 <= DATE '%s' AND quantity = %d GROUP BY region ORDER BY \
                 region"
                (Date.to_string d) q)
            day qty;
        ])
  in
  QCheck.Test.make ~name:"full rewrite pipeline preserves answers" ~count:40
    (QCheck.make gen ~print:Fun.id)
    (fun sql ->
      let base = Core.Softdb.query_baseline sdb sql in
      let opt = Core.Softdb.query sdb sql in
      Exec.Executor.same_rows base opt)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "opt"
    [
      ( "interval",
        [
          Alcotest.test_case "constant folding" `Quick
            test_simplify_folds_constants;
          Alcotest.test_case "isolation" `Quick test_isolation;
          Alcotest.test_case "interval ops" `Quick test_interval_ops;
          Alcotest.test_case "unsatisfiable" `Quick test_unsatisfiable;
          Alcotest.test_case "summarize" `Quick test_summarize_residual;
        ] );
      ( "join_elimination",
        [
          Alcotest.test_case "fires and is sound" `Quick
            test_join_elimination_fires;
          Alcotest.test_case "negative: parent used" `Quick
            test_join_elimination_negative;
          Alcotest.test_case "negative: no fk" `Quick
            test_join_elimination_requires_fk;
          Alcotest.test_case "nullable fk" `Quick
            test_join_elimination_nullable_fk_adds_not_null;
        ] );
      ( "predicate_introduction",
        [
          Alcotest.test_case "opens index path" `Quick
            test_predicate_introduction;
          Alcotest.test_case "ssc not introducible" `Quick
            test_predicate_introduction_needs_validity;
        ] );
      ( "exception_union",
        [
          Alcotest.test_case "sound and cheaper" `Quick
            test_exception_union_sound;
          Alcotest.test_case "correct under violating updates" `Quick
            test_exception_union_stays_correct_under_updates;
          Alcotest.test_case "ship_date ranges fold" `Quick
            test_exception_union_ship_ranges;
          Alcotest.test_case "order_date range folds the reverse way" `Quick
            test_exception_union_order_range;
          Alcotest.test_case "NULL ship dates" `Quick
            test_exception_union_null_ship_dates;
          Alcotest.test_case "negative-gap violator once" `Quick
            test_exception_union_negative_gap_once;
        ] );
      ( "unionall_pruning",
        [ Alcotest.test_case "prunes to 3 branches" `Quick test_unionall_pruning ]
      );
      ( "hole_trimming",
        [
          Alcotest.test_case "trims and stays sound" `Quick test_hole_trimming;
          Alcotest.test_case "empty range" `Quick test_hole_trimming_empty_range;
        ] );
      ( "fd_simplification",
        [ Alcotest.test_case "order/group simplified" `Quick
            test_fd_simplification ] );
      ( "twinning",
        [
          Alcotest.test_case "improves estimates" `Quick
            test_twinning_improves_estimates;
          Alcotest.test_case "never executes" `Quick test_twins_never_execute;
          Alcotest.test_case "blend formula" `Quick
            test_blended_selectivity_formula;
        ] );
      ( "planner",
        [
          Alcotest.test_case "access path" `Quick test_planner_access_path;
          Alcotest.test_case "join order" `Quick test_planner_join_order;
          Alcotest.test_case "group/order/limit" `Quick
            test_planner_group_order_limit;
          Alcotest.test_case "one estimate per node" `Quick
            test_one_estimate_per_node;
        ] );
      ( "interval-properties",
        qsuite
          [
            interval_intersect_prop; interval_empty_prop;
            interval_contains_prop; interval_roundtrip_prop;
          ] );
      ("soundness", qsuite [ rewrite_soundness_prop ]);
    ]
