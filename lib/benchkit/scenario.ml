(* The scenario registry: workloads × soft-constraint modes, each
   producing one measurement record through the full pipeline.

   Determinism discipline: every generator seed is pinned HERE (never
   left to a default, never derived from the clock), every gated metric
   comes from instrumented execution or the deterministic metrics
   snapshot, and wall clock is confined to the wallclock section. *)

open Rel

type scale = Quick | Full

let scale_name = function Quick -> "quick" | Full -> "full"

let scale_of_name = function
  | "quick" -> Some Quick
  | "full" -> Some Full
  | _ -> None

(* ---- pinned seeds ------------------------------------------------------- *)

let purchase_seed = 7
let project_seed = 11
let tpcd_seed = 23
let apb_seed = 51
let stream_seed = 97 (* the guarded scenario's violating insert *)
let holes_seed = 31
let mine_seed = 61
let maintenance_seed = 71

(* ---- fixtures ----------------------------------------------------------- *)

let purchase_config ?(late = 0.01) scale =
  {
    Workload.Purchase.default_config with
    rows = (match scale with Quick -> 6_000 | Full -> 60_000);
    late_fraction = late;
    seed = purchase_seed;
  }

let purchase_sdb ?late scale =
  let sdb = Core.Softdb.create () in
  Workload.Purchase.load ~config:(purchase_config ?late scale)
    (Core.Softdb.db sdb);
  Core.Softdb.runstats sdb;
  sdb

let project_config scale =
  {
    Workload.Project.default_config with
    rows = (match scale with Quick -> 4_000 | Full -> 10_000);
    seed = project_seed;
  }

let project_sdb scale =
  let sdb = Core.Softdb.create () in
  Workload.Project.load ~config:(project_config scale) (Core.Softdb.db sdb);
  Core.Softdb.runstats sdb;
  sdb

let tpcd_config scale =
  match scale with
  | Quick ->
      {
        Workload.Tpcd.default_config with
        customers = 200;
        orders = 1_000;
        sales_rows = 150;
        seed = tpcd_seed;
      }
  | Full -> { Workload.Tpcd.default_config with seed = tpcd_seed }

let tpcd_sdb scale =
  let sdb = Core.Softdb.create () in
  let config = tpcd_config scale in
  Workload.Tpcd.load ~config (Core.Softdb.db sdb);
  Workload.Tpcd.create_sales ~config (Core.Softdb.db sdb);
  Core.Softdb.runstats sdb;
  sdb

let apb_config scale =
  match scale with
  | Quick ->
      {
        Workload.Apb.skus = 400;
        classes = 50;
        groups = 10;
        days = 120;
        customers = 100;
        facts = 6_000;
        seed = apb_seed;
      }
  | Full -> { Workload.Apb.default_config with seed = apb_seed }

let apb_sdb scale =
  let sdb = Core.Softdb.create () in
  Workload.Apb.load ~config:(apb_config scale) (Core.Softdb.db sdb);
  Core.Softdb.runstats sdb;
  sdb

let install_purchase_band sdb ~name ~confidence =
  let tbl = Database.table_exn (Core.Softdb.db sdb) "purchase" in
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
  Core.Softdb.install_sc sdb
    (Core.Soft_constraint.make ~name ~table:"purchase" ~kind
       ~installed_at_mutations:(Table.mutations tbl)
       (Core.Soft_constraint.Ic_stmt
          (Icdef.Check (Mining.Diff_band.to_check_pred d band))))

let install_project_band sdb ~confidence =
  let tbl = Database.table_exn (Core.Softdb.db sdb) "project" in
  let d =
    Option.get
      (Mining.Diff_band.mine tbl ~col_hi:"end_date" ~col_lo:"start_date")
  in
  let band = Option.get (Mining.Diff_band.band_with d ~confidence) in
  Core.Softdb.install_sc sdb
    (Core.Soft_constraint.make ~name:"proj_band" ~table:"project"
       ~kind:(Core.Soft_constraint.Statistical band.Mining.Diff_band.confidence)
       ~installed_at_mutations:(Table.mutations tbl)
       (Core.Soft_constraint.Ic_stmt
          (Icdef.Check (Mining.Diff_band.to_check_pred d band))))

(* the APB hierarchies are exact FDs by construction *)
let install_apb_fds sdb =
  let db = Core.Softdb.db sdb in
  List.iter
    (fun (name, table, lhs, rhs) ->
      let tbl = Database.table_exn db table in
      Core.Softdb.install_sc sdb
        (Core.Soft_constraint.make ~name ~table
           ~kind:Core.Soft_constraint.Absolute
           ~installed_at_mutations:(Table.mutations tbl)
           (Core.Soft_constraint.Fd_stmt { Mining.Fd_mine.table; lhs; rhs })))
    [
      ("apb_class_group", "product", [ "class" ], "pgroup");
      ("apb_group_family", "product", [ "pgroup" ], "family");
      ("apb_month_quarter", "timedim", [ "month" ], "quarter");
    ]

(* the suite setups, named so the static checker can reuse them *)
let purchase_asc_sdb scale =
  let sdb = purchase_sdb scale in
  install_purchase_band sdb ~name:"ship_band_asc" ~confidence:1.0;
  sdb

let purchase_ssc_sdb scale =
  let sdb = purchase_sdb scale in
  install_purchase_band sdb ~name:"ship_band_ssc" ~confidence:0.99;
  sdb

let project_ssc_sdb scale =
  let sdb = project_sdb scale in
  install_project_band sdb ~confidence:0.9;
  sdb

let apb_fd_sdb scale =
  let sdb = apb_sdb scale in
  install_apb_fds sdb;
  sdb

(* ---- query suites ------------------------------------------------------- *)

let purchase_queries =
  List.map Workload.Queries.purchase_ship_eq
    [ Date.of_ymd 1999 3 15; Date.of_ymd 1999 6 15; Date.of_ymd 1999 11 2 ]
  @ [
      Workload.Queries.purchase_ship_range (Date.of_ymd 1999 7 1)
        (Date.of_ymd 1999 7 7);
    ]

(* a twin only helps when predicates exist on both band columns
   (Opt.Rewrite), so the SSC suite constrains order_date AND ship_date *)
let purchase_twin_queries =
  List.map
    (fun (lo, hi, ship) ->
      Printf.sprintf
        "SELECT * FROM purchase WHERE order_date BETWEEN DATE '%s' AND DATE \
         '%s' AND ship_date <= DATE '%s'"
        (Date.to_string lo) (Date.to_string hi) (Date.to_string ship))
    [
      (Date.of_ymd 1999 3 1, Date.of_ymd 1999 3 31, Date.of_ymd 1999 4 10);
      (Date.of_ymd 1999 6 1, Date.of_ymd 1999 6 30, Date.of_ymd 1999 7 5);
      (Date.of_ymd 1999 10 1, Date.of_ymd 1999 10 14, Date.of_ymd 1999 10 21);
    ]

let project_queries =
  List.map Workload.Queries.project_active_on
    [
      Date.of_ymd 1998 6 1; Date.of_ymd 1998 11 1; Date.of_ymd 1999 3 1;
      Date.of_ymd 1999 9 1;
    ]
  @ [ Workload.Queries.project_completed_within 7 ]

let tpcd_queries =
  Workload.Queries.join_elimination_suite
  @ [
      Workload.Queries.join_elimination_negative;
      Workload.Tpcd.sales_union_sql ~date_lo:(Date.of_ymd 1999 1 10)
        ~date_hi:(Date.of_ymd 1999 3 20);
      Workload.Tpcd.sales_union_sql ~date_lo:(Date.of_ymd 1999 5 5)
        ~date_hi:(Date.of_ymd 1999 5 25);
    ]

let apb_queries = Workload.Apb.queries

(* ---- suite execution ---------------------------------------------------- *)

(* Run every query through EXPLAIN ANALYZE, folding the instrumented
   actuals into the deterministic section.  With [partitions:n] the
   per-partition scan counters ({!Exec.Operators.Counters.partition_counts})
   are folded in as [partition.<i>.rows_scanned] / [partition.<i>.pages_read]
   — zero for a segment every query pruned, which the bench gate holds. *)
let run_suite ?flags ?partitions sdb sqls =
  let module E = Opt.Explain in
  let module C = Exec.Operators.Counters in
  let queries = ref 0
  and rows = ref 0
  and scanned = ref 0
  and pages = ref 0
  and probes = ref 0 in
  let part_rows, part_pages =
    match partitions with
    | Some n -> (Array.make n 0, Array.make n 0)
    | None -> ([||], [||])
  in
  let rewrites = ref [] in
  let bump rule n =
    let seen = try List.assoc rule !rewrites with Not_found -> 0 in
    rewrites := (rule, seen + n) :: List.remove_assoc rule !rewrites
  in
  let q_total_max = ref 1.0
  and q_total_log = ref 0.0
  and q_node_max = ref 1.0
  and q_node_log = ref 0.0 in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun sql ->
      let a = Core.Softdb.analyze ?flags sdb (Workload.Queries.parse sql) in
      incr queries;
      rows := !rows + List.length a.E.result.Exec.Executor.rows;
      let c = a.E.result.Exec.Executor.counters in
      scanned := !scanned + c.C.rows_scanned;
      pages := !pages + c.C.pages_read;
      probes := !probes + c.C.index_probes;
      List.iter
        (fun (_table, p, r, pg) ->
          if p >= 0 && p < Array.length part_rows then begin
            part_rows.(p) <- part_rows.(p) + r;
            part_pages.(p) <- part_pages.(p) + pg
          end)
        (C.partition_counts c);
      List.iter (fun (rule, n) -> bump rule n)
        (E.rewrite_counts a.E.a_report);
      q_total_max := Float.max !q_total_max a.E.total_q_error;
      q_total_log := !q_total_log +. Float.log (Float.max 1.0 a.E.total_q_error);
      q_node_max := Float.max !q_node_max (E.node_q_error_max a);
      q_node_log := !q_node_log +. Float.log (E.node_q_error_geomean a))
    sqls;
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let n = float_of_int (max 1 !queries) in
  let deterministic =
    [
      ("queries", float_of_int !queries);
      ("rows_returned", float_of_int !rows);
      ("rows_scanned", float_of_int !scanned);
      ("pages_read", float_of_int !pages);
      ("index_probes", float_of_int !probes);
      ("q_error.total_max", !q_total_max);
      ("q_error.total_geomean", Float.exp (!q_total_log /. n));
      ("q_error.node_max", !q_node_max);
      ("q_error.node_geomean", Float.exp (!q_node_log /. n));
      ( "rewrites.total",
        float_of_int (List.fold_left (fun a (_, n) -> a + n) 0 !rewrites) );
    ]
    @ List.map (fun (rule, n) -> ("rewrites." ^ rule, float_of_int n))
        !rewrites
    @ (match partitions with
      | None -> []
      | Some n ->
          ("partitions", float_of_int n)
          :: List.concat
               (List.init n (fun i ->
                    [
                      ( Printf.sprintf "partition.%d.rows_scanned" i,
                        float_of_int part_rows.(i) );
                      ( Printf.sprintf "partition.%d.pages_read" i,
                        float_of_int part_pages.(i) );
                    ])))
  in
  (deterministic, [ ("elapsed_ms", elapsed_ms) ])

let suite_result ~scenario ~workload ~mode ?flags ?partitions sdb sqls =
  let deterministic, wallclock = run_suite ?flags ?partitions sdb sqls in
  Measure.make_result ~scenario ~workload ~mode ~deterministic ~wallclock

(* ---- the guarded-fallback scenario -------------------------------------- *)

(* Prepared plans whose ASC is overturned mid-stream: the plan cache
   serves fast plans, then backup plans after a violating insert; LRU
   eviction is exercised by over-preparing. *)
let guarded_result scale =
  let sdb = purchase_sdb ~late:0.0 scale in
  install_purchase_band sdb ~name:"band" ~confidence:1.0;
  let cache = Core.Plan_cache.create ~capacity:4 sdb in
  let t0 = Unix.gettimeofday () in
  let dates = List.init 6 (fun i -> Date.of_ymd 1999 (1 + i) 15) in
  List.iteri
    (fun i day ->
      ignore
        (Core.Plan_cache.prepare cache
           ~name:(Printf.sprintf "q%d" i)
           (Workload.Queries.purchase_ship_eq day)))
    dates;
  let rows = ref 0 in
  let execute_resident () =
    List.iteri
      (fun i _ ->
        let name = Printf.sprintf "q%d" i in
        match Core.Plan_cache.find cache name with
        | None -> () (* evicted *)
        | Some _ ->
            let r = Core.Plan_cache.execute cache name in
            rows := !rows + List.length r.Exec.Executor.rows)
      dates
  in
  execute_resident ();
  (* one violating insert overturns the 100% band (drop policy) *)
  Workload.Purchase.insert_batch ~violating:1.0
    ~rng:(Stats.Rng.create stream_seed) ~start_id:9_000_000 ~count:1
    (Core.Softdb.db sdb);
  execute_resident ();
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let s = Core.Plan_cache.stats cache in
  let fallbacks =
    Obs.Metrics.counter (Core.Softdb.metrics sdb) "sc_guard_fallbacks"
  in
  Measure.make_result ~scenario:"purchase/guarded" ~workload:"purchase"
    ~mode:"guarded"
    ~deterministic:
      [
        ("rows_returned", float_of_int !rows);
        ("plan_cache.entries", float_of_int s.Core.Plan_cache.entries);
        ("plan_cache.valid", float_of_int s.Core.Plan_cache.valid);
        ("plan_cache.fast_runs", float_of_int s.Core.Plan_cache.fast_runs);
        ("plan_cache.backup_runs", float_of_int s.Core.Plan_cache.backup_runs);
        ("plan_cache.evictions", float_of_int s.Core.Plan_cache.evictions);
        ("sc_guard_fallbacks", float_of_int fallbacks);
      ]
    ~wallclock:[ ("elapsed_ms", elapsed_ms) ]

(* ---- the durability scenario -------------------------------------------- *)

let wal_result scale =
  let sdb = Core.Softdb.create () in
  let wal = Wal.create_memory () in
  let link = Core.Recovery.attach sdb wal in
  let t0 = Unix.gettimeofday () in
  let n = match scale with Quick -> 200 | Full -> 2_000 in
  ignore
    (Core.Softdb.exec sdb
       "CREATE TABLE wal_bench (id INT PRIMARY KEY, v INT NOT NULL, note \
        VARCHAR)");
  for i = 1 to n do
    ignore
      (Core.Softdb.exec sdb
         (Printf.sprintf "INSERT INTO wal_bench VALUES (%d, %d, 'row%04d')" i
            (i * 37 mod 1_000) i))
  done;
  ignore
    (Core.Softdb.exec sdb
       (Printf.sprintf "UPDATE wal_bench SET v = 0 WHERE id <= %d" (n / 10)));
  ignore
    (Core.Softdb.exec sdb
       (Printf.sprintf "DELETE FROM wal_bench WHERE id > %d" (n - (n / 10))));
  ignore
    (Core.Softdb.exec sdb
       "ALTER TABLE wal_bench ADD CONSTRAINT v_small CHECK (v BETWEEN 0 AND \
        999) SOFT");
  let log_size records =
    List.fold_left
      (fun acc r -> acc + String.length (Wal.record_to_line r) + 1)
      0 records
  in
  let records = Wal.records wal in
  let bytes = log_size records in
  Core.Recovery.checkpoint link;
  let records' = Wal.records wal in
  let bytes' = log_size records' in
  Core.Recovery.detach link;
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  Measure.make_result ~scenario:"purchase/wal" ~workload:"purchase"
    ~mode:"wal"
    ~deterministic:
      [
        ("wal.records", float_of_int (List.length records));
        ("wal.bytes", float_of_int bytes);
        ("wal.records_after_checkpoint", float_of_int (List.length records'));
        ("wal.bytes_after_checkpoint", float_of_int bytes');
      ]
    ~wallclock:[ ("elapsed_ms", elapsed_ms) ]

(* ---- the index-only scenario -------------------------------------------- *)

(* Covering-key queries answered from a secondary index on
   (ship_date, amount) alone: every block plans as an Index_only_scan, so
   the indexed pages_read is a fraction of the heap scan's.  The indexed
   counters gate directly — rewrites.index_only is Exact and pages_read
   Higher_worse under the default thresholds — so a change that silently
   loses the rewrite fails benchdiff; the unindexed run rides along as
   noindex.* to make the reduction visible in the report. *)
let purchase_idx_sdb scale =
  let sdb = purchase_sdb scale in
  ignore
    (Core.Softdb.exec sdb
       "CREATE INDEX purchase_ship_amt ON purchase (ship_date, amount)");
  sdb

let idx_queries =
  [
    "SELECT ship_date, amount FROM purchase WHERE ship_date = DATE \
     '1999-03-15'";
    "SELECT ship_date, amount FROM purchase WHERE ship_date BETWEEN DATE \
     '1999-06-01' AND DATE '1999-06-30'";
    "SELECT ship_date FROM purchase WHERE ship_date >= DATE '1999-11-01'";
    "SELECT amount, ship_date FROM purchase WHERE ship_date = DATE \
     '1999-02-14'";
  ]

let idx_result scale =
  let t0 = Unix.gettimeofday () in
  let plain, _ = run_suite (purchase_sdb scale) idx_queries in
  let indexed, _ = run_suite (purchase_idx_sdb scale) idx_queries in
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let get k m = try List.assoc k m with Not_found -> 0.0 in
  Measure.make_result ~scenario:"purchase/idx" ~workload:"purchase" ~mode:"idx"
    ~deterministic:
      (indexed
      @ [
          ("noindex.pages_read", get "pages_read" plain);
          ("noindex.rows_scanned", get "rows_scanned" plain);
          ("pages_saved", get "pages_read" plain -. get "pages_read" indexed);
        ])
    ~wallclock:[ ("elapsed_ms", elapsed_ms) ]

(* ---- the partitioned scenarios ------------------------------------------ *)

(* Purchase partitioned by RANGE (id) into [parts] even segments, each
   segment's observed id band mined as an overturnable domain SC.  The
   1-segment variant is the same suite unpartitioned — the baseline the
   4/8-way runs are read against. *)

let partition_bounds ~parts ~rows =
  List.init (parts - 1) (fun i -> rows * (i + 1) / parts)

let partitioned_purchase_sdb ~parts scale =
  let sdb = purchase_sdb scale in
  if parts > 1 then begin
    let rows = (purchase_config scale).Workload.Purchase.rows in
    ignore
      (Core.Softdb.exec sdb
         (Printf.sprintf
            "ALTER TABLE purchase PARTITION BY RANGE (id) BOUNDS (%s)"
            (String.concat ", "
               (List.map string_of_int (partition_bounds ~parts ~rows)))));
    ignore (Core.Softdb.mine_partition_domains sdb ~table:"purchase")
  end;
  sdb

(* Every predicate keys on the bottom eighth of the id domain — plus one
   probe past the maximum — so at 4 and 8 segments everything beyond the
   first segment or two is pruned, by routing alone or by the mined
   domain SCs, and must report zero in the per-partition section. *)
let partition_queries ~rows =
  [
    Printf.sprintf "SELECT * FROM purchase WHERE id < %d" (rows / 8);
    Printf.sprintf "SELECT id, amount FROM purchase WHERE id BETWEEN %d AND %d"
      (rows / 16) (rows / 10);
    Printf.sprintf "SELECT id, region FROM purchase WHERE id = %d" (rows / 12);
    Printf.sprintf "SELECT id FROM purchase WHERE id > %d" (rows + 50);
  ]

(* ---- join-hole trimming ------------------------------------------------- *)

(* A one-to-one join whose (a, b) space has two planted empty rectangles,
   mined as a hole SC: a range on a inside a hole's a-span trims the
   range on b, and a query wholly inside a hole never reads the right
   side.  The last query lies outside every hole — the no-effect control. *)
let holes_sdb scale =
  let pairs = match scale with Quick -> 3_000 | Full -> 6_000 in
  let sdb = Core.Softdb.create () in
  let db = Core.Softdb.db sdb in
  ignore
    (Core.Softdb.exec_script sdb
       "CREATE TABLE hleft (j INT PRIMARY KEY, a INT NOT NULL);
        CREATE TABLE hright (j INT NOT NULL, b INT NOT NULL);
        CREATE INDEX hleft_a ON hleft (a);
        CREATE INDEX hright_b ON hright (b);");
  let in_hole a b =
    (a >= 20 && a < 50 && b >= 30 && b < 70) || (a >= 70 && a < 95 && b < 25)
  in
  let rng = Stats.Rng.create holes_seed in
  let k = ref 0 in
  while !k < pairs do
    let a = Stats.Rng.int rng 100 and b = Stats.Rng.int rng 100 in
    if not (in_hole a b) then begin
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
    (Core.Soft_constraint.make ~name:"holes" ~table:"hleft"
       ~kind:Core.Soft_constraint.Absolute
       ~installed_at_mutations:(Table.mutations left)
       (Core.Soft_constraint.Holes_stmt h));
  sdb

let holes_queries =
  List.map
    (fun (alo, ahi, blo, bhi) ->
      Printf.sprintf
        "SELECT * FROM hleft l, hright r WHERE l.j = r.j AND l.a BETWEEN %d \
         AND %d AND r.b BETWEEN %d AND %d"
        alo ahi blo bhi)
    [ (25, 45, 10, 65); (25, 45, 35, 60); (75, 90, 5, 60); (0, 15, 75, 99) ]

(* the result of [f]'s first run with the median wall time of three, in ms *)
let timed3 f =
  let once () =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1000.0)
  in
  let runs = List.init 3 (fun _ -> once ()) in
  (fst (List.hd runs), List.nth (List.sort Float.compare (List.map snd runs)) 1)

(* Join-hole discovery is linear in the join size: the miner's time per
   join row stays flat as the join grows.  The sizes and rectangle counts
   gate; the per-row times are report-only. *)
let mine_result scale =
  let sizes =
    match scale with
    | Quick -> [ 2_000; 4_000; 8_000 ]
    | Full -> [ 2_000; 4_000; 8_000; 16_000; 32_000 ]
  in
  let mine_at n =
    let db = Database.create () in
    let table name cols =
      ignore
        (Database.create_table db
           (Schema.make name
              (List.map
                 (fun c -> Schema.column ~nullable:false c Value.TInt)
                 cols)))
    in
    table "sleft" [ "j"; "a" ];
    table "sright" [ "j"; "b" ];
    let rng = Stats.Rng.create mine_seed in
    for k = 1 to n do
      ignore
        (Database.insert db ~table:"sleft"
           (Tuple.make [ Value.Int k; Value.Int (Stats.Rng.int rng 1000) ]));
      ignore
        (Database.insert db ~table:"sright"
           (Tuple.make [ Value.Int k; Value.Int (Stats.Rng.int rng 1000) ]))
    done;
    let left = Database.table_exn db "sleft"
    and right = Database.table_exn db "sright" in
    let h, ms =
      timed3 (fun () ->
          Option.get
            (Mining.Join_holes.mine ~grid:32 ~left ~right ~join_left:"j"
               ~join_right:"j" ~left_col:"a" ~right_col:"b" ()))
    in
    let rows = h.Mining.Join_holes.join_rows in
    ( [
        (Printf.sprintf "mine.%d.join_rows" n, float_of_int rows);
        ( Printf.sprintf "mine.%d.rects" n,
          float_of_int (List.length h.Mining.Join_holes.rects) );
      ],
      (Printf.sprintf "mine.%d.us_per_row" n, ms *. 1000.0 /. float_of_int rows)
    )
  in
  let results = List.map mine_at sizes in
  let per_row = List.map snd results in
  let smallest = snd (List.hd per_row)
  and largest = snd (List.hd (List.rev per_row)) in
  Measure.make_result ~scenario:"holes/mine" ~workload:"holes" ~mode:"mine"
    ~deterministic:(List.concat_map fst results)
    ~wallclock:
      (("us_per_row.largest_vs_smallest", largest /. smallest) :: per_row)

(* ---- the exception-union plan ------------------------------------------- *)

(* The paper's late_shipments example: a soft CHECK on the ship/order gap
   with its violators kept in an exception table, so the ship-date suite
   runs as introduced predicate UNION ALL exception scan.  Same data and
   queries as purchase/off, which is its rewrites-off baseline. *)
let add_late_shipments sdb =
  List.iter
    (fun sql -> ignore (Core.Softdb.exec sdb sql))
    [
      "ALTER TABLE purchase ADD CONSTRAINT ship_3w CHECK (ship_date - \
       order_date BETWEEN 0 AND 21) SOFT";
      "CREATE EXCEPTION TABLE late_shipments FOR CONSTRAINT ship_3w";
    ]

let purchase_exc_sdb scale =
  let sdb = purchase_sdb scale in
  add_late_shipments sdb;
  sdb

(* ---- min/max domain SCs ------------------------------------------------- *)

(* Synchronously maintained min/max SCs on order_date (indexed) and
   quantity (unindexed): a predicate outside the domain is proven empty;
   the mid-domain range is the control domain knowledge cannot help. *)
let minmax_sdb scale =
  let sdb = purchase_sdb scale in
  ignore
    (Core.Domain_tracker.track sdb ~table:"purchase"
       ~columns:[ "order_date"; "quantity" ]);
  sdb

let minmax_queries =
  [
    "SELECT * FROM purchase WHERE order_date >= DATE '2005-01-01'";
    "SELECT * FROM purchase WHERE quantity < 1";
    "SELECT * FROM purchase WHERE order_date >= DATE '1999-12-28'";
    "SELECT * FROM purchase WHERE order_date BETWEEN DATE '1999-06-01' AND \
     DATE '1999-06-05'";
  ]

(* ---- the advisor end to end --------------------------------------------- *)

(* purchase + project, then the advisor mines, selects and installs SCs
   for its workload; advisor/off runs the same workload before advising. *)
let advisor_base_sdb scale =
  let sdb = Core.Softdb.create () in
  let db = Core.Softdb.db sdb in
  Workload.Purchase.load ~config:(purchase_config scale) db;
  Workload.Project.load ~config:(project_config scale) db;
  Core.Softdb.runstats sdb;
  sdb

let advisor_sdb scale =
  let sdb = advisor_base_sdb scale in
  ignore
    (Core.Advisor.advise ~db:(Core.Softdb.db sdb)
       ~stats:(Core.Softdb.statistics sdb) ~catalog:(Core.Softdb.catalog sdb)
       ~workload:
         (List.map Workload.Queries.parse Workload.Queries.advisor_workload)
       ());
  sdb

(* ---- ASC maintenance policies ------------------------------------------- *)

(* One 100% band ASC under a seeded insert stream, 1% of it violating,
   once per policy: how many inserts found the ASC usable, whether it is
   usable at the end, and how many violations it saw.  Dropping is the
   last resort; repair and the exception table keep the ASC available. *)
let maintenance_result scale =
  let stream = match scale with Quick -> 500 | Full -> 2_000 in
  let run_policy (label, policy) =
    let sdb = purchase_sdb ~late:0.0 scale in
    install_purchase_band sdb ~name:"band" ~confidence:1.0;
    (match policy with
    | Some p ->
        Core.Maintenance.set_policy (Core.Softdb.maintenance sdb) "band" p
    | None ->
        ignore
          (Core.Softdb.exec sdb
             "CREATE EXCEPTION TABLE band_exc FOR CONSTRAINT band"));
    (* usable = a plan relying on the ASC passes its guard: the ASC is
       active, or its violators are held in an exception table *)
    let usable () = Core.Softdb.guard_ok sdb "band" in
    let rng = Stats.Rng.create maintenance_seed in
    let available = ref 0 in
    let t0 = Unix.gettimeofday () in
    for i = 0 to stream - 1 do
      Workload.Purchase.insert_batch ~violating:0.01 ~rng
        ~start_id:(3_000_000 + i) ~count:1 (Core.Softdb.db sdb);
      if usable () then incr available
    done;
    if policy = Some Core.Maintenance.Async_repair then
      Core.Maintenance.run_repairs (Core.Softdb.maintenance sdb);
    let ingest_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    let violations =
      match Core.Sc_catalog.find (Core.Softdb.catalog sdb) "band" with
      | Some sc -> sc.Core.Soft_constraint.violation_count
      | None -> 0
    in
    let metric m = Printf.sprintf "maintenance.%s.%s" label m in
    ( [
        (metric "available", float_of_int !available);
        (metric "usable_after", if usable () then 1.0 else 0.0);
        (metric "violations", float_of_int violations);
      ],
      ("ingest_ms." ^ label, ingest_ms) )
  in
  let results =
    List.map run_policy
      [
        ("drop", Some Core.Maintenance.Drop);
        ("sync", Some Core.Maintenance.Sync_repair);
        ("async", Some Core.Maintenance.Async_repair);
        ("exception", None);
      ]
  in
  Measure.make_result ~scenario:"purchase/maintenance" ~workload:"purchase"
    ~mode:"maintenance"
    ~deterministic:
      (("maintenance.stream", float_of_int stream)
      :: List.concat_map fst results)
    ~wallclock:(List.map snd results)

(* ---- the rule-ablation matrix ------------------------------------------- *)

(* One database exercising every pathway at once — RI joins, the
   late_shipments exception table, the monthly union, an FD — and one
   query per pathway, run with all rules off, all on, and each rule
   disabled alone.  Every configuration must return the baseline's rows
   (answers_differ = 0), and each rule's contribution shows as the work
   its absence adds. *)
let ablation_sdb scale =
  let sdb = Core.Softdb.create () in
  let db = Core.Softdb.db sdb in
  let config = tpcd_config scale in
  Workload.Tpcd.load ~config db;
  Workload.Tpcd.create_sales ~config db;
  Workload.Purchase.load ~config:(purchase_config scale) db;
  Core.Softdb.runstats sdb;
  add_late_shipments sdb;
  Core.Softdb.install_sc sdb
    (Core.Soft_constraint.make ~name:"nation_fd" ~table:"nation"
       ~kind:Core.Soft_constraint.Absolute
       ~installed_at_mutations:
         (Table.mutations (Database.table_exn db "nation"))
       (Core.Soft_constraint.Fd_stmt
          { Mining.Fd_mine.table = "nation"; lhs = [ "n_nationkey" ];
            rhs = "n_name" }));
  sdb

let ablation_queries =
  [
    List.hd Workload.Queries.join_elimination_suite;
    Workload.Queries.purchase_ship_eq (Date.of_ymd 1999 6 15);
    Workload.Tpcd.sales_union_sql ~date_lo:(Date.of_ymd 1999 1 10)
      ~date_hi:(Date.of_ymd 1999 3 20);
    Workload.Queries.fd_group_by;
  ]

let ablation_result scale =
  let open Opt.Rewrite in
  let sdb = ablation_sdb scale in
  let t0 = Unix.gettimeofday () in
  let baseline = List.map (Core.Softdb.query_baseline sdb) ablation_queries in
  let differ = ref 0 in
  let run_config (label, flags) =
    let scanned = ref 0 and pages = ref 0 in
    List.iter2
      (fun sql base ->
        let r = Core.Softdb.query ~flags sdb sql in
        let c = r.Exec.Executor.counters in
        scanned := !scanned + c.Exec.Operators.Counters.rows_scanned;
        pages := !pages + c.Exec.Operators.Counters.pages_read;
        if not (Exec.Executor.same_rows base r) then incr differ)
      ablation_queries baseline;
    [
      ("rows_scanned." ^ label, float_of_int !scanned);
      ("pages_read." ^ label, float_of_int !pages);
    ]
  in
  let per_config =
    List.concat_map run_config
      [
        ("all_off", all_off);
        ("all_on", all_on);
        ("no_join_elimination", { all_on with join_elimination = false });
        ( "no_predicate_introduction",
          { all_on with predicate_introduction = false } );
        ("no_exception_union", { all_on with exception_union = false });
        ("no_unionall_pruning", { all_on with unionall_pruning = false });
        ("no_fd_simplification", { all_on with fd_simplification = false });
        ("no_twinning", { all_on with twinning = false });
      ]
  in
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  Measure.make_result ~scenario:"mixed/ablation" ~workload:"mixed"
    ~mode:"ablation"
    ~deterministic:(("answers_differ", float_of_int !differ) :: per_config)
    ~wallclock:[ ("elapsed_ms", elapsed_ms) ]

(* ---- informational constraints at load time ----------------------------- *)

(* Bulk-loading the star schema with RI and checks ENFORCED vs.
   INFORMATIONAL (loader-verified): the same rows either way, and the
   informational load skips the checking cost.  The times are
   report-only. *)
let load_result scale =
  let config = tpcd_config scale in
  let load label enforcement =
    let lineitems, ms =
      timed3 (fun () ->
          let db = Database.create () in
          Workload.Tpcd.create_schema ~fk_enforcement:enforcement db;
          Workload.Tpcd.load_rows ~config db)
    in
    (("lineitems." ^ label, float_of_int lineitems), ms)
  in
  let enforced, enforced_ms = load "enforced" Icdef.Enforced in
  let informational, informational_ms =
    load "informational" Icdef.Informational
  in
  Measure.make_result ~scenario:"tpcd/load" ~workload:"tpcd" ~mode:"load"
    ~deterministic:[ enforced; informational ]
    ~wallclock:
      [
        ("load_ms.enforced", enforced_ms);
        ("load_ms.informational", informational_ms);
        ("speedup", enforced_ms /. informational_ms);
      ]

(* ---- registry ----------------------------------------------------------- *)

type t = {
  name : string;
  workload : string;
  mode : string;
  descr : string;
  exec : scale -> Measure.scenario_result;
}

type fixture = {
  fixture_name : string;
  fixture_setup : scale -> Core.Softdb.t;
  fixture_queries : string list;
}

let scenario ~workload ~mode ~descr exec =
  { name = workload ^ "/" ^ mode; workload; mode; descr; exec }

(* A query suite is a registry scenario and a static-check fixture at
   once: [softdb check] certifies its rewrites and the differential test
   holds its rewrites-on answers to the rewrites-off ones. *)
let suite_scenario ~workload ~mode ~descr ?flags setup queries =
  let name = workload ^ "/" ^ mode in
  ( scenario ~workload ~mode ~descr (fun scale ->
        suite_result ~scenario:name ~workload ~mode ?flags (setup scale)
          queries),
    { fixture_name = name; fixture_setup = setup; fixture_queries = queries } )

let part_scenario parts =
  let mode = Printf.sprintf "part%d" parts in
  scenario ~workload:"purchase" ~mode
    ~descr:
      (if parts = 1 then
         "the id-range pruning suite unpartitioned: the pruning baseline"
       else
         Printf.sprintf
           "id-range pruning over %d range segments with mined domain SCs"
           parts)
    (fun scale ->
      let sdb = partitioned_purchase_sdb ~parts scale in
      let rows = (purchase_config scale).Workload.Purchase.rows in
      suite_result ~scenario:("purchase/" ^ mode) ~workload:"purchase" ~mode
        ?partitions:(if parts > 1 then Some parts else None)
        sdb
        (partition_queries ~rows))

let suites =
  [
    suite_scenario ~workload:"purchase" ~mode:"off"
      ~descr:"ship-date point/range queries, every rewrite disabled"
      ~flags:Opt.Rewrite.all_off purchase_sdb purchase_queries;
    suite_scenario ~workload:"purchase" ~mode:"asc"
      ~descr:"mined 100% diff band drives predicate introduction"
      purchase_asc_sdb purchase_queries;
    suite_scenario ~workload:"purchase" ~mode:"ssc"
      ~descr:"99% diff band drives twinned cardinality estimation"
      purchase_ssc_sdb purchase_twin_queries;
    suite_scenario ~workload:"purchase" ~mode:"exc"
      ~descr:"late_shipments exception table: introduced range UNION ALL \
              exceptions"
      purchase_exc_sdb purchase_queries;
    suite_scenario ~workload:"project" ~mode:"off"
      ~descr:"correlated-date queries under the independence assumption"
      ~flags:Opt.Rewrite.all_off project_sdb project_queries;
    suite_scenario ~workload:"project" ~mode:"ssc"
      ~descr:"90% duration band twins the correlated date predicates"
      project_ssc_sdb project_queries;
    suite_scenario ~workload:"tpcd" ~mode:"off"
      ~descr:"FK joins + 12-way union, every rewrite disabled"
      ~flags:Opt.Rewrite.all_off tpcd_sdb tpcd_queries;
    suite_scenario ~workload:"tpcd" ~mode:"asc"
      ~descr:"RI join elimination + CHECK-driven union-all pruning" tpcd_sdb
      tpcd_queries;
    suite_scenario ~workload:"apb" ~mode:"off"
      ~descr:"hierarchy rollups, every rewrite disabled"
      ~flags:Opt.Rewrite.all_off apb_sdb apb_queries;
    suite_scenario ~workload:"apb" ~mode:"asc"
      ~descr:"hierarchy FDs simplify GROUP BY / ORDER BY lists" apb_fd_sdb
      apb_queries;
    suite_scenario ~workload:"holes" ~mode:"off"
      ~descr:"range joins over a join with planted holes, rewrites disabled"
      ~flags:Opt.Rewrite.all_off holes_sdb holes_queries;
    suite_scenario ~workload:"holes" ~mode:"asc"
      ~descr:"mined join holes trim the range on the other join side"
      holes_sdb holes_queries;
    suite_scenario ~workload:"minmax" ~mode:"off"
      ~descr:"out-of-domain and edge ranges, rewrites disabled"
      ~flags:Opt.Rewrite.all_off minmax_sdb minmax_queries;
    suite_scenario ~workload:"minmax" ~mode:"asc"
      ~descr:"maintained min/max domain SCs prove out-of-domain ranges empty"
      minmax_sdb minmax_queries;
    suite_scenario ~workload:"advisor" ~mode:"off"
      ~descr:"the advisor workload before advising"
      ~flags:Opt.Rewrite.all_off
      advisor_base_sdb Workload.Queries.advisor_workload;
    suite_scenario ~workload:"advisor" ~mode:"asc"
      ~descr:"the advisor mines, selects and installs SCs for its workload"
      advisor_sdb Workload.Queries.advisor_workload;
  ]

let all =
  List.sort
    (fun a b -> String.compare a.name b.name)
    (List.map fst suites
    @ [
        scenario ~workload:"purchase" ~mode:"guarded"
          ~descr:
            "prepared plans under ASC overturn: backup fallback + LRU eviction"
          guarded_result;
        scenario ~workload:"purchase" ~mode:"wal"
          ~descr:"durability path: logged bytes before/after checkpoint"
          wal_result;
        scenario ~workload:"purchase" ~mode:"idx"
          ~descr:
            "covering index answers the suite index-only: pages_read \
             reduction gated"
          idx_result;
        part_scenario 1;
        part_scenario 4;
        part_scenario 8;
        scenario ~workload:"purchase" ~mode:"maintenance"
          ~descr:"ASC availability under a violating stream, per policy"
          maintenance_result;
        scenario ~workload:"mixed" ~mode:"ablation"
          ~descr:"each rewrite disabled alone: work added, answers unchanged"
          ablation_result;
        scenario ~workload:"holes" ~mode:"mine"
          ~descr:"join-hole mining time per join row as the join grows"
          mine_result;
        scenario ~workload:"tpcd" ~mode:"load"
          ~descr:"bulk load with RI + checks enforced vs. informational"
          load_result;
      ])

(* The partition and index scenarios are not plain suites; their
   fixtures are listed here.  The partition queries are pinned to the
   quick-scale id domain: the checker re-derives every prune from the
   query and catalog it is given, so the fixed bounds stay sound at any
   scale. *)
let fixtures =
  List.map snd suites
  @ [
      {
        fixture_name = "purchase/part4";
        fixture_setup = partitioned_purchase_sdb ~parts:4;
        fixture_queries = partition_queries ~rows:6_000;
      };
      {
        fixture_name = "purchase/idx";
        fixture_setup = purchase_idx_sdb;
        fixture_queries = idx_queries;
      };
    ]

let find name = List.find_opt (fun s -> s.name = name) all
let names = List.map (fun s -> s.name) all

let run ?only ~scale ~label () =
  let selected =
    match only with
    | None -> all
    | Some names ->
        List.map
          (fun n ->
            match find n with
            | Some s -> s
            | None -> invalid_arg ("unknown scenario " ^ n))
          names
  in
  Measure.make_run ~label ~scale:(scale_name scale)
    (List.map (fun s -> s.exec scale) selected)
