(* The partitioning subsystem end to end: spec validation and routing,
   segment bookkeeping with partition-local mutation counters, the
   ALTER ... PARTITION BY DDL round-trip, domain mining into [Part_stmt]
   soft constraints, routing-hard and SC-premised partition pruning with
   verifiable Check certificates, partition-local invalidation and the
   guarded fallback after a mid-flight overturn, the aligned-join
   cardinality cap, sys.partitions with per-partition scan counters, the
   in-line concatenation of segments (order, early stop, EXPLAIN
   ANALYZE), and crash recovery of a partitioned database (checkpointing,
   replay of interleaved cross-shard traffic). *)

open Rel

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

(* ---- spec validation and routing ----------------------------------------- *)

let id_schema =
  Schema.make "t"
    [
      Schema.column ~nullable:false "id" Value.TInt;
      Schema.column "v" Value.TInt;
    ]

let rejects spec =
  match Partition.make id_schema spec with
  | exception Invalid_argument _ -> true
  | _ -> false

let test_spec_validation () =
  check tbool "empty bounds refused" true
    (rejects (Partition.Range { column = "id"; bounds = [] }));
  check tbool "unsorted bounds refused" true
    (rejects
       (Partition.Range { column = "id"; bounds = [ Value.Int 10; Value.Int 5 ] }));
  check tbool "duplicate bounds refused" true
    (rejects
       (Partition.Range { column = "id"; bounds = [ Value.Int 5; Value.Int 5 ] }));
  check tbool "null bound refused" true
    (rejects (Partition.Range { column = "id"; bounds = [ Value.Null ] }));
  check tbool "unknown column refused" true
    (rejects (Partition.Range { column = "nope"; bounds = [ Value.Int 1 ] }));
  check tbool "one hash bucket refused" true
    (rejects (Partition.Hash { column = "id"; buckets = 1 }))

let test_range_routing () =
  let part =
    Partition.make id_schema
      (Partition.Range { column = "id"; bounds = [ Value.Int 10; Value.Int 20 ] })
  in
  check tint "k bounds make k+1 segments" 3 (Partition.count part);
  check tint "null routes to segment 0" 0 (Partition.route_value part Value.Null);
  check tint "below first bound" 0 (Partition.route_value part (Value.Int 9));
  check tint "bound is inclusive on the right segment" 1
    (Partition.route_value part (Value.Int 10));
  check tint "inside middle segment" 1 (Partition.route_value part (Value.Int 19));
  check tint "last segment open-ended" 2
    (Partition.route_value part (Value.Int 20_000));
  (* segment 0's constraint carries the IS NULL arm NULL-routing implies *)
  (match Partition.constraint_pred part 0 with
  | Expr.Or (_, Expr.Is_null _) -> ()
  | p -> Alcotest.failf "segment 0 constraint lacks NULL arm: %a" Expr.pp_pred p);
  (* routing agrees with the constraint: every routed value satisfies it *)
  List.iter
    (fun v ->
      let i = Partition.route_value part v in
      match Partition.constraint_pred part i with
      | Expr.Ptrue -> ()
      | _ -> ())
    [ Value.Int (-3); Value.Int 10; Value.Int 15; Value.Int 99 ]

let test_hash_routing_deterministic () =
  let mk () =
    Partition.make id_schema (Partition.Hash { column = "id"; buckets = 4 })
  in
  let a = mk () and b = mk () in
  check tint "4 buckets" 4 (Partition.count a);
  let values =
    [ Value.Int 0; Value.Int 42; Value.Int (-7); Value.String "x"; Value.Null ]
  in
  List.iter
    (fun v ->
      let i = Partition.route_value a v in
      check tbool "bucket in range" true (i >= 0 && i < 4);
      check tint "two instances agree" i (Partition.route_value b v))
    values;
  (* hash segments advertise no interval shape *)
  check tbool "hash constraint is trivial" true
    (Partition.constraint_pred a 2 = Expr.Ptrue)

let test_alignment () =
  let range bounds =
    Partition.make id_schema (Partition.Range { column = "id"; bounds })
  in
  let hash buckets =
    Partition.make id_schema (Partition.Hash { column = "id"; buckets })
  in
  check tbool "same bounds align" true
    (Partition.aligned (range [ Value.Int 10 ]) (range [ Value.Int 10 ]));
  check tbool "different bounds do not" false
    (Partition.aligned (range [ Value.Int 10 ]) (range [ Value.Int 11 ]));
  check tbool "equal bucket counts align" true
    (Partition.aligned (hash 4) (hash 4));
  check tbool "range never aligns with hash" false
    (Partition.aligned (range [ Value.Int 10 ]) (hash 2))

(* ---- shared fixture: a partitioned table --------------------------------- *)

(* ids 1..rows; RANGE (id) BOUNDS (500, 1000):
   segment 0 = 1..499, segment 1 = 500..999, segment 2 = 1000..rows *)
let psdb ?(rows = 1400) () =
  let sdb = Core.Softdb.create () in
  ignore
    (Core.Softdb.exec sdb
       "CREATE TABLE p (id INT PRIMARY KEY, v INT NOT NULL, s VARCHAR)");
  for i = 1 to rows do
    ignore
      (Core.Softdb.exec sdb
         (Printf.sprintf "INSERT INTO p VALUES (%d, %d, '%s')" i (i mod 97)
            (if i mod 3 = 0 then "x" else "y")))
  done;
  ignore
    (Core.Softdb.exec sdb "ALTER TABLE p PARTITION BY RANGE (id) BOUNDS (500, 1000)");
  Core.Softdb.runstats sdb;
  sdb

let part_of sdb = Option.get (Database.partitioning (Core.Softdb.db sdb) "p")
let find_sc sdb name = Core.Sc_catalog.find (Core.Softdb.catalog sdb) name

let rows_of sdb sql =
  (Core.Softdb.query_baseline sdb sql).Exec.Executor.rows
  |> List.map Tuple.to_list

let test_segments_after_declaration () =
  let sdb = psdb () in
  let part = part_of sdb in
  check tint "three segments" 3 (Partition.count part);
  check tint "segment 0 rows" 499 (Partition.rows part 0);
  check tint "segment 1 rows" 500 (Partition.rows part 1);
  check tint "segment 2 rows" 401 (Partition.rows part 2);
  (* members come back sorted ascending — the deterministic scan order *)
  let m = Partition.members part 1 in
  check tbool "members ascending" true (List.sort compare m = m);
  check tint "membership matches the count" 500 (List.length m);
  (* repartitioning is refused, and virtual tables cannot be partitioned *)
  check tbool "double declaration refused" true
    (match Core.Softdb.exec sdb "ALTER TABLE p PARTITION BY HASH (id) BUCKETS 4" with
    | exception _ -> true
    | _ -> false)

let test_partition_local_mutation_counters () =
  let sdb = psdb () in
  let part = part_of sdb in
  let before0 = Partition.seg_mutations part 0 in
  let before2 = Partition.seg_mutations part 2 in
  (* churn confined to segment 0: in-place updates of ids < 100 *)
  ignore (Core.Softdb.exec sdb "UPDATE p SET v = 0 WHERE id < 100");
  check tbool "segment 0 counter advanced" true
    (Partition.seg_mutations part 0 > before0);
  check tint "sibling segment unaged by the churn" before2
    (Partition.seg_mutations part 2);
  (* an update that moves the row counts on both sides *)
  let m0 = Partition.seg_mutations part 0 in
  let m2 = Partition.seg_mutations part 2 in
  ignore (Core.Softdb.exec sdb "UPDATE p SET id = 2042 WHERE id = 42");
  check tbool "source segment counted the move" true
    (Partition.seg_mutations part 0 > m0);
  check tbool "target segment counted the move" true
    (Partition.seg_mutations part 2 > m2);
  check tint "row left segment 0" 498 (Partition.rows part 0);
  check tint "row arrived in segment 2" 402 (Partition.rows part 2)

(* ---- DDL round-trip ------------------------------------------------------- *)

let test_ddl_round_trip () =
  List.iter
    (fun sql ->
      let stmt = Sqlfe.Parser.parse_statement sql in
      let printed = Sqlfe.Printer.statement_to_string stmt in
      check tbool
        (Printf.sprintf "round-trips: %s" sql)
        true
        (Sqlfe.Parser.parse_statement printed = stmt))
    [
      "ALTER TABLE p PARTITION BY RANGE (id) BOUNDS (500, 1000)";
      "ALTER TABLE p PARTITION BY RANGE (d) BOUNDS (DATE '1999-01-01', DATE \
       '1999-07-01')";
      "ALTER TABLE p PARTITION BY HASH (region) BUCKETS 8";
    ];
  (* bad partition DDL fails in the parser, not downstream *)
  List.iter
    (fun sql ->
      check tbool
        (Printf.sprintf "rejected: %s" sql)
        true
        (match Sqlfe.Parser.parse_statement sql with
        | exception _ -> true
        | _ -> false))
    [
      "ALTER TABLE p PARTITION BY RANGE (id)";
      "ALTER TABLE p PARTITION BY HASH (id) BOUNDS (1)";
      "ALTER TABLE p PARTITION BY RANGE (id) BUCKETS 4";
    ]

(* ---- mining domain SCs ----------------------------------------------------- *)

let test_mining_installs_domain_scs () =
  let sdb = psdb () in
  let scs = Core.Softdb.mine_partition_domains sdb ~table:"p" in
  check tint "one SC per non-empty segment" 3 (List.length scs);
  List.iteri
    (fun i (lo, hi) ->
      let sc = Option.get (find_sc sdb (Printf.sprintf "p_p%d_domain" i)) in
      check tbool "absolute" true
        (sc.Core.Soft_constraint.kind = Core.Soft_constraint.Absolute);
      check tbool "usable" true (Core.Soft_constraint.is_usable sc);
      match sc.Core.Soft_constraint.statement with
      | Core.Soft_constraint.Part_stmt { partition; pred } ->
          check tint "partition index" i partition;
          check tbool "observed band, tighter than routing" true
            (pred
            = Expr.Between
                (Expr.column "id", Expr.const (Value.Int lo),
                 Expr.const (Value.Int hi)))
      | _ -> Alcotest.fail "expected a Part_stmt statement")
    [ (1, 499); (500, 999); (1000, 1400) ];
  (* re-mining replaces rather than duplicates *)
  ignore (Core.Softdb.mine_partition_domains sdb ~table:"p");
  let domains =
    List.filter
      (fun (sc : Core.Soft_constraint.t) ->
        match sc.Core.Soft_constraint.statement with
        | Core.Soft_constraint.Part_stmt _ -> true
        | _ -> false)
      (Core.Sc_catalog.all (Core.Softdb.catalog sdb))
  in
  check tint "still three domain SCs" 3 (List.length domains);
  check tbool "unpartitioned table refuses mining" true
    (match
       Core.Softdb.mine_partition_domains (Core.Softdb.create ()) ~table:"p"
     with
    | exception _ -> true
    | _ -> false)

(* ---- pruning + certificates ------------------------------------------------ *)

let pruned_partitions (report : Opt.Explain.report) =
  List.filter_map
    (fun (a : Opt.Rewrite.applied) ->
      match a.Opt.Rewrite.delta with
      | Opt.Rewrite.Partition_pruned { partition; _ } -> Some (partition, a)
      | _ -> None)
    report.Opt.Explain.applied

let scan_partitions plan =
  let rec go acc = function
    | Exec.Plan.Partition_scan { partition; _ } -> partition :: acc
    | p -> List.fold_left go acc (Exec.Plan.children p)
  in
  List.sort compare (go [] plan)

let test_routing_hard_prune () =
  let sdb = psdb () in
  let sql = "SELECT id FROM p WHERE id < 400" in
  let report = Core.Softdb.explain sdb sql in
  let pruned = pruned_partitions report in
  check tbool "segments 1 and 2 pruned" true
    (List.map fst pruned |> List.sort compare = [ 1; 2 ]);
  (* routing bounds are declarative: no SC premise, no guard *)
  List.iter
    (fun (_, (a : Opt.Rewrite.applied)) ->
      check tbool "no premises for a routing-hard prune" true
        (a.Opt.Rewrite.premises = []))
    pruned;
  check tbool "no guards" true (report.Opt.Explain.guards = []);
  check tbool "only segment 0 scanned" true
    (scan_partitions report.Opt.Explain.plan = [ 0 ]);
  (* the checker re-derives soundness for every emitted certificate *)
  let report', diags = Check.Cert.check_query sdb sql in
  check tint "softdb check verifies the prune" 0
    (List.length (Check.Diag.errors diags));
  check tbool "checked report pruned identically" true
    (List.map fst (pruned_partitions report') |> List.sort compare = [ 1; 2 ]);
  (* pruning changed nothing observable *)
  check tbool "same answer as baseline" true
    (List.sort compare (rows_of sdb sql)
    = List.sort compare
        (List.map Tuple.to_list (Core.Softdb.query sdb sql).Exec.Executor.rows))

(* An OR prunes a segment only when every disjunct contradicts it:
   [purchase] at (1500, 3000, 4500) under [id < 1400 OR id > 4600] keeps
   segments 0 and 3, and a disjunct overlapping segment 1 keeps it. *)
let test_disjunction_prune () =
  let sdb = Core.Softdb.create () in
  Workload.Purchase.load
    ~config:{ Workload.Purchase.default_config with rows = 6_000 }
    (Core.Softdb.db sdb);
  ignore
    (Core.Softdb.exec sdb
       "ALTER TABLE purchase PARTITION BY RANGE (id) BOUNDS (1500, 3000, \
        4500)");
  Core.Softdb.runstats sdb;
  List.iter
    (fun (sql, want_pruned) ->
      let report = Core.Softdb.explain sdb sql in
      check (Alcotest.list tint) ("pruned: " ^ sql) want_pruned
        (List.map fst (pruned_partitions report) |> List.sort compare);
      check (Alcotest.list tint) ("scanned: " ^ sql)
        (List.filter (fun i -> not (List.mem i want_pruned)) [ 0; 1; 2; 3 ])
        (scan_partitions report.Opt.Explain.plan);
      let _, diags = Check.Cert.check_query sdb sql in
      check tint ("certificates verify: " ^ sql) 0
        (List.length (Check.Diag.errors diags));
      let rows r =
        List.sort compare (List.map Tuple.to_list r.Exec.Executor.rows)
      in
      let base = Core.Softdb.query_baseline sdb sql in
      check tbool ("non-empty: " ^ sql) true (base.Exec.Executor.rows <> []);
      check tbool ("same rows as rewrites-off: " ^ sql) true
        (rows base = rows (Core.Softdb.query sdb sql)))
    [
      ("SELECT id FROM purchase WHERE id < 1400 OR id > 4600", [ 1; 2 ]);
      ( "SELECT id FROM purchase WHERE id < 1400 OR id BETWEEN 2000 AND 2100",
        [ 2; 3 ] );
    ]

let test_sc_premised_prune () =
  let sdb = psdb () in
  ignore (Core.Softdb.mine_partition_domains sdb ~table:"p");
  (* id > 1450 is outside segment 2's observed band [1000, 1400] but not
     outside its open-ended routing bound — only the SC can prune it *)
  let sql = "SELECT id FROM p WHERE id > 1450" in
  let report = Core.Softdb.explain sdb sql in
  let pruned = pruned_partitions report in
  check tbool "all three segments pruned" true
    (List.map fst pruned |> List.sort compare = [ 0; 1; 2 ]);
  let _, a2 = List.find (fun (i, _) -> i = 2) pruned in
  check tbool "segment 2's prune rests on its domain SC" true
    (List.mem "p_p2_domain" a2.Opt.Rewrite.premises);
  check tbool "the SC became an execution guard" true
    (List.mem "p_p2_domain" report.Opt.Explain.guards);
  check tbool "backup plan retained" true
    (report.Opt.Explain.backup_plan <> None);
  let _, diags = Check.Cert.check_query sdb sql in
  check tint "certificate verifies" 0 (List.length (Check.Diag.errors diags));
  check tbool "empty answer matches baseline" true (rows_of sdb sql = []);
  (* a forged prune of a partition the query predicates do not
     contradict must be rejected by the re-derivation *)
  let honest = Core.Softdb.explain sdb "SELECT id FROM p WHERE v = 3" in
  let forged =
    {
      honest with
      Opt.Explain.applied =
        {
          Opt.Rewrite.rule = "partition_pruning";
          detail = "forged";
          sc = Some "p_p0_domain";
          premises = [ "p_p0_domain" ];
          delta =
            Opt.Rewrite.Partition_pruned
              { table = "p"; alias = "p"; partition = 0 };
        }
        :: honest.Opt.Explain.applied;
    }
  in
  let diags = Check.Cert.check_report sdb forged in
  check tbool "forged prune detected" true
    (List.exists
       (fun (d : Check.Diag.t) ->
         Check.Diag.is_error d
         && d.Check.Diag.subject = "partition_pruning")
       diags)

let test_overturn_and_guarded_fallback () =
  let sdb = psdb () in
  ignore (Core.Softdb.mine_partition_domains sdb ~table:"p");
  let sql = "SELECT id FROM p WHERE id > 1450" in
  let report = Core.Softdb.explain sdb sql in
  (* in-band churn in a sibling segment overturns nothing *)
  ignore (Core.Softdb.exec sdb "UPDATE p SET v = 1 WHERE id < 50");
  List.iter
    (fun i ->
      check tbool
        (Printf.sprintf "p_p%d_domain still usable" i)
        true
        (Core.Soft_constraint.is_usable
           (Option.get (find_sc sdb (Printf.sprintf "p_p%d_domain" i)))))
    [ 0; 1; 2 ];
  (* an out-of-band insert overturns exactly its own segment's SC *)
  ignore (Core.Softdb.exec sdb "INSERT INTO p VALUES (1500, 7, 'z')");
  check tbool "segment 2's SC overturned" false
    (Core.Soft_constraint.is_usable (Option.get (find_sc sdb "p_p2_domain")));
  List.iter
    (fun i ->
      check tbool
        (Printf.sprintf "sibling p_p%d_domain untouched" i)
        true
        (Core.Soft_constraint.is_usable
           (Option.get (find_sc sdb (Printf.sprintf "p_p%d_domain" i)))))
    [ 0; 1 ];
  (* the stale plan flags its failed guard and reverts to the backup *)
  let result, fell_back = Core.Softdb.execute_report sdb report in
  check tbool "guarded fallback taken" true fell_back;
  check tbool "backup sees the new row" true
    (List.map Tuple.to_list result.Exec.Executor.rows = [ [ Value.Int 1500 ] ]);
  let m = Core.Softdb.metrics sdb in
  check tbool "fallback counted" true
    (Obs.Metrics.counter m "sc_guard_fallbacks" >= 1);
  check tint "fallback attributed to (p, 2)" 1
    (Obs.Metrics.counter m "exec.partition.fallbacks.p.2");
  check tint "no attribution to siblings" 0
    (Obs.Metrics.counter m "exec.partition.fallbacks.p.0")

(* ---- aligned-join cardinality cap ------------------------------------------ *)

let test_aligned_join_cap_arithmetic () =
  let left = [| 10; 20; 5 |] and right = [| 5; 2; 4 |] in
  check tbool "cap is the segmentwise dot product" true
    (Stats.Part_stats.aligned_join_cap ~left ~right = 110.0);
  check tbool "cross product dominates" true
    (Stats.Part_stats.cross_product ~left ~right = 385.0);
  check tbool "gain in (0, 1]" true
    (let g = Stats.Part_stats.alignment_gain ~left ~right in
     g > 0.0 && g <= 1.0)

let test_aligned_join_tightens_estimate () =
  let load sdb partitioned =
    ignore
      (Core.Softdb.exec_script sdb
         "CREATE TABLE a (id INT PRIMARY KEY, x INT NOT NULL);
          CREATE TABLE b (id INT PRIMARY KEY, y INT NOT NULL);");
    for i = 1 to 200 do
      ignore
        (Core.Softdb.exec sdb
           (Printf.sprintf "INSERT INTO a VALUES (%d, %d)" i (i mod 7)));
      ignore
        (Core.Softdb.exec sdb
           (Printf.sprintf "INSERT INTO b VALUES (%d, %d)" i (i mod 5)))
    done;
    if partitioned then begin
      ignore
        (Core.Softdb.exec sdb "ALTER TABLE a PARTITION BY RANGE (id) BOUNDS (100)");
      ignore
        (Core.Softdb.exec sdb "ALTER TABLE b PARTITION BY RANGE (id) BOUNDS (100)")
    end;
    Core.Softdb.runstats sdb;
    sdb
  in
  let sql = "SELECT a.id FROM a, b WHERE a.id = b.id" in
  let plain = load (Core.Softdb.create ()) false in
  let parted = load (Core.Softdb.create ()) true in
  let est sdb = (Core.Softdb.explain sdb sql).Opt.Explain.estimated_cardinality in
  check tbool "aligned cap never loosens the estimate" true
    (est parted <= est plain +. 1e-6);
  (* same answer either way *)
  check tbool "join result unchanged by partitioning" true
    (List.sort compare (rows_of plain sql) = List.sort compare (rows_of parted sql))

(* ---- sys.partitions + per-partition counters ------------------------------- *)

let test_sys_partitions_and_scan_counters () =
  let sdb = psdb () in
  ignore (Core.Softdb.mine_partition_domains sdb ~table:"p");
  (* two executed queries confined to segment 0 *)
  for _ = 1 to 2 do
    ignore (Core.Softdb.query sdb "SELECT id FROM p WHERE id < 400")
  done;
  let m = Core.Softdb.metrics sdb in
  check tbool "segment 0 scans counted" true
    (Obs.Metrics.counter m "exec.partition.rows_scanned.p.0" > 0);
  check tbool "segment 0 pages counted" true
    (Obs.Metrics.counter m "exec.partition.pages_read.p.0" > 0);
  check tint "pruned segment 2 scanned nothing" 0
    (Obs.Metrics.counter m "exec.partition.rows_scanned.p.2");
  check tint "pruned segment 2 read nothing" 0
    (Obs.Metrics.counter m "exec.partition.pages_read.p.2");
  let rows =
    (Core.Softdb.query_baseline sdb
       "SELECT table_name, part_index, rows, sc_name, rows_scanned, fallbacks \
        FROM sys.partitions")
      .Exec.Executor.rows
  in
  check tint "one row per segment" 3 (List.length rows);
  List.iteri
    (fun i row ->
      check tbool "table name" true (Tuple.get row 0 = Value.String "p");
      check tbool "segment index" true (Tuple.get row 1 = Value.Int i);
      check tbool "domain SC surfaced" true
        (Tuple.get row 3 = Value.String (Printf.sprintf "p_p%d_domain" i));
      match (Tuple.get row 2, Tuple.get row 4) with
      | Value.Int r, Value.Int scanned ->
          check tbool "live rows positive" true (r > 0);
          if i = 0 then
            check tbool "segment 0 shows its scans" true (scanned > 0)
          else check tint "pruned segments show zero" 0 scanned
      | _ -> Alcotest.fail "sys.partitions row shape")
    rows;
  (* an unpartitioned database has an empty view, not an error *)
  check tint "empty without partitioned tables" 0
    (List.length
       (Core.Softdb.query_baseline (Core.Softdb.create ())
          "SELECT table_name FROM sys.partitions")
         .Exec.Executor.rows)

(* ---- the in-line concatenation of segments -------------------------------- *)

let concat_plan (plan : Exec.Plan.t) =
  let rec go = function
    | Exec.Plan.Partition_concat _ as p -> Some p
    | p -> List.find_map go (Exec.Plan.children p)
  in
  match go plan with
  | Some p -> p
  | None ->
      Alcotest.failf "expected a PartitionConcat in %s"
        (Exec.Plan.to_string plan)

(* Same generator seed + same partitioning => byte-identical rows, in
   segment order: the segments stream one after another, so the order is
   the plan's and nothing else's. *)
let test_concat_deterministic () =
  let build () =
    let sdb = Core.Softdb.create () in
    Workload.Purchase.load
      ~config:{ Workload.Purchase.default_config with rows = 1500; seed = 7 }
      (Core.Softdb.db sdb);
    ignore
      (Core.Softdb.exec sdb
         "ALTER TABLE purchase PARTITION BY RANGE (id) BOUNDS (500, 1000)");
    Core.Softdb.runstats sdb;
    sdb
  in
  let sql = "SELECT id, amount FROM purchase WHERE quantity >= 1" in
  let a = build () and b = build () in
  ignore (concat_plan (Core.Softdb.explain a sql).Opt.Explain.plan);
  let rows sdb = (Core.Softdb.query sdb sql).Exec.Executor.rows in
  let ra = rows a in
  check tbool "non-empty result" true (List.length ra > 1000);
  check tbool "database-to-database identical" true (ra = rows b);
  check tbool "run-to-run identical" true (ra = rows a);
  let segment row =
    match Tuple.get row 0 with
    | Value.Int id -> if id < 500 then 0 else if id < 1000 then 1 else 2
    | _ -> Alcotest.fail "id column"
  in
  let segs = List.map segment ra in
  check tbool "rows arrive in segment order" true
    (List.sort compare segs = segs);
  check (Alcotest.list tint) "every segment contributes" [ 0; 1; 2 ]
    (List.sort_uniq compare segs)

(* A LIMIT met inside segment 0 never opens segments 1..: they read no
   page and scan no row. *)
let test_concat_limit_stops_early () =
  let sdb = psdb () in
  let plan =
    (Core.Softdb.explain sdb "SELECT id, v FROM p LIMIT 5").Opt.Explain.plan
  in
  ignore (concat_plan plan);
  let counters = Exec.Operators.Counters.create () in
  let rows = Exec.Operators.run (Core.Softdb.db sdb) ~counters plan in
  check tint "LIMIT rows" 5 (List.length rows);
  let slice i =
    List.find_map
      (fun (_, part, scanned, pages) ->
        if part = i then Some (scanned, pages) else None)
      (Exec.Operators.Counters.partition_counts counters)
    |> Option.value ~default:(0, 0)
  in
  check tbool "segment 0 read" true (snd (slice 0) > 0);
  check tint "segment 0 stopped at the limit" 5 (fst (slice 0));
  List.iter
    (fun i ->
      check tint (Printf.sprintf "segment %d pages_read" i) 0 (snd (slice i));
      check tint (Printf.sprintf "segment %d rows_scanned" i) 0 (fst (slice i)))
    [ 1; 2 ];
  check tint "pages are segment 0's alone" (snd (slice 0))
    counters.Exec.Operators.Counters.pages_read

(* EXPLAIN ANALYZE sees each segment: every PartitionScan reports the
   rows it produced, and they add up to the concatenation's. *)
let test_concat_explain_analyze () =
  let sdb = Core.Softdb.create () in
  ignore (Core.Softdb.exec sdb "CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  List.iter
    (fun (id, v) ->
      ignore
        (Core.Softdb.exec sdb
           (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" id v)))
    [ (1, 10); (2, 20); (3, 30); (4, 10); (5, 25); (6, 35); (7, 5); (8, 40);
      (9, 50) ];
  ignore
    (Core.Softdb.exec sdb "ALTER TABLE t PARTITION BY RANGE (id) BOUNDS (4, 7)");
  Core.Softdb.runstats sdb;
  let sql = "SELECT id, v FROM t WHERE v >= 20" in
  let a =
    Core.Softdb.analyze sdb (Sqlfe.Parser.parse_query_string sql)
  in
  let children =
    match concat_plan a.Opt.Explain.a_report.Opt.Explain.plan with
    | Exec.Plan.Partition_concat { children; _ } -> List.map snd children
    | _ -> assert false
  in
  check tint "three segments" 3 (List.length children);
  let rec from_concat = function
    | [] -> Alcotest.fail "no PartitionConcat node"
    | (n : Opt.Explain.node_stat) :: rest ->
        if String.starts_with ~prefix:"PartitionConcat" n.Opt.Explain.label
        then (n, rest)
        else from_concat rest
  in
  let concat, rest = from_concat a.Opt.Explain.nodes in
  let scans =
    List.filter
      (fun (n : Opt.Explain.node_stat) ->
        n.Opt.Explain.depth = concat.Opt.Explain.depth + 1)
      rest
  in
  check tint "one node per segment" 3 (List.length scans);
  List.iter2
    (fun (n : Opt.Explain.node_stat) child ->
      check tbool "child is a PartitionScan" true
        (String.starts_with ~prefix:"PartitionScan" n.Opt.Explain.label);
      check tint "two qualifying rows per segment" 2 n.Opt.Explain.actual_rows;
      check tint
        (n.Opt.Explain.label ^ ": actual = rows produced")
        (List.length (Exec.Operators.run (Core.Softdb.db sdb) child))
        n.Opt.Explain.actual_rows)
    scans children;
  check tint "children sum to the concatenation" concat.Opt.Explain.actual_rows
    (List.fold_left (fun acc n -> acc + n.Opt.Explain.actual_rows) 0 scans);
  check tint "concatenation produced the answer" 6 concat.Opt.Explain.actual_rows

(* ---- recovery: checkpoint, cross-shard replay ---------------------------- *)

let wal_fixture () =
  Obs.Fault.reset ();
  let sdb = Core.Softdb.create () in
  let wal = Wal.create_memory () in
  let link = Core.Recovery.attach sdb wal in
  ignore
    (Core.Softdb.exec sdb
       "CREATE TABLE p (id INT PRIMARY KEY, v INT NOT NULL, s VARCHAR)");
  ignore
    (Core.Softdb.exec sdb "ALTER TABLE p PARTITION BY RANGE (id) BOUNDS (500, 1000)");
  for i = 1 to 1200 do
    ignore
      (Core.Softdb.exec sdb
         (Printf.sprintf "INSERT INTO p VALUES (%d, %d, 'r')" i (i mod 13)))
  done;
  (sdb, wal, link)

let all_p sdb = List.sort compare (rows_of sdb "SELECT id, v, s FROM p")

let segment_rows sdb =
  let part = part_of sdb in
  List.init (Partition.count part) (Partition.rows part)

let test_recover_restores_partitioning () =
  let sdb, wal, link = wal_fixture () in
  ignore (Core.Softdb.mine_partition_domains sdb ~table:"p");
  Core.Recovery.flush link;
  let sdb2 = Core.Recovery.recover (Wal.records wal) in
  check tbool "rows identical" true (all_p sdb = all_p sdb2);
  check tbool "partitioning declared" true
    (Database.partitioned_tables (Core.Softdb.db sdb2) = [ "p" ]);
  check tbool "segment membership identical" true
    (segment_rows sdb = segment_rows sdb2);
  (* mined SCs travel as catalog transitions, not DDL side effects *)
  List.iter
    (fun i ->
      check tbool
        (Printf.sprintf "p_p%d_domain recovered" i)
        true
        (Core.Soft_constraint.is_usable
           (Option.get (find_sc sdb2 (Printf.sprintf "p_p%d_domain" i)))))
    [ 0; 1; 2 ];
  Core.Recovery.detach link

let sc_states sdb =
  List.map
    (fun (sc : Core.Soft_constraint.t) ->
      (sc.Core.Soft_constraint.name, sc.Core.Soft_constraint.state))
    (Core.Sc_catalog.all (Core.Softdb.catalog sdb))

let test_cross_shard_replay_matches_live () =
  let sdb, wal, link = wal_fixture () in
  ignore (Core.Softdb.mine_partition_domains sdb ~table:"p");
  (* interleaved cross-shard traffic after mining: replay must keep every
     rid's history in order.  A row moves from segment 0 to segment 1
     (ids are dense, so a slot is freed first) and later updates touch it
     there; a last-segment row is deleted. *)
  ignore (Core.Softdb.exec sdb "DELETE FROM p WHERE id = 700");
  ignore (Core.Softdb.exec sdb "UPDATE p SET id = 700 WHERE id = 7");
  for i = 1 to 300 do
    ignore
      (Core.Softdb.exec sdb
         (Printf.sprintf "UPDATE p SET v = %d WHERE id = %d" (i mod 5) (i * 4)))
  done;
  ignore (Core.Softdb.exec sdb "DELETE FROM p WHERE v = 3");
  ignore (Core.Softdb.exec sdb "DELETE FROM p WHERE id = 1100");
  Core.Recovery.flush link;
  let replayed = Core.Recovery.recover (Wal.records wal) in
  check tbool "identical rows" true (all_p sdb = all_p replayed);
  check tbool "identical segment membership" true
    (segment_rows sdb = segment_rows replayed);
  check tbool "identical catalogs" true (sc_states sdb = sc_states replayed);
  Core.Recovery.detach link

let test_checkpoint_preserves_partitioning () =
  let sdb, wal, link = wal_fixture () in
  ignore (Core.Softdb.mine_partition_domains sdb ~table:"p");
  Core.Recovery.checkpoint link;
  (* post-checkpoint traffic lands on top of the compacted image *)
  ignore (Core.Softdb.exec sdb "INSERT INTO p VALUES (1201, 1, 'post')");
  Core.Recovery.flush link;
  let sdb2 = Core.Recovery.recover (Wal.records wal) in
  check tbool "rows identical after checkpoint" true (all_p sdb = all_p sdb2);
  check tbool "partitioning survives the checkpoint" true
    (Database.partitioned_tables (Core.Softdb.db sdb2) = [ "p" ]);
  check tbool "segment membership identical" true
    (segment_rows sdb = segment_rows sdb2);
  check tbool "domain SC survives the checkpoint" true
    (find_sc sdb2 "p_p2_domain" <> None);
  Core.Recovery.detach link

let () =
  Alcotest.run "part"
    [
      ( "routing",
        [
          Alcotest.test_case "spec validation" `Quick test_spec_validation;
          Alcotest.test_case "range routing" `Quick test_range_routing;
          Alcotest.test_case "hash routing deterministic" `Quick
            test_hash_routing_deterministic;
          Alcotest.test_case "alignment" `Quick test_alignment;
        ] );
      ( "segments",
        [
          Alcotest.test_case "declaration seeds membership" `Quick
            test_segments_after_declaration;
          Alcotest.test_case "partition-local mutation counters" `Quick
            test_partition_local_mutation_counters;
        ] );
      ( "ddl",
        [ Alcotest.test_case "parse/print round-trip" `Quick test_ddl_round_trip ] );
      ( "mining",
        [
          Alcotest.test_case "domain SCs installed" `Quick
            test_mining_installs_domain_scs;
        ] );
      ( "pruning",
        [
          Alcotest.test_case "routing-hard prune" `Quick test_routing_hard_prune;
          Alcotest.test_case "SC-premised prune" `Quick test_sc_premised_prune;
          Alcotest.test_case "disjunction prunes segments" `Quick
            test_disjunction_prune;
          Alcotest.test_case "overturn and guarded fallback" `Quick
            test_overturn_and_guarded_fallback;
        ] );
      ( "stats",
        [
          Alcotest.test_case "aligned-join cap arithmetic" `Quick
            test_aligned_join_cap_arithmetic;
          Alcotest.test_case "aligned join tightens the estimate" `Quick
            test_aligned_join_tightens_estimate;
        ] );
      ( "observability",
        [
          Alcotest.test_case "sys.partitions and scan counters" `Quick
            test_sys_partitions_and_scan_counters;
        ] );
      ( "concat",
        [
          Alcotest.test_case "deterministic in segment order" `Quick
            test_concat_deterministic;
          Alcotest.test_case "LIMIT never opens later segments" `Quick
            test_concat_limit_stops_early;
          Alcotest.test_case "EXPLAIN ANALYZE counts each segment" `Quick
            test_concat_explain_analyze;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "recover restores partitioning" `Quick
            test_recover_restores_partitioning;
          Alcotest.test_case "cross-shard replay matches live" `Quick
            test_cross_shard_replay_matches_live;
          Alcotest.test_case "checkpoint preserves partitioning" `Quick
            test_checkpoint_preserves_partitioning;
        ] );
    ]
