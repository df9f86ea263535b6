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
  let hash build =
    run db
      (Plan.Hash_join
         {
           left = scan "emp";
           right = scan "dept";
           left_keys = [ Expr.column ~rel:"emp" "dept" ];
           right_keys = [ Expr.column ~rel:"dept" "did" ];
           residual = Expr.Ptrue;
           build;
         })
  in
  let hj = hash Plan.Right and hj_left = hash Plan.Left in
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
  check tbool "hash built left = nlj" true (Executor.same_rows nlj hj_left);
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
           build = Plan.Right;
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

(* A union opens its second input only when the first runs out: here in
   root pull 101, which the probe's sampling does not time (after the
   first 64 pulls it times 65, 81, 97, 113, ...).  The Sort drains its
   5,000-row input and sorts it while it opens there, most of the run's
   work; that open is still timed in full, so the Sort's inclusive time
   is most of the run's wall-clock time.  Timed only when sampled, it
   read about 1% of it.  The best of three runs is taken, and the bound
   is loose, so a preempted run or a busy machine does not fail it. *)
let test_late_open_timed () =
  let db = Database.create () in
  let table name n =
    ignore
      (Database.create_table db
         (Schema.make name
            [ Schema.column "id" Value.TInt; Schema.column "v" Value.TInt ]));
    for i = 0 to n - 1 do
      ignore
        (Database.insert db ~table:name
           (Tuple.make [ Value.Int i; Value.Int (7919 * i mod n) ]))
    done
  in
  table "a" 100;
  table "b" 5_000;
  let b = scan "b" in
  let sort =
    Plan.Sort { input = b; keys = [ { Plan.key = Expr.column "v"; asc = true } ] }
  in
  let share () =
    let t0 = Unix.gettimeofday () in
    let rows, stats =
      Operators.run_instrumented db (Plan.Union_all [ scan "a"; sort ])
    in
    let wall = Unix.gettimeofday () -. t0 in
    check tint "rows" 5_100 (List.length rows);
    check tint "the scan drained" 5_001 (List.assq b stats).Operators.Node.pulls;
    (List.assq sort stats).Operators.Node.elapsed_s /. wall
  in
  let best = List.fold_left (fun m _ -> Float.max m (share ())) 0.0 [ 1; 2; 3 ] in
  if best < 0.25 then
    Alcotest.failf "the sort read %.1f%% of the run's wall-clock time"
      (100.0 *. best)

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

(* A block proven empty is planned as [Limit 0]: its input — here a hash
   join, whose open would drain the build side — is never opened, so it
   reads nothing and the instrumented run never sees its nodes. *)
let test_limit_zero_never_opens () =
  let db = fixture () in
  let join =
    Plan.Hash_join
      {
        left = scan "emp";
        right = scan "dept";
        left_keys = [ Expr.column ~rel:"emp" "dept" ];
        right_keys = [ Expr.column ~rel:"dept" "did" ];
        residual = Expr.Ptrue;
        build = Plan.Right;
      }
  in
  let limit = Plan.Limit { input = join; n = 0 } in
  let counters = Operators.Counters.create () in
  let rows, stats = Operators.run_instrumented db ~counters limit in
  check tint "no rows" 0 (List.length rows);
  check tint "no rows scanned" 0 counters.Operators.Counters.rows_scanned;
  check tint "no pages read" 0 counters.Operators.Counters.pages_read;
  check tbool "only the limit ran" true (List.map fst stats = [ limit ])

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

(* SUM over ints stays an exact int; the first float turns it into a
   float sum *)
let test_sum_int_exact () =
  let db = Database.create () in
  ignore
    (Database.create_table db
       (Schema.make "big"
          [ Schema.column "g" Value.TInt; Schema.column "x" Value.TInt ]));
  ignore
    (Database.create_table db
       (Schema.make "mixed"
          [ Schema.column "g" Value.TInt; Schema.column "x" Value.TFloat ]));
  let insert table x =
    ignore (Database.insert db ~table (Tuple.make [ Value.Int 1; x ]))
  in
  insert "big" (Value.Int 9007199254740993);
  insert "big" (Value.Int 0);
  insert "mixed" (Value.Int 2);
  insert "mixed" (Value.Float 0.5);
  let aggregate table =
    match
      (run db
         (Plan.Group
            {
              input = scan table;
              keys = [];
              aggs =
                [
                  { Plan.fn = Plan.Sum; arg = Some (Expr.column "x");
                    out_name = "s" };
                  { Plan.fn = Plan.Max; arg = Some (Expr.column "x");
                    out_name = "m" };
                  { Plan.fn = Plan.Avg; arg = Some (Expr.column "x");
                    out_name = "a" };
                ];
            }))
        .Executor.rows
    with
    | [ row ] -> row
    | _ -> Alcotest.fail "expected one row"
  in
  let row = aggregate "big" in
  check tbool "exact int sum" true (Tuple.get row 0 = Value.Int 9007199254740993);
  check tbool "sum = max" true (Tuple.get row 0 = Tuple.get row 1);
  check tbool "avg is a float" true
    (Tuple.get row 2 = Value.Float (9007199254740993.0 /. 2.0));
  let row = aggregate "mixed" in
  check tbool "a float input makes a float sum" true
    (Tuple.get row 0 = Value.Float 2.5);
  check tbool "avg over mixed" true (Tuple.get row 2 = Value.Float 1.25)

(* An INT key meets the equal FLOAT key in a hash join, as under [=]. *)
let test_hash_join_int_float_keys () =
  let db = Database.create () in
  ignore
    (Database.create_table db
       (Schema.make "small" [ Schema.column "k" Value.TInt ]));
  ignore
    (Database.create_table db
       (Schema.make "fi" [ Schema.column "f" Value.TFloat ]));
  ignore (Database.insert db ~table:"small" (Tuple.make [ Value.Int 3 ]));
  ignore (Database.insert db ~table:"fi" (Tuple.make [ Value.Float 3.0 ]));
  ignore (Database.insert db ~table:"fi" (Tuple.make [ Value.Float 3.5 ]));
  List.iter
    (fun build ->
      let r =
        run db
          (Plan.Hash_join
             {
               left = Plan.Seq_scan { table = "small"; alias = "s"; filter = Expr.Ptrue };
               right = Plan.Seq_scan { table = "fi"; alias = "f"; filter = Expr.Ptrue };
               left_keys = [ Expr.column ~rel:"s" "k" ];
               right_keys = [ Expr.column ~rel:"f" "f" ];
               residual = Expr.Ptrue;
               build;
             })
      in
      check tint
        ("one match, built " ^ Plan.side_name build)
        1 (List.length r.Executor.rows))
    [ Plan.Left; Plan.Right ]

(* Beyond 2^53 an INT equals the FLOAT it rounds to: 2^60 = 2^60.0 and
   2^53 + 1 = 2^53.0, as [=] in a filter says.  Hash join (built either
   side), GROUP BY and DISTINCT must meet them too, so the hash cannot
   split what the comparison joins. *)
let test_hash_keys_beyond_2_53 () =
  let db = Database.create () in
  ignore
    (Database.create_table db (Schema.make "a" [ Schema.column "k" Value.TInt ]));
  ignore
    (Database.create_table db (Schema.make "b" [ Schema.column "x" Value.TFloat ]));
  List.iter
    (fun k -> ignore (Database.insert db ~table:"a" (Tuple.make [ Value.Int k ])))
    [ 1 lsl 60; (1 lsl 53) + 1 ];
  List.iter
    (fun x -> ignore (Database.insert db ~table:"b" (Tuple.make [ Value.Float x ])))
    [ 0x1p60; 0x1p53 ];
  let a = Plan.Seq_scan { table = "a"; alias = "a"; filter = Expr.Ptrue }
  and b = Plan.Seq_scan { table = "b"; alias = "b"; filter = Expr.Ptrue } in
  let nlj =
    run db
      (Plan.Nested_loop_join
         {
           left = a;
           right = b;
           pred = Expr.Cmp (Expr.Eq, Expr.column ~rel:"a" "k", Expr.column ~rel:"b" "x");
         })
  in
  check tint "the filter joins both pairs" 2 (List.length nlj.Executor.rows);
  List.iter
    (fun build ->
      let r =
        run db
          (Plan.Hash_join
             {
               left = a;
               right = b;
               left_keys = [ Expr.column ~rel:"a" "k" ];
               right_keys = [ Expr.column ~rel:"b" "x" ];
               residual = Expr.Ptrue;
               build;
             })
      in
      check tbool ("hash join = nested loop, built " ^ Plan.side_name build) true
        (Executor.same_rows nlj r))
    [ Plan.Left; Plan.Right ];
  let both = Plan.Union_all [ a; b ] in
  let groups =
    run db
      (Plan.Group
         {
           input = both;
           keys = [ (Expr.column "k", "_g0") ];
           aggs = [ { Plan.fn = Plan.Count; arg = None; out_name = "n" } ];
         })
  in
  check tbool "GROUP BY: two groups of two" true
    (List.map (fun r -> Tuple.get r 1) groups.Executor.rows
    = [ Value.Int 2; Value.Int 2 ]);
  check tint "DISTINCT: two rows" 2
    (List.length (run db (Plan.Distinct both)).Executor.rows)

(* A join built on its left input: NULL keys on either side never join,
   duplicate keys multiply, the residual filters, and the output row is
   still left ++ right. *)
let test_hash_join_build_left () =
  let db = Database.create () in
  let table name cols =
    ignore
      (Database.create_table db
         (Schema.make name (List.map (fun c -> Schema.column c Value.TInt) cols)))
  in
  table "l" [ "k"; "v" ];
  table "r" [ "k"; "w" ];
  let v = function Some i -> Value.Int i | None -> Value.Null in
  List.iter
    (fun (k, x) -> ignore (Database.insert db ~table:"l" (Tuple.make [ v k; Value.Int x ])))
    [ (Some 1, 10); (Some 1, 11); (None, 12); (Some 2, 13); (Some 4, 14) ];
  List.iter
    (fun (k, x) -> ignore (Database.insert db ~table:"r" (Tuple.make [ v k; Value.Int x ])))
    [ (Some 1, 20); (Some 1, 21); (Some 2, 22); (None, 23); (Some 3, 24) ];
  let lscan = scan "l" and rscan = scan "r" in
  let keys = ([ Expr.column ~rel:"l" "k" ], [ Expr.column ~rel:"r" "k" ]) in
  let residual = Expr.Cmp (Expr.Ne, Expr.column "w", Expr.int 22) in
  let hash build residual =
    run db
      (Plan.Hash_join
         { left = lscan; right = rscan; left_keys = fst keys;
           right_keys = snd keys; residual; build })
  in
  let nlj residual =
    run db
      (Plan.Nested_loop_join
         {
           left = lscan;
           right = rscan;
           pred =
             Expr.conjoin
               [
                 Expr.Cmp (Expr.Eq, Expr.column ~rel:"l" "k", Expr.column ~rel:"r" "k");
                 residual;
               ];
         })
  in
  let built_left = hash Plan.Left Expr.Ptrue in
  check tint "2 x 2 duplicates plus one" 5 (List.length built_left.Executor.rows);
  check tbool "= nested loop" true
    (Executor.same_rows built_left (nlj Expr.Ptrue));
  check tbool "= built right" true
    (Executor.same_rows built_left (hash Plan.Right Expr.Ptrue));
  check (Alcotest.list Alcotest.string) "left ++ right columns"
    [ "k"; "v"; "k"; "w" ] built_left.Executor.columns;
  List.iter
    (fun row ->
      check tbool "row is left ++ right" true
        (Value.equal_total (Tuple.get row 0) (Tuple.get row 2)
        && (match Tuple.get row 1 with Value.Int x -> x < 20 | _ -> false)
        && match Tuple.get row 3 with Value.Int x -> x >= 20 | _ -> false))
    built_left.Executor.rows;
  let filtered = hash Plan.Left residual in
  check tint "residual drops the w = 22 match" 4
    (List.length filtered.Executor.rows);
  check tbool "residual = nested loop" true
    (Executor.same_rows filtered (nlj residual))

(* An index range fetches its rows in slot order, whichever way it orders
   the rids: sorted for a narrow range, a slot bitmap for a wide one.
   Either way it returns what a heap scan returns, in the same order, and
   charges the same pages as before. *)
let index_scan_slot_order size =
  let db = Database.create () in
  ignore
    (Database.create_table db
       (Schema.make "t" [ Schema.column "id" Value.TInt; Schema.column "v" Value.TInt ]));
  (* key order runs against slot order, and every third row leaves a
     tombstone *)
  for i = 0 to size - 1 do
    ignore
      (Database.insert db ~table:"t"
         (Tuple.make [ Value.Int i; Value.Int ((7919 * i) mod size) ]))
  done;
  ignore (Database.create_index db ~name:"t_v" ~table:"t" ~columns:[ "v" ] ());
  for rid = 0 to size - 1 do
    if rid mod 3 = 0 then ignore (Database.delete db ~table:"t" rid)
  done;
  let between lo hi =
    Expr.conjoin
      [
        Expr.Cmp (Expr.Ge, Expr.column "v", Expr.int lo);
        Expr.Cmp (Expr.Le, Expr.column "v", Expr.int hi);
      ]
  in
  List.iter
    (fun (what, lo, hi) ->
      let heap = run db (scan ~filter:(between lo hi) "t") in
      let idx =
        run db
          (Plan.Index_scan
             {
               table = "t";
               alias = "t";
               index = "t_v";
               lo = Index.Incl (Value.Int lo);
               hi = Index.Incl (Value.Int hi);
               filter = Expr.Ptrue;
             })
      in
      let n = List.length heap.Executor.rows in
      check tbool (what ^ ": rows in range") true (n > 0);
      check tbool (what ^ ": heap answer in heap order") true
        (List.for_all2 Tuple.equal heap.Executor.rows idx.Executor.rows);
      let c = idx.Executor.counters in
      check tint (what ^ ": one fetch per live rid") n
        c.Operators.Counters.rows_scanned;
      let rpp = Table.rows_per_page (Database.table_exn db "t") in
      check tint (what ^ ": pages by the page model")
        ((n + rpp - 1) / rpp) c.Operators.Counters.pages_read)
    [ ("sorted rids", 10, 11); ("slot bitmap", 0, size * 5 / 6) ]

(* An index range over random data answers as the heap scan with the
   same filter does: the same rows in the same (slot) order, one fetch
   per matching row and the page model's pages for them.  Half the rows
   arrive before the index is built and half after, tombstones are
   spread through the table, and the ranges run from empty through one
   key (the posting read without a sort) to most of the table (the slot
   bitmap). *)
let index_scan_agrees_prop =
  QCheck.Test.make ~name:"IndexScan = SeqScan over a random range" ~count:60
    QCheck.(
      quad (int_range 1 1500) (int_range 1 300)
        (pair (int_range (-5) 305) (int_range (-1) 40))
        (int_range 2 5))
    (fun (size, keys, (lo, width), every) ->
      let db = Database.create () in
      ignore
        (Database.create_table db
           (Schema.make "t"
              [ Schema.column "id" Value.TInt; Schema.column "v" Value.TInt ]));
      let insert i =
        ignore
          (Database.insert db ~table:"t"
             (Tuple.make [ Value.Int i; Value.Int (7919 * i mod keys) ]))
      in
      for i = 0 to (size / 2) - 1 do insert i done;
      ignore
        (Database.create_index db ~name:"t_v" ~table:"t" ~columns:[ "v" ] ());
      for i = size / 2 to size - 1 do insert i done;
      for rid = 0 to size - 1 do
        if rid mod every = 0 then ignore (Database.delete db ~table:"t" rid)
      done;
      let hi = lo + width in
      let filter =
        Expr.conjoin
          [
            Expr.Cmp (Expr.Ge, Expr.column "v", Expr.int lo);
            Expr.Cmp (Expr.Le, Expr.column "v", Expr.int hi);
          ]
      in
      let heap = run db (scan ~filter "t") in
      let idx =
        run db
          (Plan.Index_scan
             {
               table = "t";
               alias = "t";
               index = "t_v";
               lo = Index.Incl (Value.Int lo);
               hi = Index.Incl (Value.Int hi);
               filter = Expr.Ptrue;
             })
      in
      let n = List.length heap.Executor.rows in
      let rpp = Table.rows_per_page (Database.table_exn db "t") in
      let c = idx.Executor.counters in
      List.length idx.Executor.rows = n
      && List.for_all2 Tuple.equal heap.Executor.rows idx.Executor.rows
      && c.Operators.Counters.rows_scanned = n
      && c.Operators.Counters.pages_read = (n + rpp - 1) / rpp)

(* A chunk holds 8,192 slots and the last is cut to what its slots need:
   300 slots fill part of one chunk, 8,192 leave the last chunk empty,
   8,193 give it one byte, and 20,000 span three chunks. *)
let test_index_scan_slot_order () =
  List.iter index_scan_slot_order [ 300; 8_192; 8_193; 20_000 ]

(* An index-only scan charges its entries and leaf pages on the first
   pull, like the heap scans: opened and never pulled, it reads nothing. *)
let test_index_only_scan_streams () =
  let db = fixture () in
  let ios =
    Plan.Index_only_scan
      {
        table = "emp";
        alias = "emp";
        index = "emp_salary_idx";
        columns = [ "salary" ];
        lo = Index.Incl (Value.Int 200);
        hi = Index.Unbounded;
        filter = Expr.Cmp (Expr.Ne, Expr.column "salary", Expr.int 250);
      }
  in
  let counters = Operators.Counters.create () in
  let c = Operators.open_plan db counters ios in
  check tint "no rows charged at open" 0 counters.Operators.Counters.rows_scanned;
  check tint "no pages charged at open" 0 counters.Operators.Counters.pages_read;
  check tbool "first row" true (c () = Some [| Value.Int 200 |]);
  check tint "entries charged on the first pull" 4
    counters.Operators.Counters.rows_scanned;
  check tint "one leaf page" 1 counters.Operators.Counters.pages_read;
  check tbool "the rest in key order, filtered" true
    (Operators.drain c = [ [| Value.Int 300 |]; [| Value.Int 400 |] ]);
  check tint "charged once" 4 counters.Operators.Counters.rows_scanned;
  let r = run db (Plan.Limit { input = ios; n = 0 }) in
  check tint "limit 0 reads no leaf pages" 0
    r.Executor.counters.Operators.Counters.pages_read

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
      let hash build =
        run db
          (Plan.Hash_join
             {
               left = scan "l";
               right = scan "r";
               left_keys = [ Expr.column ~rel:"l" "k" ];
               right_keys = [ Expr.column ~rel:"r" "k" ];
               residual = Expr.Ptrue;
               build;
             })
      in
      let hj = hash Plan.Right and hj_left = hash Plan.Left in
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
      Executor.same_rows nlj hj
      && Executor.same_rows nlj hj_left
      && Executor.same_rows nlj mj)

(* property: a hash join built either side returns the nested loop's
   multiset.  INT keys on the left, FLOAT keys on the right, drawn from
   small pools so keys repeat and INT meets FLOAT (2^53 + 1 rounds to
   2^53.0), NULLs on both sides, and a residual over the payloads. *)
let int_float_join_prop =
  let row st keys =
    (keys.(Random.State.int st (Array.length keys)), Random.State.int st 10)
  in
  let ints =
    Value.Null
    :: Value.Int ((1 lsl 53) + 1)
    :: Value.Int (1 lsl 53)
    :: List.init 5 (fun i -> Value.Int i)
  and floats =
    [ Value.Null; Value.Float 0x1p53; Value.Float 2.5 ]
    @ List.init 5 (fun i -> Value.Float (float_of_int i))
  in
  let gen st =
    let n () = Random.State.int st 25 in
    ( List.init (n ()) (fun _ -> row st (Array.of_list ints)),
      List.init (n ()) (fun _ -> row st (Array.of_list floats)) )
  in
  let print (l, r) =
    let side rows =
      String.concat "; "
        (List.map (fun (k, v) -> Printf.sprintf "%s/%d" (Value.to_debug k) v) rows)
    in
    side l ^ " | " ^ side r
  in
  QCheck.Test.make ~name:"hash join = NLJ on INT/FLOAT/NULL keys" ~count:150
    (QCheck.make ~print gen)
    (fun (left_rows, right_rows) ->
      let db = Database.create () in
      let table name kty payload rows =
        ignore
          (Database.create_table db
             (Schema.make name
                [ Schema.column "k" kty; Schema.column payload Value.TInt ]));
        List.iter
          (fun (k, v) ->
            ignore (Database.insert db ~table:name (Tuple.make [ k; Value.Int v ])))
          rows
      in
      table "l" Value.TInt "v" left_rows;
      table "r" Value.TFloat "w" right_rows;
      let residual = Expr.Cmp (Expr.Lt, Expr.column "v", Expr.column "w") in
      let nlj =
        run db
          (Plan.Nested_loop_join
             {
               left = scan "l";
               right = scan "r";
               pred =
                 Expr.conjoin
                   [
                     Expr.Cmp
                       (Expr.Eq, Expr.column ~rel:"l" "k", Expr.column ~rel:"r" "k");
                     residual;
                   ];
             })
      in
      List.for_all
        (fun build ->
          Executor.same_rows nlj
            (run db
               (Plan.Hash_join
                  {
                    left = scan "l";
                    right = scan "r";
                    left_keys = [ Expr.column ~rel:"l" "k" ];
                    right_keys = [ Expr.column ~rel:"r" "k" ];
                    residual;
                    build;
                  })))
        [ Plan.Left; Plan.Right ])

(* property: [Group] returns what a plain fold over its input returns,
   row for row and in first-seen group order, for COUNT( * ), COUNT(x),
   SUM, AVG, MIN and MAX, keyed and global.  The input mixes INT, FLOAT
   and NULL in one column: each row sits in an INT or a FLOAT table, and
   a union of one single-row scan per row feeds them in generated order.
   SUM must stay an exact int while every input is an INT (2^53 + 1
   shows it). *)
let group_fold_prop =
  let gen st =
    List.init (Random.State.int st 30) (fun _ ->
        let g =
          if Random.State.int st 6 = 0 then Value.Null
          else Value.Int (Random.State.int st 4)
        in
        let x =
          match Random.State.int st 8 with
          | 0 -> Value.Null
          | 1 -> Value.Int ((1 lsl 53) + 1)
          | 2 | 3 -> Value.Float (float_of_int (Random.State.int st 11 - 5) /. 2.0)
          | _ -> Value.Int (Random.State.int st 11 - 5)
        in
        (g, x))
  in
  let print rows =
    String.concat "; "
      (List.map
         (fun (g, x) -> Value.to_debug g ^ "/" ^ Value.to_debug x)
         rows)
  in
  (* the reference: SUM adds ints exactly until the first float, then
     floats in input order; MIN and MAX keep the first of equal values *)
  let reference_aggs xs =
    let nonnull = List.filter (fun v -> not (Value.is_null v)) xs in
    let rec exact acc = function
      | [] -> Value.Int acc
      | Value.Int i :: tl -> exact (acc + i) tl
      | Value.Float f :: tl -> inexact (float_of_int acc +. f) tl
      | _ :: tl -> exact acc tl
    and inexact acc = function
      | [] -> Value.Float acc
      | v :: tl -> inexact (acc +. Value.as_float v) tl
    in
    let pick better =
      match nonnull with
      | [] -> Value.Null
      | v :: tl ->
          List.fold_left
            (fun m v -> if better (Value.compare_total v m) then v else m)
            v tl
    in
    let n = List.length nonnull in
    let sum = if n = 0 then Value.Null else exact 0 nonnull in
    [|
      Value.Int (List.length xs);
      Value.Int n;
      sum;
      (if n = 0 then Value.Null
       else Value.Float (Value.as_float sum /. float_of_int n));
      pick (fun c -> c < 0);
      pick (fun c -> c > 0);
    |]
  in
  let reference ~keyed rows =
    if not keyed then [ reference_aggs (List.map snd rows) ]
    else
      let groups =
        List.fold_left
          (fun acc (g, _) ->
            if List.exists (Value.equal_total g) acc then acc else g :: acc)
          [] rows
        |> List.rev
      in
      List.map
        (fun g ->
          Array.append [| g |]
            (reference_aggs
               (List.filter_map
                  (fun (g', x) -> if Value.equal_total g g' then Some x else None)
                  rows)))
        groups
  in
  QCheck.Test.make ~name:"GROUP BY = a reference fold" ~count:150
    (QCheck.make ~print gen)
    (fun rows ->
      let db = Database.create () in
      let table name ty =
        ignore
          (Database.create_table db
             (Schema.make name
                [
                  Schema.column "id" Value.TInt;
                  Schema.column "g" Value.TInt;
                  Schema.column "x" ty;
                ]))
      in
      table "ti" Value.TInt;
      table "tf" Value.TFloat;
      let input =
        Plan.Union_all
          (List.mapi
             (fun id (g, x) ->
               let table = match x with Value.Float _ -> "tf" | _ -> "ti" in
               ignore
                 (Database.insert db ~table (Tuple.make [ Value.Int id; g; x ]));
               Plan.Seq_scan
                 {
                   table;
                   alias = "t";
                   filter = Expr.Cmp (Expr.Eq, Expr.column "id", Expr.int id);
                 })
             rows)
      in
      let agg fn arg out_name =
        { Plan.fn; arg = Option.map Expr.column arg; out_name }
      in
      let aggs =
        [
          agg Plan.Count None "n";
          agg Plan.Count (Some "x") "nx";
          agg Plan.Sum (Some "x") "s";
          agg Plan.Avg (Some "x") "a";
          agg Plan.Min (Some "x") "lo";
          agg Plan.Max (Some "x") "hi";
        ]
      in
      let group ~keyed =
        if rows = [] then []
        else
          (run db
             (Plan.Group
                {
                  input;
                  keys = (if keyed then [ (Expr.column "g", "_g0") ] else []);
                  aggs;
                }))
            .Executor.rows
      in
      let same got want =
        List.equal (fun a b -> Stdlib.compare a b = 0) got want
      in
      rows = []
      || (same (group ~keyed:true) (reference ~keyed:true rows)
         && same (group ~keyed:false) (reference ~keyed:false rows)))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "exec"
    [
      ( "scan",
        [
          Alcotest.test_case "seq filter" `Quick test_seq_scan_filter;
          Alcotest.test_case "index range" `Quick test_index_scan;
          Alcotest.test_case "index fetch in slot order" `Quick
            test_index_scan_slot_order;
          Alcotest.test_case "index-only scan streams" `Quick
            test_index_only_scan_streams;
          Alcotest.test_case "project" `Quick test_project;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 32 |])
            index_scan_agrees_prop;
        ] );
      ( "join",
        [
          Alcotest.test_case "methods agree" `Quick test_joins_agree;
          Alcotest.test_case "residual" `Quick test_join_residual;
          Alcotest.test_case "int and float keys" `Quick
            test_hash_join_int_float_keys;
          Alcotest.test_case "built on the left" `Quick test_hash_join_build_left;
          Alcotest.test_case "int and float keys beyond 2^53" `Quick
            test_hash_keys_beyond_2_53;
        ]
        @ qsuite [ joins_agree_prop ]
        @ [
            QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 30 |])
              int_float_join_prop;
          ] );
      ( "sort-group",
        [
          Alcotest.test_case "sort" `Quick test_sort;
          Alcotest.test_case "group aggregates" `Quick test_group_aggregates;
          Alcotest.test_case "global agg on empty" `Quick
            test_global_aggregate_empty_input;
          Alcotest.test_case "int sum is exact" `Quick test_sum_int_exact;
          Alcotest.test_case "distinct" `Quick test_distinct;
          Alcotest.test_case "union all + limit" `Quick
            test_union_all_and_limit;
          Alcotest.test_case "limit 0 never opens its input" `Quick
            test_limit_zero_never_opens;
          Alcotest.test_case "a late union input's open is timed" `Quick
            test_late_open_timed;
          Alcotest.test_case "scan stops at its high-water mark" `Quick
            test_scan_stops_at_high_water;
        ]
        @ [
            QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 31 |])
              group_fold_prop;
          ] );
    ]
