(* Crash-safety tests: the WAL line codec, committed-frame replay, the
   fault-point crash matrix (every registered point gets a simulated
   crash and recovery must land on exactly the pre- or post-transaction
   state), checkpointing, exception-table re-attachment, and the
   SC-guarded plan fallback of paper §4.1. *)

open Rel

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

(* ---- WAL line codec ------------------------------------------------------ *)

let nasty_row =
  [|
    Value.Int 42;
    Value.Null;
    Value.String "tab\there|and\nnewline\\backslash";
    Value.Float 0.1;
    Value.Bool true;
    Value.Date (Date.of_ymd 1999 6 15);
  |]

let codec_records =
  let snap =
    {
      Wal.sc_name = "s1";
      sc_table = "t";
      sc_absolute = true;
      sc_confidence = 1.0;
      sc_state = "violated";
      sc_anchor = 42;
      sc_violations = 3;
      sc_repr =
        Core.Sc_codec.statement_repr
          (Core.Soft_constraint.Ic_stmt
             (Icdef.Check
                (Expr.Between (Expr.column "b", Expr.int 0, Expr.int 100))));
    }
  in
  [
    Wal.Begin { txn = 7 };
    Wal.Insert { txn = 7; table = "t"; rid = 3; row = nasty_row };
    Wal.Delete { txn = 7; table = "t"; rid = 0; row = nasty_row };
    Wal.Update
      {
        txn = 7;
        table = "t";
        rid = 1;
        before = nasty_row;
        after = [| Value.Int 1; Value.Float (1.0 /. 3.0) |];
      };
    Wal.Ddl { txn = 7; sql = "CREATE TABLE t (a INT)" };
    Wal.Sc { txn = 7; change = Wal.Sc_installed snap };
    Wal.Sc { txn = 7; change = Wal.Sc_state { name = "s1"; state = "active" } };
    Wal.Sc
      {
        txn = 7;
        change = Wal.Sc_kind { name = "s1"; absolute = false; confidence = 0.9 };
      };
    Wal.Sc { txn = 7; change = Wal.Sc_anchor { name = "s1"; anchor = 99 } };
    Wal.Sc { txn = 7; change = Wal.Sc_violations { name = "s1"; count = 2 } };
    Wal.Sc
      {
        txn = 7;
        change = Wal.Sc_statement { name = "s1"; repr = snap.Wal.sc_repr };
      };
    Wal.Sc { txn = 7; change = Wal.Sc_dropped { name = "s1" } };
    Wal.Sc
      { txn = 7; change = Wal.Sc_exception { name = "s1"; table = "s1_exc" } };
    Wal.Commit { txn = 7 };
    Wal.Abort { txn = 8 };
  ]

let test_wal_line_roundtrip () =
  List.iter
    (fun r ->
      let line = Wal.record_to_line r in
      check tbool "single line" false (String.contains line '\n');
      check tbool
        (Printf.sprintf "roundtrip %s" line)
        true
        (Wal.record_of_line line = r))
    codec_records

let test_wal_corrupt_line_rejected () =
  List.iter
    (fun line ->
      match Wal.record_of_line line with
      | exception Wal.Wal_error _ -> ()
      | _ -> Alcotest.failf "accepted corrupt line %S" line)
    [ ""; "Z\t1"; "I\t1\tt"; "I\t1\tt\t0\t2\tI1" ]

let test_sc_codec_roundtrip () =
  let stmts =
    [
      Core.Soft_constraint.Ic_stmt
        (Icdef.Check
           (Expr.Between (Expr.column "b", Expr.int 0, Expr.int 100)));
      Core.Soft_constraint.Fd_stmt
        { Mining.Fd_mine.table = "t"; lhs = [ "a"; "b" ]; rhs = "c" };
    ]
  in
  List.iter
    (fun stmt ->
      let repr = Core.Sc_codec.statement_repr stmt in
      check tbool "repr fixpoint" true
        (Core.Sc_codec.statement_repr (Core.Sc_codec.statement_of_repr repr)
        = repr))
    stmts

(* Every statement form survives its repr bit-exactly, FLOAT constants
   included: non-integral, negative, tiny and huge.  (An integral FLOAT
   below 10^15 prints as an INT literal, as it always has, so the
   generator leaves those out.) *)
let codec_roundtrip_prop =
  let open QCheck.Gen in
  let non_integral =
    map2
      (fun x f -> x +. f)
      (map float_of_int (int_range (-1_000_000) 1_000_000))
      (float_range 0.001 0.999)
  in
  let float_gen =
    oneof
      [
        non_integral;
        map (fun x -> x *. 1e-300) non_integral;
        map (fun x -> x *. 1e290) non_integral;
        map (fun x -> x /. 3.0) non_integral;
      ]
  in
  let col = oneofl [ "a"; "b"; "ship_date" ] in
  let stmt =
    oneof
      [
        map3
          (fun c lo hi ->
            Core.Soft_constraint.Ic_stmt
              (Icdef.Check
                 (Expr.Between (Expr.column c, Expr.Const (Value.Float lo),
                    Expr.Const (Value.Float hi)))))
          col float_gen float_gen;
        map2
          (fun lo hi ->
            Core.Soft_constraint.Ic_stmt
              (Icdef.Check
                 (Mining.Band.to_pred
                    (Mining.Band.diff ~a:(Expr.col "a") ~b:(Expr.col "b") ~lo
                       ~hi))))
          float_gen float_gen;
        map3
          (fun k c e ->
            Core.Soft_constraint.Ic_stmt
              (Icdef.Check
                 (Mining.Band.to_pred
                    (Mining.Band.line ~a:(Expr.col "a") ~b:(Expr.col "b") ~k
                       ~c ~e:(Float.abs e)))))
          float_gen float_gen float_gen;
        return (Core.Soft_constraint.Ic_stmt (Icdef.Unique [ "a"; "b" ]));
        map
          (fun c -> Core.Soft_constraint.Ic_stmt (Icdef.Not_null c))
          col;
        return
          (Core.Soft_constraint.Fd_stmt
             { Mining.Fd_mine.table = "t"; lhs = [ "a"; "b" ]; rhs = "c" });
        map2
          (fun partition x ->
            Core.Soft_constraint.Part_stmt
              {
                partition;
                pred =
                  Expr.Cmp
                    (Expr.Lt, Expr.column "a", Expr.Const (Value.Float x));
              })
          (int_range 0 7) float_gen;
        map3
          (fun a b r ->
            Core.Soft_constraint.Holes_stmt
              {
                Mining.Join_holes.left_table = "l";
                left_col = "a";
                right_table = "r";
                right_col = "b";
                join_left = "k";
                join_right = "k";
                grid = 16;
                a_min = a;
                a_max = b;
                b_min = r;
                b_max = a +. b;
                rects =
                  [
                    {
                      Mining.Join_holes.a_lo = a;
                      a_hi = b;
                      b_lo = r;
                      b_hi = r;
                    };
                  ];
                join_rows = 3;
              })
          float_gen float_gen float_gen;
      ]
  in
  QCheck.Test.make ~name:"statement_of_repr inverts statement_repr"
    ~count:300
    (QCheck.make
       ~print:(fun s -> Core.Sc_codec.statement_repr s)
       stmt)
    (fun s ->
      Core.Sc_codec.statement_of_repr (Core.Sc_codec.statement_repr s) = s)

(* A log written before bands were stored as checks installs a mined
   difference band with a [diff|] line and a linear one with [corr|];
   both recover as the band's check. *)
let test_old_band_tags_recover () =
  let snap name repr =
    Wal.Sc
      {
        txn = 1;
        change =
          Wal.Sc_installed
            {
              Wal.sc_name = name;
              sc_table = "t";
              sc_absolute = true;
              sc_confidence = 1.0;
              sc_state = "active";
              sc_anchor = 0;
              sc_violations = 0;
              sc_repr = repr;
            };
      }
  in
  let h = Printf.sprintf "%h" in
  let records =
    [
      Wal.Begin { txn = 1 };
      Wal.Ddl
        {
          txn = 1;
          sql = "CREATE TABLE t (a FLOAT, b FLOAT, lo DATE, hi DATE)";
        };
      snap "diff_old"
        (Printf.sprintf "diff|t|hi|lo|3000|%s:%s:%s|%s:%s:%s" (h 1.0) (h 0.0)
           (h 21.0) (h 1.0) (h 0.0) (h 21.0));
      snap "corr_old"
        (Printf.sprintf "corr|t|a|b|%s|%s|%s|500|%s|%s:%s|%s:%s" (h 2.5)
           (h (-0.75)) (h 0.99) (h 0.01) (h 1.0) (h 0.375) (h 1.0) (h 0.375));
      Wal.Commit { txn = 1 };
    ]
  in
  let sdb = Core.Recovery.recover records in
  let recovered name =
    Core.Soft_constraint.check_pred
      (Option.get (Core.Sc_catalog.find (Core.Softdb.catalog sdb) name))
  in
  let declared sql =
    match
      Sqlfe.Parser.parse_statement
        ("ALTER TABLE t ADD CONSTRAINT c CHECK (" ^ sql ^ ") SOFT")
    with
    | Sqlfe.Ast.Alter_add_constraint
        { con = { Sqlfe.Ast.con_body = Icdef.Check p; _ }; _ } ->
        Some p
    | _ -> Alcotest.fail "expected a check"
  in
  check tbool "diff| recovers as its check" true
    (recovered "diff_old" = declared "hi - lo BETWEEN 0 AND 21");
  check tbool "corr| recovers as its check" true
    (recovered "corr_old"
    = declared "a BETWEEN 2.5 * b + -0.75 - 0.375 AND 2.5 * b + -0.75 + 0.375");
  check tbool "both are ASCs" true
    (List.for_all
       (fun n ->
         Core.Soft_constraint.is_usable
           (Option.get (Core.Sc_catalog.find (Core.Softdb.catalog sdb) n)))
       [ "diff_old"; "corr_old" ])

(* A NOT NULL SC is stored as the [ic|] line its codec writes, and a log
   holding one recovers it. *)
let test_not_null_sc_recovers () =
  let stmt = Core.Soft_constraint.Ic_stmt (Icdef.Not_null "a") in
  let records =
    [
      Wal.Begin { txn = 1 };
      Wal.Ddl { txn = 1; sql = "CREATE TABLE t (a INT, b INT)" };
      Wal.Sc
        {
          txn = 1;
          change =
            Wal.Sc_installed
              {
                Wal.sc_name = "a_present";
                sc_table = "t";
                sc_absolute = true;
                sc_confidence = 1.0;
                sc_state = "active";
                sc_anchor = 0;
                sc_violations = 0;
                sc_repr = Core.Sc_codec.statement_repr stmt;
              };
        };
      Wal.Commit { txn = 1 };
    ]
  in
  let sdb = Core.Recovery.recover records in
  match Core.Sc_catalog.find (Core.Softdb.catalog sdb) "a_present" with
  | Some sc ->
      check tbool "recovered as NOT NULL (a)" true
        (sc.Core.Soft_constraint.statement = stmt)
  | None -> Alcotest.fail "the NOT NULL SC was not recovered"

(* ---- shared fixture: a table, five rows, one check-shaped ASC ------------ *)

let fixture () =
  Obs.Fault.reset ();
  let sdb = Core.Softdb.create () in
  let wal = Wal.create_memory () in
  let link = Core.Recovery.attach sdb wal in
  ignore (Core.Softdb.exec sdb "CREATE TABLE t (a INT, b INT)");
  for i = 1 to 5 do
    ignore
      (Core.Softdb.exec sdb
         (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i (i * 2)))
  done;
  ignore
    (Core.Softdb.exec sdb
       "ALTER TABLE t ADD CONSTRAINT asc_b CHECK (b < 100) SOFT");
  Core.Recovery.flush link;
  (sdb, wal, link)

(* one explicit transaction that overturns the ASC and commits *)
let probe_commit sdb =
  let t = Core.Txn.begin_ sdb in
  ignore (Core.Softdb.exec sdb "INSERT INTO t VALUES (10, 500)");
  ignore (Core.Softdb.exec sdb "INSERT INTO t VALUES (11, 22)");
  Core.Txn.commit t

let rows_of sdb =
  let r = Core.Softdb.query_baseline sdb "SELECT a, b FROM t" in
  List.sort compare (List.map Tuple.to_list r.Exec.Executor.rows)

let pre_rows =
  List.init 5 (fun i -> [ Value.Int (i + 1); Value.Int ((i + 1) * 2) ])

let post_rows =
  List.sort compare
    (pre_rows @ [ [ Value.Int 10; Value.Int 500 ]; [ Value.Int 11; Value.Int 22 ] ])

let find_sc sdb name = Core.Sc_catalog.find (Core.Softdb.catalog sdb) name

(* ---- basic durability ---------------------------------------------------- *)

let test_recover_replays_committed_state () =
  let sdb, wal, link = fixture () in
  ignore (Core.Softdb.exec sdb "UPDATE t SET b = 99 WHERE a = 1");
  ignore (Core.Softdb.exec sdb "DELETE FROM t WHERE a = 5");
  Core.Recovery.flush link;
  let sdb2 = Core.Recovery.recover (Wal.records wal) in
  check tbool "rows identical" true (rows_of sdb = rows_of sdb2);
  let sc = Option.get (find_sc sdb2 "asc_b") in
  check tbool "ASC survives" true (Core.Soft_constraint.is_usable sc);
  Core.Recovery.detach link

let test_recover_skips_rolled_back_txn () =
  let sdb, wal, link = fixture () in
  let t = Core.Txn.begin_ sdb in
  ignore (Core.Softdb.exec sdb "INSERT INTO t VALUES (10, 500)");
  check tbool "overturned inside txn" false
    (Core.Soft_constraint.is_usable (Option.get (find_sc sdb "asc_b")));
  Core.Txn.rollback t;
  Core.Recovery.flush link;
  let sdb2 = Core.Recovery.recover (Wal.records wal) in
  check tbool "pre state" true (rows_of sdb2 = pre_rows);
  check tbool "ASC re-instated" true
    (Core.Soft_constraint.is_usable (Option.get (find_sc sdb2 "asc_b")));
  Core.Recovery.detach link

let test_recover_keeps_committed_overturn () =
  let sdb, wal, link = fixture () in
  probe_commit sdb;
  Core.Recovery.flush link;
  let sdb2 = Core.Recovery.recover (Wal.records wal) in
  check tbool "post state" true (rows_of sdb2 = post_rows);
  let sc = Option.get (find_sc sdb2 "asc_b") in
  check tbool "overturn durable" true
    (sc.Core.Soft_constraint.state = Core.Soft_constraint.Violated);
  check tbool "violated ASC out of the usable set" false
    (List.exists
       (fun s -> s.Core.Soft_constraint.name = "asc_b")
       (Core.Sc_catalog.usable (Core.Softdb.catalog sdb2)));
  Core.Recovery.detach link

(* Two databases in one process, each with its own WAL link: a
   transaction open on one does not block BEGIN on the other, and each
   rollback, commit and log frame stays with its own database. *)
let test_two_databases_interleave () =
  let a, wal_a, link_a = fixture () in
  let b, wal_b, link_b = fixture () in
  let ta = Core.Txn.begin_ a in
  ignore (Core.Softdb.exec a "INSERT INTO t VALUES (10, 500)");
  let tb = Core.Txn.begin_ b in
  check tint "ids count per database" (Core.Txn.id ta) (Core.Txn.id tb);
  ignore (Core.Softdb.exec b "INSERT INTO t VALUES (10, 500)");
  ignore (Core.Softdb.exec b "INSERT INTO t VALUES (11, 22)");
  Core.Txn.rollback ta;
  Core.Txn.commit tb;
  let usable sdb =
    Core.Soft_constraint.is_usable (Option.get (find_sc sdb "asc_b"))
  in
  check tbool "a: pre state" true (rows_of a = pre_rows);
  check tbool "a: ASC re-instated" true (usable a);
  check tbool "b: post state" true (rows_of b = post_rows);
  check tbool "b: overturn sticks" false (usable b);
  Core.Recovery.flush link_a;
  Core.Recovery.flush link_b;
  let count p wal = List.length (List.filter p (Wal.records wal)) in
  let abort = function Wal.Abort _ -> true | _ -> false in
  let logs_a n = function
    | Wal.Insert { row; _ } -> Tuple.get row 0 = Value.Int n
    | _ -> false
  in
  check tint "a's log aborts a's transaction" 1 (count abort wal_a);
  check tint "b's log aborts nothing" 0 (count abort wal_b);
  check tint "b's row only in b's log" 0 (count (logs_a 11) wal_a);
  check tint "b's log has b's row" 1 (count (logs_a 11) wal_b);
  let a2 = Core.Recovery.recover (Wal.records wal_a) in
  let b2 = Core.Recovery.recover (Wal.records wal_b) in
  check tbool "a's log replays a" true (rows_of a2 = pre_rows && usable a2);
  check tbool "b's log replays b" true
    (rows_of b2 = post_rows && not (usable b2));
  Core.Recovery.detach link_a;
  Core.Recovery.detach link_b

(* ---- replay cost ---------------------------------------------------------- *)

(* a log creating [t], then [n] autocommitted single-row inserts *)
let insert_log n =
  let ddl = "CREATE TABLE t (a INT, b INT)" in
  [
    Wal.Begin { txn = 1 };
    Wal.Ddl { txn = 1; sql = ddl };
    Wal.Commit { txn = 1 };
  ]
  @ List.concat
      (List.init n (fun i ->
           let txn = i + 2 in
           [
             Wal.Begin { txn };
             Wal.Insert
               {
                 txn;
                 table = "t";
                 rid = i;
                 row = [| Value.Int i; Value.Int (2 * i) |];
               };
             Wal.Commit { txn };
           ]))

(* CPU seconds of [recover records], the best of [runs] runs.  Stops
   early once even the best is over [above]: timing noise does not
   stretch a replay threefold past the bound, and a quadratic replay of
   the larger log takes most of a minute per run. *)
let replay_seconds ?(above = infinity) ~runs records =
  let once () =
    let t0 = Sys.time () in
    let sdb = Core.Recovery.recover records in
    let dt = Sys.time () -. t0 in
    ignore (Sys.opaque_identity sdb);
    dt
  in
  let rec best acc runs =
    if runs = 0 || acc > above then acc
    else best (Float.min acc (once ())) (runs - 1)
  in
  best (once ()) (runs - 1)

let test_replay_linear () =
  (* 8x the log must replay in about 8x the time; a replay that rebuilds
     the committed set per record takes about 64x or more *)
  let n = 1000 and bound = 24.0 in
  let small = Float.max (replay_seconds ~runs:5 (insert_log n)) 1e-6 in
  let large =
    replay_seconds ~runs:3 ~above:(3.0 *. bound *. small) (insert_log (8 * n))
  in
  let ratio = large /. small in
  check tbool
    (Printf.sprintf "8x log replays in %.1fx the time (%.4fs vs %.4fs)" ratio
       large small)
    true (ratio < bound);
  check tint "every insert replayed" n
    (Table.cardinality
       (Database.table_exn
          (Core.Softdb.db (Core.Recovery.recover (insert_log n)))
          "t"))

(* ---- the crash matrix (every registered fault point) --------------------- *)

let run_crashed_probe point =
  let sdb, wal, link = fixture () in
  Obs.Fault.arm point Obs.Fault.Crash;
  let crashed =
    try
      probe_commit sdb;
      false
    with Obs.Fault.Injected_crash _ -> true
  in
  Core.Recovery.kill link;
  Obs.Fault.reset ();
  (crashed, Core.Recovery.recover (Wal.records wal))

let test_crash_matrix () =
  (* a first fixture registers every fault point with the harness *)
  let _ = fixture () in
  let points = Obs.Fault.registered () in
  check tbool "matrix covers the fault points" true (List.length points >= 11);
  List.iter
    (fun pt ->
      let crashed, sdb2 = run_crashed_probe pt in
      let rows = rows_of sdb2 in
      let committed = rows = post_rows in
      (* atomicity: never a state in between *)
      check tbool (pt ^ ": pre or post state, nothing between") true
        (rows = pre_rows || committed);
      if not crashed then
        check tbool (pt ^ ": point unhit, so the probe committed") true
          committed;
      let sc = Option.get (find_sc sdb2 "asc_b") in
      if committed then begin
        check tbool (pt ^ ": committed overturn sticks") true
          (sc.Core.Soft_constraint.state = Core.Soft_constraint.Violated);
        check tbool (pt ^ ": violated ASC never re-enters the usable set")
          false
          (List.exists
             (fun s -> s.Core.Soft_constraint.name = "asc_b")
             (Core.Sc_catalog.usable (Core.Softdb.catalog sdb2)))
      end
      else
        check tbool (pt ^ ": uncommitted overturn re-instates the ASC") true
          (Core.Soft_constraint.is_usable sc))
    points;
  (* pin the headline points to their exact outcome *)
  let expect_pre pt =
    let crashed, sdb2 = run_crashed_probe pt in
    check tbool (pt ^ ": crashed") true crashed;
    check tbool (pt ^ ": pre state exactly") true (rows_of sdb2 = pre_rows)
  in
  expect_pre "txn.begin";
  expect_pre "wal.pre_commit";
  let crashed, sdb2 = run_crashed_probe "wal.post_commit" in
  check tbool "wal.post_commit: crashed" true crashed;
  check tbool "wal.post_commit: durable commit" true (rows_of sdb2 = post_rows)

let test_crash_during_rollback () =
  (* a crash in the middle of rollback: compensation never ran in memory,
     but the frame has no commit record, so recovery lands on pre-state
     with the ASC re-instated *)
  let sdb, wal, link = fixture () in
  Obs.Fault.arm "txn.rollback" Obs.Fault.Crash;
  let t = Core.Txn.begin_ sdb in
  ignore (Core.Softdb.exec sdb "INSERT INTO t VALUES (10, 500)");
  (try Core.Txn.rollback t with Obs.Fault.Injected_crash _ -> ());
  Core.Recovery.kill link;
  Obs.Fault.reset ();
  let sdb2 = Core.Recovery.recover (Wal.records wal) in
  check tbool "pre state" true (rows_of sdb2 = pre_rows);
  check tbool "ASC re-instated" true
    (Core.Soft_constraint.is_usable (Option.get (find_sc sdb2 "asc_b")))

(* ---- the other fault modes ----------------------------------------------- *)

let test_io_error_is_single_shot () =
  Obs.Fault.reset ();
  let path = Filename.temp_file "softdb_io" ".wal" in
  let sdb = Core.Softdb.create () in
  let wal = Wal.open_file path in
  let link = Core.Recovery.attach sdb wal in
  ignore (Core.Softdb.exec sdb "CREATE TABLE t (a INT, b INT)");
  Core.Recovery.flush link;
  Obs.Fault.arm "wal.io" Obs.Fault.Io_error;
  (match Core.Softdb.exec sdb "INSERT INTO t VALUES (1, 2)" with
  | exception Obs.Fault.Injected_io_error _ -> ()
  | _ -> Alcotest.fail "expected the injected I/O error");
  check tbool "hit counted" true (Obs.Fault.hits "wal.io" >= 1);
  (* the failure does not stop the world: the next statement logs fine *)
  ignore (Core.Softdb.exec sdb "INSERT INTO t VALUES (2, 4)");
  Core.Recovery.flush link;
  Obs.Fault.reset ();
  let sdb2 = Core.Recovery.recover (Wal.load_file path) in
  check tbool "surviving insert recovered" true
    (List.mem [ Value.Int 2; Value.Int 4 ] (rows_of sdb2));
  Core.Recovery.detach link;
  Wal.close wal;
  Sys.remove path

(* A log write that fails inside a transaction fails the statement, but
   the row it stored is still in the undo log: rollback removes it. *)
let test_failed_write_rolls_back () =
  Obs.Fault.reset ();
  let path = Filename.temp_file "softdb_io" ".wal" in
  let sdb = Core.Softdb.create () in
  let wal = Wal.open_file path in
  let link = Core.Recovery.attach sdb wal in
  ignore (Core.Softdb.exec sdb "CREATE TABLE t (a INT, b INT)");
  Core.Recovery.flush link;
  let t = Core.Txn.begin_ sdb in
  Obs.Fault.arm "wal.io" Obs.Fault.Io_error;
  (match Core.Softdb.exec sdb "INSERT INTO t VALUES (1, 2)" with
  | exception Obs.Fault.Injected_io_error _ -> ()
  | _ -> Alcotest.fail "expected the injected I/O error");
  check tint "the stored row is in the undo log" 1
    (Core.Txn.mutation_count t);
  Core.Txn.rollback t;
  check tbool "rolled back" true (rows_of sdb = []);
  Obs.Fault.reset ();
  Core.Recovery.detach link;
  Wal.close wal;
  Sys.remove path

let test_latency_counts_hits () =
  Obs.Fault.reset ();
  Obs.Fault.arm "wal.append" (Obs.Fault.Latency 0.001);
  let sdb, _, link = fixture () in
  ignore sdb;
  check tbool "latency point hit" true (Obs.Fault.hits "wal.append" > 0);
  Obs.Fault.disarm "wal.append";
  Obs.Fault.reset ();
  Core.Recovery.detach link

(* ---- checkpointing ------------------------------------------------------- *)

let test_checkpoint_roundtrip () =
  let sdb, wal, link = fixture () in
  probe_commit sdb;
  Core.Recovery.flush link;
  Core.Recovery.checkpoint link;
  ignore (Core.Softdb.exec sdb "INSERT INTO t VALUES (12, 24)");
  Core.Recovery.flush link;
  let sdb2 = Core.Recovery.recover (Wal.records wal) in
  check tbool "checkpoint + tail replayed" true
    (rows_of sdb2
    = List.sort compare ([ Value.Int 12; Value.Int 24 ] :: post_rows));
  let sc = Option.get (find_sc sdb2 "asc_b") in
  check tbool "violated state captured by checkpoint" true
    (sc.Core.Soft_constraint.state = Core.Soft_constraint.Violated);
  Core.Recovery.detach link

let test_checkpoint_rejected_inside_txn () =
  let sdb, _, link = fixture () in
  let t = Core.Txn.begin_ sdb in
  (match Core.Recovery.checkpoint link with
  | exception Core.Recovery.Recovery_error _ -> ()
  | () -> Alcotest.fail "checkpoint accepted inside a transaction");
  Core.Txn.rollback t;
  Core.Recovery.detach link

let test_checkpoint_crash_preserves_log () =
  Obs.Fault.reset ();
  let path = Filename.temp_file "softdb_ckpt" ".wal" in
  let sdb = Core.Softdb.create () in
  let wal = Wal.open_file path in
  let link = Core.Recovery.attach sdb wal in
  ignore (Core.Softdb.exec sdb "CREATE TABLE t (a INT, b INT)");
  ignore (Core.Softdb.exec sdb "INSERT INTO t VALUES (1, 2)");
  Core.Recovery.flush link;
  let before = Wal.load_file path in
  Obs.Fault.arm "wal.checkpoint" Obs.Fault.Crash;
  (try Core.Recovery.checkpoint link
   with Obs.Fault.Injected_crash _ -> ());
  Obs.Fault.reset ();
  (* the rename never happened: the original log is intact and recoverable *)
  let after = Wal.load_file path in
  check tint "log untouched" (List.length before) (List.length after);
  let sdb2 = Core.Recovery.recover after in
  check tbool "recoverable" true
    (rows_of sdb2 = [ [ Value.Int 1; Value.Int 2 ] ]);
  Core.Recovery.kill link;
  Wal.close wal;
  Sys.remove path;
  if Sys.file_exists (path ^ ".ckpt") then Sys.remove (path ^ ".ckpt")

(* ---- file sink resume (the CLI --wal path) ------------------------------- *)

let test_file_resume () =
  Obs.Fault.reset ();
  let path = Filename.temp_file "softdb_resume" ".wal" in
  Sys.remove path;
  let sdb, link, _ = Core.Recovery.resume path in
  ignore (Core.Softdb.exec sdb "CREATE TABLE t (a INT, b INT)");
  ignore (Core.Softdb.exec sdb "INSERT INTO t VALUES (1, 2)");
  ignore
    (Core.Softdb.exec sdb
       "ALTER TABLE t ADD CONSTRAINT asc_b CHECK (b < 100) SOFT");
  Core.Recovery.detach link;
  Wal.close (Core.Recovery.wal link);
  let sdb2, link2, _ = Core.Recovery.resume path in
  check tbool "state recovered" true
    (rows_of sdb2 = [ [ Value.Int 1; Value.Int 2 ] ]);
  check tbool "ASC recovered" true
    (Core.Soft_constraint.is_usable (Option.get (find_sc sdb2 "asc_b")));
  ignore (Core.Softdb.exec sdb2 "INSERT INTO t VALUES (2, 4)");
  Core.Recovery.detach link2;
  Wal.close (Core.Recovery.wal link2);
  let sdb3, link3, _ = Core.Recovery.resume path in
  check tint "appended across sessions" 2
    (List.length (rows_of sdb3));
  Core.Recovery.detach link3;
  Wal.close (Core.Recovery.wal link3);
  Sys.remove path

(* ---- exception tables across recovery ------------------------------------ *)

let exc_count sdb =
  Table.cardinality (Database.table_exn (Core.Softdb.db sdb) "late_exc")

let violating_purchase_insert =
  "INSERT INTO purchase VALUES (900001, 1, DATE '1999-01-05', DATE \
   '1999-06-15', 100.0, 3, 'north')"

let test_exception_table_ddl_replay () =
  (* exception table created after the checkpoint: recovery re-executes
     the CREATE EXCEPTION TABLE statement and re-populates it from the
     replayed base table *)
  Obs.Fault.reset ();
  let sdb = Core.Softdb.create () in
  Workload.Purchase.load
    ~config:{ Workload.Purchase.default_config with rows = 800 }
    (Core.Softdb.db sdb);
  let wal = Wal.create_memory () in
  let link = Core.Recovery.attach sdb wal in
  Core.Recovery.checkpoint link;
  ignore
    (Core.Softdb.exec sdb
       "ALTER TABLE purchase ADD CONSTRAINT ship_3w CHECK (ship_date - \
        order_date BETWEEN 0 AND 21) SOFT");
  ignore
    (Core.Softdb.exec sdb
       "CREATE EXCEPTION TABLE late_exc FOR CONSTRAINT ship_3w");
  Core.Recovery.flush link;
  let sdb2 = Core.Recovery.recover (Wal.records wal) in
  check tint "same exceptions" (exc_count sdb) (exc_count sdb2);
  check tbool "registration recovered" true
    (Core.Sc_catalog.exception_table_for (Core.Softdb.catalog sdb2) "ship_3w"
    = Some "late_exc");
  Core.Recovery.detach link

let test_exception_table_reattach () =
  (* exception table inside the checkpoint image: recovery must re-attach
     (rows come from the log; re-populating would duplicate them) and the
     maintenance listener must keep working afterwards *)
  Obs.Fault.reset ();
  let sdb = Core.Softdb.create () in
  Workload.Purchase.load
    ~config:{ Workload.Purchase.default_config with rows = 800 }
    (Core.Softdb.db sdb);
  let wal = Wal.create_memory () in
  let link = Core.Recovery.attach sdb wal in
  ignore
    (Core.Softdb.exec sdb
       "ALTER TABLE purchase ADD CONSTRAINT ship_3w CHECK (ship_date - \
        order_date BETWEEN 0 AND 21) SOFT");
  ignore
    (Core.Softdb.exec sdb
       "CREATE EXCEPTION TABLE late_exc FOR CONSTRAINT ship_3w");
  Core.Recovery.checkpoint link;
  let n = exc_count sdb in
  let sdb2 = Core.Recovery.recover (Wal.records wal) in
  check tint "no duplicated exceptions" n (exc_count sdb2);
  (* the re-attached listener still routes new violators *)
  ignore (Core.Softdb.exec sdb2 violating_purchase_insert);
  check tint "listener live after reattach" (n + 1) (exc_count sdb2);
  Core.Recovery.detach link

(* ---- guarded execution (§4.1 flag-and-revert) ---------------------------- *)

let band_fixture () =
  Obs.Fault.reset ();
  let sdb = Core.Softdb.create () in
  Workload.Purchase.load
    ~config:
      { Workload.Purchase.default_config with rows = 3000; late_fraction = 0.0 }
    (Core.Softdb.db sdb);
  Core.Softdb.runstats sdb;
  let tbl = Database.table_exn (Core.Softdb.db sdb) "purchase" in
  let d =
    Option.get
      (Mining.Diff_band.mine tbl ~col_hi:"ship_date" ~col_lo:"order_date")
  in
  let b100 = Option.get (Mining.Diff_band.band_with d ~confidence:1.0) in
  Core.Softdb.install_sc sdb
    (Core.Soft_constraint.make ~name:"band" ~table:"purchase"
       ~kind:Core.Soft_constraint.Absolute
       ~installed_at_mutations:(Table.mutations tbl)
       (Core.Soft_constraint.Diff_stmt (d, b100)));
  sdb

let test_guarded_plan_falls_back () =
  let sdb = band_fixture () in
  let sql = Workload.Queries.purchase_ship_eq (Date.of_ymd 1999 6 15) in
  let query = Sqlfe.Parser.parse_query_string sql in
  let report = Core.Softdb.optimize sdb query in
  check tbool "plan is guarded by the band" true
    (List.mem "band" report.Opt.Explain.guards);
  check tbool "backup plan compiled" true
    (report.Opt.Explain.backup_plan <> None);
  let metric () =
    Obs.Metrics.counter (Core.Softdb.metrics sdb) "sc_guard_fallbacks"
  in
  let r0, fb0 = Core.Softdb.execute_report sdb report in
  check tbool "guards valid: fast plan" false fb0;
  check tbool "fast plan correct" true
    (Exec.Executor.same_rows (Core.Softdb.query_baseline sdb sql) r0);
  let before = metric () in
  (* overturn the guarding ASC between planning and execution: the fast
     plan's introduced range would miss the January order below *)
  ignore (Core.Softdb.exec sdb violating_purchase_insert);
  check tbool "guard invalid now" false (Core.Softdb.guard_ok sdb "band");
  let r1, fb1 = Core.Softdb.execute_report sdb report in
  check tbool "degraded to the backup plan" true fb1;
  check tint "fallback counted" (before + 1) (metric ());
  check tbool "identical results via backup" true
    (Exec.Executor.same_rows (Core.Softdb.query_baseline sdb sql) r1);
  check tbool "new row visible" true
    (List.exists
       (fun row -> Tuple.get row 0 = Value.Int 900001)
       r1.Exec.Executor.rows)

let test_violated_asc_out_of_rewrites_after_recovery () =
  (* committed overturn: after recovery the band must not re-enter the
     rewrite set; uncommitted overturn: it must *)
  let sql = Workload.Queries.purchase_ship_eq (Date.of_ymd 1999 6 15) in
  let cites_band sdb =
    List.exists
      (fun a -> a.Opt.Rewrite.sc = Some "band")
      (Core.Softdb.explain sdb sql).Opt.Explain.applied
  in
  (* A: the overturning statement committed *)
  let sdb = band_fixture () in
  let wal = Wal.create_memory () in
  let link = Core.Recovery.attach sdb wal in
  Core.Recovery.checkpoint link;
  check tbool "band cited before overturn" true (cites_band sdb);
  ignore (Core.Softdb.exec sdb violating_purchase_insert);
  Core.Recovery.flush link;
  let sdb2 = Core.Recovery.recover (Wal.records wal) in
  Core.Softdb.runstats sdb2;
  check tbool "A: overturn durable" true
    ((Option.get (find_sc sdb2 "band")).Core.Soft_constraint.state
    = Core.Soft_constraint.Violated);
  check tbool "A: violated band never re-enters rewrites" false
    (cites_band sdb2);
  check tbool "A: answers still sound" true
    (Exec.Executor.same_rows
       (Core.Softdb.query_baseline sdb2 sql)
       (Core.Softdb.query sdb2 sql));
  Core.Recovery.detach link;
  (* B: the overturning transaction crashed before its commit record *)
  let sdb = band_fixture () in
  let wal = Wal.create_memory () in
  let link = Core.Recovery.attach sdb wal in
  Core.Recovery.checkpoint link;
  let t = Core.Txn.begin_ sdb in
  ignore (Core.Softdb.exec sdb violating_purchase_insert);
  Obs.Fault.arm "wal.pre_commit" Obs.Fault.Crash;
  (try Core.Txn.commit t with Obs.Fault.Injected_crash _ -> ());
  Core.Recovery.kill link;
  Obs.Fault.reset ();
  let sdb3 = Core.Recovery.recover (Wal.records wal) in
  Core.Softdb.runstats sdb3;
  check tbool "B: ASC re-instated" true
    (Core.Soft_constraint.is_usable (Option.get (find_sc sdb3 "band")));
  check tbool "B: band back in the rewrite set" true (cites_band sdb3);
  check tbool "B: crashed row absent" false
    (List.exists
       (fun row -> Tuple.get row 0 = Value.Int 900001)
       (Core.Softdb.query_baseline sdb3 "SELECT * FROM purchase")
         .Exec.Executor.rows)

(* A FLOAT bound that sync repair widened must come back from the log with
   every digit: printed with six, the recovered ASC would exclude the row
   that widened it, and a query the ASC proves empty would lose it. *)
let test_widened_float_bound_recovers () =
  Obs.Fault.reset ();
  let sdb = Core.Softdb.create () in
  let wal = Wal.create_memory () in
  let link = Core.Recovery.attach sdb wal in
  List.iter
    (fun sql -> ignore (Core.Softdb.exec sdb sql))
    [
      "CREATE TABLE f (id INT, x FLOAT)";
      "INSERT INTO f VALUES (1, 5.5)";
      "ALTER TABLE f ADD CONSTRAINT x_band CHECK (x BETWEEN 0 AND 10) SOFT";
    ];
  Core.Maintenance.set_policy (Core.Softdb.maintenance sdb) "x_band"
    Core.Maintenance.Sync_repair;
  ignore (Core.Softdb.exec sdb "INSERT INTO f VALUES (2, 10.12344)");
  Core.Recovery.flush link;
  let sql = "SELECT id FROM f WHERE x > 10.12341" in
  let ids sdb =
    List.map Tuple.to_list (Core.Softdb.query sdb sql).Exec.Executor.rows
  in
  check tbool "live: the widening row answers" true
    (ids sdb = [ [ Value.Int 2 ] ]);
  let sdb2 = Core.Recovery.recover (Wal.records wal) in
  let sc = Option.get (find_sc sdb2 "x_band") in
  check tbool "recovered ASC active" true (Core.Soft_constraint.is_usable sc);
  check tbool "recovered check equals the live one" true
    (sc.Core.Soft_constraint.statement
    = (Option.get (find_sc sdb "x_band")).Core.Soft_constraint.statement);
  check tbool "recovered: the widening row still answers" true
    (ids sdb2 = [ [ Value.Int 2 ] ]);
  Core.Recovery.detach link

(* ---- Txn.rollback collects listener failures (satellite b) --------------- *)

let test_rollback_incomplete_keeps_compensating () =
  Obs.Fault.reset ();
  let sdb = Core.Softdb.create () in
  ignore (Core.Softdb.exec sdb "CREATE TABLE t (a INT)");
  ignore (Core.Softdb.exec sdb "CREATE TABLE u (a INT)");
  let t = Core.Txn.begin_ sdb in
  ignore (Core.Softdb.exec sdb "INSERT INTO u VALUES (1)");
  ignore (Core.Softdb.exec sdb "INSERT INTO t VALUES (1)");
  (* dropping t makes its compensating delete impossible; the rollback
     must still undo u's insert and report the failure *)
  ignore (Core.Softdb.exec sdb "DROP TABLE t");
  (match Core.Txn.rollback t with
  | exception Core.Txn.Rollback_incomplete errors ->
      check tbool "failures collected" true (List.length errors >= 1)
  | () -> Alcotest.fail "expected Rollback_incomplete");
  check tint "u compensated anyway" 0
    (Table.cardinality (Database.table_exn (Core.Softdb.db sdb) "u"))

(* ---- the salvage matrix (line headers: CRC + LSN, torn tails, bit flips) - *)

let read_bytes p = In_channel.with_open_bin p In_channel.input_all

let cleanup_wal path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; path ^ ".salvage"; path ^ ".ckpt" ]

(* a real file-sink WAL holding the shared fixture's committed state *)
let file_fixture () =
  Obs.Fault.reset ();
  let path = Filename.temp_file "softdb_salvage" ".wal" in
  Sys.remove path;
  let sdb, link, _ = Core.Recovery.resume path in
  ignore (Core.Softdb.exec sdb "CREATE TABLE t (a INT, b INT)");
  for i = 1 to 5 do
    ignore
      (Core.Softdb.exec sdb
         (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i (i * 2)))
  done;
  ignore
    (Core.Softdb.exec sdb
       "ALTER TABLE t ADD CONSTRAINT asc_b CHECK (b < 100) SOFT");
  Core.Recovery.flush link;
  (sdb, link, path)

(* run the overturning probe with a write fault armed at [point]; freeze
   the log at the crash instant (partial bytes included) and return the
   path *)
let torn_probe ~point ~after mode =
  let sdb, link, path = file_fixture () in
  Obs.Fault.arm ~after point mode;
  (try probe_commit sdb with Obs.Fault.Injected_crash _ -> ());
  Core.Recovery.kill link;
  Wal.close (Core.Recovery.wal link);
  Obs.Fault.reset ();
  path

let recovery_row sdb =
  match
    (Core.Softdb.query_baseline sdb
       "SELECT mode, torn_tail, dropped_txns, corrupt_lines FROM sys.recovery")
      .Exec.Executor.rows
  with
  | [ row ] -> Tuple.to_list row
  | rows -> Alcotest.failf "sys.recovery has %d rows" (List.length rows)

let test_v2_line_codec () =
  List.iteri
    (fun i r ->
      let line = Wal.line_of_record ~lsn:(i + 1) r in
      (match Wal.parse_line line with
      | Ok (lsn, r') ->
          check tint "lsn roundtrip" (i + 1) lsn;
          check tbool "record roundtrip" true (r' = r)
      | Error m -> Alcotest.failf "line rejected: %s" m);
      (* a payload without its header is not a log line *)
      (match Wal.parse_line (Wal.record_to_line r) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "headerless payload accepted: %S" line);
      (* any single corrupted byte must be caught *)
      let b = Bytes.of_string line in
      let pos = String.length line / 2 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
      match Wal.parse_line (Bytes.to_string b) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "flipped byte accepted in %S" line)
    codec_records

let test_torn_tail_mid_record () =
  (* the tear hits the probe's first data record: everything before the
     tear replays byte-identically, the tail is quarantined *)
  let path = torn_probe ~point:"wal.io" ~after:1 (Obs.Fault.Torn_write 10) in
  let torn = read_bytes path in
  let untorn = Core.Recovery.recover (Wal.scan_string (read_bytes path)
                                      |> List.filter_map (fun (s : Wal.scanned) ->
                                             match s.Wal.parsed with
                                             | Ok (_, r) -> Some r
                                             | Error _ -> None)) in
  let sdb2, report = Core.Recovery.recover_file path in
  check tbool "pre state (probe txn torn away)" true (rows_of sdb2 = pre_rows);
  check tbool "identical to clean-prefix replay" true
    (rows_of sdb2 = rows_of untorn);
  check tbool "torn tail flagged" true report.Core.Recovery.torn_tail;
  check tbool "bytes quarantined" true
    (report.Core.Recovery.quarantined_bytes > 0);
  check tbool "salvage file written" true
    (Sys.file_exists (path ^ ".salvage"));
  check tbool "no dropped txns (tail was uncommitted)" true
    (report.Core.Recovery.dropped_txns = []);
  (* the truncated log is the torn one cut at the tear, and clean: a
     second, strict pass replays equal *)
  let repaired = read_bytes path in
  check tbool "cut at the tear, byte for byte" true
    (String.length repaired < String.length torn
    && String.sub torn 0 (String.length repaired) = repaired);
  let sdb3 = Core.Recovery.recover (Wal.load_file path) in
  check tbool "repaired log replays equal" true (rows_of sdb3 = rows_of sdb2);
  (match recovery_row sdb2 with
  | [ Value.String "strict"; Value.Bool true; _; Value.Int c ] ->
      check tbool "corrupt line counted" true (c >= 1)
  | row ->
      Alcotest.failf "unexpected sys.recovery row: %s"
        (String.concat "," (List.map Value.to_string row)));
  cleanup_wal path

let test_torn_tail_mid_commit () =
  (* Begin + both inserts land; the commit record itself is torn: the
     frame never committed, recovery lands on pre-state *)
  let path = torn_probe ~point:"wal.io" ~after:3 (Obs.Fault.Torn_write 7) in
  let sdb2, report = Core.Recovery.recover_file path in
  check tbool "pre state" true (rows_of sdb2 = pre_rows);
  check tbool "torn tail flagged" true report.Core.Recovery.torn_tail;
  check tbool "ASC re-instated" true
    (Core.Soft_constraint.is_usable (Option.get (find_sc sdb2 "asc_b")));
  (* the quarantine holds the torn bytes *)
  let salvaged = read_bytes (path ^ ".salvage") in
  check tbool "quarantine non-empty" true (String.length salvaged > 0);
  cleanup_wal path

let test_torn_checkpoint_preserves_log () =
  (* a torn write inside the checkpoint rewrite dies before the rename:
     the original log survives untouched *)
  let sdb, link, path = file_fixture () in
  probe_commit sdb;
  Core.Recovery.flush link;
  let before = read_bytes path in
  Obs.Fault.arm "wal.checkpoint" (Obs.Fault.Torn_write 12);
  (match Core.Recovery.checkpoint link with
  | exception Obs.Fault.Injected_crash _ -> ()
  | () -> Alcotest.fail "expected the torn checkpoint to crash");
  Core.Recovery.kill link;
  Wal.close (Core.Recovery.wal link);
  Obs.Fault.reset ();
  check tbool "log bytes untouched" true (read_bytes path = before);
  let sdb2, report = Core.Recovery.recover_file path in
  check tbool "post state recovered" true (rows_of sdb2 = post_rows);
  check tbool "no tear in the log itself" false report.Core.Recovery.torn_tail;
  cleanup_wal path

let test_bit_flip_before_last_commit () =
  (* silent corruption of a mid-transaction record, then the commit
     lands: interior corruption.  Strict refuses; salvage drops exactly
     that transaction and reports it. *)
  let sdb, link, path = file_fixture () in
  Obs.Fault.arm ~after:1 "wal.io" (Obs.Fault.Bit_flip 5);
  probe_commit sdb;
  Core.Recovery.detach link;
  Wal.close (Core.Recovery.wal link);
  Obs.Fault.reset ();
  (match Core.Recovery.recover_file path with
  | exception Core.Recovery.Recovery_error _ -> ()
  | _ -> Alcotest.fail "strict mode accepted interior corruption");
  let sdb2, report =
    Core.Recovery.recover_file ~mode:Core.Recovery.Salvage path
  in
  check tbool "affected txn dropped" true
    (List.length report.Core.Recovery.dropped_txns = 1);
  check tbool "pre state (probe dropped whole)" true (rows_of sdb2 = pre_rows);
  check tbool "interior, not torn" false report.Core.Recovery.torn_tail;
  check tbool "corrupt line quarantined" true
    (Sys.file_exists (path ^ ".salvage"));
  (* the rewritten log replays to exactly the salvaged state, strictly *)
  let sdb3 = Core.Recovery.recover (Wal.load_file path) in
  check tbool "repaired log replays equal" true (rows_of sdb3 = rows_of sdb2);
  (match recovery_row sdb2 with
  | [ Value.String "salvage"; Value.Bool false; Value.String dropped; _ ] ->
      check tbool "dropped txn listed" true (String.length dropped > 0)
  | row ->
      Alcotest.failf "unexpected sys.recovery row: %s"
        (String.concat "," (List.map Value.to_string row)));
  cleanup_wal path

let test_bit_flip_after_last_commit () =
  (* the flipped record belongs to a transaction that never committed:
     corruption strictly after the last committed frame is a torn tail,
     salvaged even in strict mode *)
  let sdb, link, path = file_fixture () in
  Obs.Fault.arm ~after:1 "wal.io" (Obs.Fault.Bit_flip 9);
  ignore (Core.Txn.begin_ sdb);
  ignore (Core.Softdb.exec sdb "INSERT INTO t VALUES (10, 500)");
  Core.Recovery.kill link;
  Wal.close (Core.Recovery.wal link);
  Obs.Fault.reset ();
  let sdb2, report = Core.Recovery.recover_file path in
  check tbool "pre state" true (rows_of sdb2 = pre_rows);
  check tbool "classified as torn tail" true report.Core.Recovery.torn_tail;
  check tbool "nothing dropped" true (report.Core.Recovery.dropped_txns = []);
  cleanup_wal path

let test_lsn_regression_detected () =
  (* a stale line spliced onto the tail (duplicated LSN) is corruption
     even though its checksum is fine *)
  let _, link, path = file_fixture () in
  Core.Recovery.detach link;
  Wal.close (Core.Recovery.wal link);
  let raw = read_bytes path in
  let lines = String.split_on_char '\n' raw in
  let dup = List.nth lines 2 in
  Out_channel.with_open_gen
    [ Open_append; Open_binary ] 0o644 path
    (fun oc -> Out_channel.output_string oc (dup ^ "\n"));
  let sdb2, report = Core.Recovery.recover_file path in
  check tbool "spliced line cut as torn tail" true
    report.Core.Recovery.torn_tail;
  check tbool "fixture state intact" true (rows_of sdb2 = pre_rows);
  check tbool "reason names the regression" true
    (List.exists
       (fun (c : Core.Recovery.corrupt_line) ->
         String.length c.Core.Recovery.reason >= 3)
       report.Core.Recovery.corrupt);
  cleanup_wal path

(* A data record whose row arity is negative or absurdly large must be a
   corrupt line, not an allocation failure: salvage classifies only
   parse errors, so anything else would take recovery down. *)
let test_corrupt_row_arity_quarantined () =
  (* a header with a valid checksum, so only the payload is at fault *)
  let headered lsn payload =
    let lsn_s = string_of_int lsn in
    "L" ^ lsn_s ^ "\t"
    ^ Crc32.to_hex (Crc32.string (lsn_s ^ "\t" ^ payload))
    ^ "\t" ^ payload
  in
  List.iter
    (fun arity ->
      let bad txn = Printf.sprintf "I\t%d\tt\t3\t%s" txn arity in
      (match Wal.parse_line (headered 1 (bad 1)) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" (bad 1));
      (* the fixture, then the probe transaction with the bad record
         right after its Begin *)
      let sdb, wal, _ = fixture () in
      probe_commit sdb;
      let records = Wal.records wal in
      let probe =
        List.fold_left
          (fun acc r -> match r with Wal.Begin { txn } -> txn | _ -> acc)
          0 records
      in
      let path = Filename.temp_file "softdb_arity" ".wal" in
      let lsn = ref 0 in
      Out_channel.with_open_bin path (fun oc ->
          let line payload =
            incr lsn;
            output_string oc (headered !lsn payload ^ "\n")
          in
          List.iter
            (fun r ->
              line (Wal.record_to_line r);
              match r with
              | Wal.Begin { txn } when txn = probe -> line (bad txn)
              | _ -> ())
            records);
      let sdb2, report =
        Core.Recovery.recover_file ~mode:Core.Recovery.Salvage path
      in
      check tint "one corrupt line" 1
        (List.length report.Core.Recovery.corrupt);
      check tbool "probe txn dropped" true
        (report.Core.Recovery.dropped_txns = [ probe ]);
      check tbool "pre state" true (rows_of sdb2 = pre_rows);
      check tbool "line quarantined" true
        (Sys.file_exists (path ^ ".salvage"));
      cleanup_wal path)
    [ "-1"; "4611686018427387903" ]

let test_scan_salvage_matches_file () =
  (* salvage drops exactly the transaction open across the corrupt line;
     a later autocommit survives *)
  let sdb, link, path = file_fixture () in
  Obs.Fault.arm ~after:1 "wal.io" (Obs.Fault.Bit_flip 5);
  probe_commit sdb;
  ignore (Core.Softdb.exec sdb "INSERT INTO t VALUES (20, 40)");
  Core.Recovery.detach link;
  Wal.close (Core.Recovery.wal link);
  Obs.Fault.reset ();
  let file, report =
    Core.Recovery.recover_file ~mode:Core.Recovery.Salvage path
  in
  check tint "one txn dropped" 1
    (List.length report.Core.Recovery.dropped_txns);
  check tbool "later autocommit survives the drop" true
    (List.mem [ Value.Int 20; Value.Int 40 ] (rows_of file));
  cleanup_wal path

(* [resume] opens the log from recovery's own scan of it: a statement
   committed afterwards must extend the file's numbering, whatever repair
   came first — a stale or empty scan would restart the LSNs (a strict
   re-read then finds a regression) or reuse a transaction id *)
let resume_then_commit ?mode path =
  let sdb, link, _ = Core.Recovery.resume ?mode path in
  let txn_hi =
    List.fold_left (fun m r -> max m (Wal.txn_of r)) 0 (Wal.load_file path)
  in
  ignore (Core.Softdb.exec sdb "INSERT INTO t VALUES (30, 60)");
  Core.Recovery.detach link;
  Wal.close (Core.Recovery.wal link);
  let sdb2, report = Core.Recovery.recover_file path in
  check tint "no corrupt line" 0 (List.length report.Core.Recovery.corrupt);
  check tbool "new row recovered" true
    (List.mem [ Value.Int 30; Value.Int 60 ] (rows_of sdb2));
  let new_txn =
    List.find_map
      (function
        | Wal.Insert { txn; row; _ } when row.(0) = Value.Int 30 -> Some txn
        | _ -> None)
      (Wal.load_file path)
  in
  check tbool "new txn id above the log's" true
    (match new_txn with Some txn -> txn > txn_hi | None -> false)

let test_resume_continues_numbering () =
  (* a clean log *)
  let _, link, path = file_fixture () in
  Core.Recovery.detach link;
  Wal.close (Core.Recovery.wal link);
  resume_then_commit path;
  cleanup_wal path;
  (* a torn tail, truncated by the resume *)
  let path = torn_probe ~point:"wal.io" ~after:1 (Obs.Fault.Torn_write 10) in
  resume_then_commit path;
  cleanup_wal path;
  (* interior corruption, rewritten by a salvage-mode resume *)
  let sdb, link, path = file_fixture () in
  Obs.Fault.arm ~after:1 "wal.io" (Obs.Fault.Bit_flip 5);
  probe_commit sdb;
  Core.Recovery.detach link;
  Wal.close (Core.Recovery.wal link);
  Obs.Fault.reset ();
  resume_then_commit ~mode:Core.Recovery.Salvage path;
  cleanup_wal path

(* ---- recovery edge cases -------------------------------------------------- *)

let test_zero_length_log () =
  let path = Filename.temp_file "softdb_empty" ".wal" in
  let sdb, report = Core.Recovery.recover_file path in
  check tint "nothing scanned" 0 report.Core.Recovery.scanned_lines;
  check tbool "no tear" false report.Core.Recovery.torn_tail;
  check tbool "fresh database" true
    (Database.table_names (Core.Softdb.db sdb) = []);
  (* resume on the same empty file works and can write *)
  let sdb2, link, _ = Core.Recovery.resume path in
  ignore (Core.Softdb.exec sdb2 "CREATE TABLE t (a INT)");
  Core.Recovery.detach link;
  Wal.close (Core.Recovery.wal link);
  cleanup_wal path

let test_log_ends_at_commit_boundary () =
  (* the file's last line is a commit record: nothing to salvage, every
     committed frame replays *)
  let sdb, link, path = file_fixture () in
  probe_commit sdb;
  Core.Recovery.flush link;
  Core.Recovery.detach link;
  Wal.close (Core.Recovery.wal link);
  let raw = read_bytes path in
  check tbool "fixture ends in newline" true
    (raw.[String.length raw - 1] = '\n');
  let sdb2, report = Core.Recovery.recover_file path in
  check tbool "post state" true (rows_of sdb2 = post_rows);
  check tbool "clean" true
    ((not report.Core.Recovery.torn_tail)
    && report.Core.Recovery.corrupt = []);
  check tbool "commit count positive" true
    (report.Core.Recovery.committed_txns > 0);
  cleanup_wal path

let test_ckpt_present_empty_tail () =
  (* a leftover .ckpt sibling (crashed checkpoint) next to a log
     truncated to zero: recovery of the log itself succeeds empty and
     never reads the sibling *)
  let _, link, path = file_fixture () in
  Core.Recovery.detach link;
  Wal.close (Core.Recovery.wal link);
  let raw = read_bytes path in
  Out_channel.with_open_bin (path ^ ".ckpt") (fun oc ->
      Out_channel.output_string oc raw);
  Out_channel.with_open_bin path (fun _ -> ());
  let sdb2, report = Core.Recovery.recover_file path in
  check tint "empty tail scanned" 0 report.Core.Recovery.scanned_lines;
  check tbool "sibling ignored" true
    (Database.table_names (Core.Softdb.db sdb2) = []);
  check tbool "ckpt sibling still on disk" true
    (Sys.file_exists (path ^ ".ckpt"));
  cleanup_wal path

(* A commit whose bytes never reach the OS must not be acknowledged, and
   nothing may be appended on top of a log whose tail is unknown.
   /dev/full takes writes into the channel buffer and fails the flush. *)
let test_failed_flush_refuses_commit () =
  if Sys.file_exists "/dev/full" then begin
    Obs.Fault.reset ();
    let wal = Wal.open_scanned "/dev/full" [] in
    Wal.append wal (Wal.Begin { txn = 1 });
    (match Wal.commit wal 1 with
    | exception Wal.Wal_error _ -> ()
    | () -> Alcotest.fail "a commit that failed to flush was acknowledged");
    (match Wal.append wal (Wal.Begin { txn = 2 }) with
    | exception Wal.Wal_error _ -> ()
    | () -> Alcotest.fail "the log stayed open after a failed flush");
    Wal.close wal
  end

(* A file that does not start like a log is refused in both modes and
   left byte-identical: the torn-tail rule would otherwise quarantine all
   of it.  A first write torn to just "L" is still a log. *)
let test_non_log_refused () =
  let headerless =
    String.concat ""
      (List.map (fun r -> Wal.record_to_line r ^ "\n") codec_records)
  in
  List.iter
    (fun (what, contents) ->
      let path = Filename.temp_file "softdb_notlog" ".wal" in
      Out_channel.with_open_bin path (fun oc -> output_string oc contents);
      List.iter
        (fun mode ->
          (match Core.Recovery.recover_file ~mode path with
          | exception Core.Recovery.Recovery_error _ -> ()
          | _ -> Alcotest.failf "%s recovered" what);
          (match Core.Recovery.resume ~mode path with
          | exception Core.Recovery.Recovery_error _ -> ()
          | _ -> Alcotest.failf "%s resumed" what);
          check tbool (what ^ " byte-identical") true
            (read_bytes path = contents);
          check tbool (what ^ ": no salvage file") false
            (Sys.file_exists (path ^ ".salvage")))
        [ Core.Recovery.Strict; Core.Recovery.Salvage ];
      cleanup_wal path)
    [
      ("text file", "meeting notes\nLunch at noon\n");
      ("headerless log", headerless);
    ];
  let path = Filename.temp_file "softdb_torn_l" ".wal" in
  Out_channel.with_open_bin path (fun oc -> output_string oc "L");
  let _, report = Core.Recovery.recover_file path in
  check tbool "a first write torn to \"L\" is a torn tail" true
    report.Core.Recovery.torn_tail;
  check tint "the tear is truncated away" 0 (String.length (read_bytes path));
  cleanup_wal path

(* -------------------------------------------------------------------------- *)

let () =
  Alcotest.run "recovery"
    [
      ( "wal",
        [
          Alcotest.test_case "line roundtrip" `Quick test_wal_line_roundtrip;
          Alcotest.test_case "corrupt lines rejected" `Quick
            test_wal_corrupt_line_rejected;
          Alcotest.test_case "sc codec roundtrip" `Quick
            test_sc_codec_roundtrip;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 33 |])
            codec_roundtrip_prop;
          Alcotest.test_case "old diff| and corr| lines recover" `Quick
            test_old_band_tags_recover;
          Alcotest.test_case "a NOT NULL SC recovers" `Quick
            test_not_null_sc_recovers;
        ] );
      ( "replay",
        [
          Alcotest.test_case "committed state" `Quick
            test_recover_replays_committed_state;
          Alcotest.test_case "rolled-back txn skipped" `Quick
            test_recover_skips_rolled_back_txn;
          Alcotest.test_case "committed overturn kept" `Quick
            test_recover_keeps_committed_overturn;
          Alcotest.test_case "two databases interleave" `Quick
            test_two_databases_interleave;
          Alcotest.test_case "linear in log length" `Quick test_replay_linear;
        ] );
      ( "crash_matrix",
        [
          Alcotest.test_case "every fault point" `Quick test_crash_matrix;
          Alcotest.test_case "crash during rollback" `Quick
            test_crash_during_rollback;
          Alcotest.test_case "io error single shot" `Quick
            test_io_error_is_single_shot;
          Alcotest.test_case "failed write rolls back" `Quick
            test_failed_write_rolls_back;
          Alcotest.test_case "latency counts hits" `Quick
            test_latency_counts_hits;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "rejected inside txn" `Quick
            test_checkpoint_rejected_inside_txn;
          Alcotest.test_case "crash preserves log" `Quick
            test_checkpoint_crash_preserves_log;
          Alcotest.test_case "file resume" `Quick test_file_resume;
          Alcotest.test_case "resume continues numbering" `Quick
            test_resume_continues_numbering;
        ] );
      ( "exceptions",
        [
          Alcotest.test_case "ddl replay repopulates" `Quick
            test_exception_table_ddl_replay;
          Alcotest.test_case "checkpoint reattaches" `Quick
            test_exception_table_reattach;
        ] );
      ( "guards",
        [
          Alcotest.test_case "stale plan falls back" `Quick
            test_guarded_plan_falls_back;
          Alcotest.test_case "violated ASC out of rewrites after recovery"
            `Quick test_violated_asc_out_of_rewrites_after_recovery;
          Alcotest.test_case "widened FLOAT bound recovers every digit"
            `Quick test_widened_float_bound_recovers;
        ] );
      ( "txn",
        [
          Alcotest.test_case "rollback incomplete keeps compensating" `Quick
            test_rollback_incomplete_keeps_compensating;
        ] );
      ( "salvage",
        [
          Alcotest.test_case "v2 line codec" `Quick test_v2_line_codec;
          Alcotest.test_case "torn tail mid-record" `Quick
            test_torn_tail_mid_record;
          Alcotest.test_case "torn tail mid-commit" `Quick
            test_torn_tail_mid_commit;
          Alcotest.test_case "torn checkpoint preserves log" `Quick
            test_torn_checkpoint_preserves_log;
          Alcotest.test_case "bit flip before last commit" `Quick
            test_bit_flip_before_last_commit;
          Alcotest.test_case "bit flip after last commit" `Quick
            test_bit_flip_after_last_commit;
          Alcotest.test_case "lsn regression" `Quick
            test_lsn_regression_detected;
          Alcotest.test_case "scan salvage matches file salvage" `Quick
            test_scan_salvage_matches_file;
          Alcotest.test_case "corrupt row arity quarantined" `Quick
            test_corrupt_row_arity_quarantined;
        ] );
      ( "edges",
        [
          Alcotest.test_case "zero-length log" `Quick test_zero_length_log;
          Alcotest.test_case "log ends at commit boundary" `Quick
            test_log_ends_at_commit_boundary;
          Alcotest.test_case "ckpt sibling, empty tail" `Quick
            test_ckpt_present_empty_tail;
          Alcotest.test_case "failed flush refuses the commit" `Quick
            test_failed_flush_refuses_commit;
          Alcotest.test_case "non-log file refused untouched" `Quick
            test_non_log_refused;
        ] );
    ]
