(* The two serving workloads, each against a fresh [softdb serve] child
   process loaded from a seeded WAL checkpoint.

   serve_scan  two closed-loop clients send month-wide ship_date window
               selects, half ad-hoc and half Execute over 16 prepared
               handles (which fit the 64-entry plan cache).
   serve_rw    one open-loop writer sends a fixed number of
               BEGIN / 4 INSERT / COMMIT transactions at a fixed rate
               beside one closed-loop reader of PK point lookups, half
               ad-hoc and half Execute over 256 prepared handles (four
               times the plan cache); then the server is SIGKILLed and
               restarted on its WAL. *)

open Rel

type ctx = {
  exe : string;  (** the softdb binary *)
  dir : string;  (** this run's scratch directory *)
  seed : int;
  seconds : float;
  trace : bool;
}

let setup_rounds = 3

(* ---- per-client recording ---------------------------------------------- *)

type recorder = {
  lat : (string, float list) Hashtbl.t;  (** op kind -> latencies, ms *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  spans : Spans.t;
  mutable traced_ms : float list;
  mutable untraced_ms : float list;
}

let recorder () =
  {
    lat = Hashtbl.create 4;
    attempted = 0;
    failed = 0;
    errors = [];
    spans = Spans.create ();
    traced_ms = [];
    untraced_ms = [];
  }

let add r kind ms =
  Hashtbl.replace r.lat kind
    (ms :: Option.value ~default:[] (Hashtbl.find_opt r.lat kind))

let fail r msg =
  r.failed <- r.failed + 1;
  if List.length r.errors < 5 then r.errors <- msg :: r.errors

let samples_of rs kind =
  List.concat_map
    (fun r -> Option.value ~default:[] (Hashtbl.find_opt r.lat kind))
    rs

type op = {
  kind : string;
  payload : Srv.Proto.request_payload;
  check : Srv.Proto.response_payload -> string option;
}

(* Closed loop until [deadline]: the next op is sent once the previous
   answer is decoded.  In the traced run every other pair of ops records
   client-side spans, so traced and untraced ops interleave under the
   same load and their medians give the tracing overhead. *)
let closed_loop r conn ~trace ~client ~deadline next_op =
  let i = ref 0 in
  try
    while Spans.now () < deadline do
      let op = next_op () in
      let traced = trace && !i land 2 = 2 in
      r.attempted <- r.attempted + 1;
      let t0 = Spans.now () in
      let resp =
        if traced then
          Wire.call_traced r.spans ~req:((client * 10_000_000) + !i) conn op.payload
        else Wire.call conn op.payload
      in
      let ms = (Spans.now () -. t0) *. 1000.0 in
      (match resp with
      | Srv.Proto.Failed { message; _ } -> fail r message
      | Srv.Proto.Rejected _ -> fail r "rejected by admission control"
      | resp -> (
          add r op.kind ms;
          if traced then r.traced_ms <- ms :: r.traced_ms
          else r.untraced_ms <- ms :: r.untraced_ms;
          match op.check resp with Some e -> fail r e | None -> ()));
      incr i
    done
  with e -> fail r (Printexc.to_string e)

(* Untimed warm-up: the timed loop's op mix for [warm_up_s], so the
   server's heap and caches settle before timing starts.  Only failures
   are kept. *)
let warm_up_s = 2.0

let warm_up r conn next_op =
  let scratch = recorder () in
  closed_loop scratch conn ~trace:false ~client:0
    ~deadline:(Spans.now () +. warm_up_s) next_op;
  r.failed <- r.failed + scratch.failed;
  r.errors <- scratch.errors @ r.errors

(* ---- set-up ------------------------------------------------------------- *)

type served = {
  p : Setup.purchase;
  server : Proc.t;
  wal : string;
  checkpoint : string;  (** a copy of the start-up checkpoint *)
}

(* One full set-up: seeded data and band in this process, a checkpoint,
   a fresh server recovering it, RUNSTATS over the wire. *)
let setup_once ctx =
  let t0 = Spans.now () in
  let p = Setup.purchase_db ~seed:ctx.seed in
  let wal = Filename.concat ctx.dir "server.wal" in
  let (), checkpoint_s = Setup.time (fun () -> Setup.write_checkpoint p.Setup.sdb wal) in
  let checkpoint = Filename.concat ctx.dir "checkpoint.wal" in
  Setup.copy_file wal checkpoint;
  let server, ready_s =
    Setup.time (fun () ->
        Proc.spawn ~exe:ctx.exe ~wal ~log:(Filename.concat ctx.dir "server.log"))
  in
  let conn = Wire.connect server.Proc.port in
  ignore (Wire.must conn (Srv.Proto.Hello { client = "scbench-setup" }));
  let _, runstats_s =
    Setup.time (fun () -> Wire.must conn (Srv.Proto.Statement "RUNSTATS"))
  in
  Wire.close conn;
  let total = Spans.now () -. t0 in
  ( { p; server; wal; checkpoint },
    total,
    [
      ("setup.load_s", p.Setup.load_s);
      ("setup.sc_install_s", p.Setup.sc_install_s);
      ("setup.runstats_s", p.Setup.runstats_s +. runstats_s);
      ("setup.checkpoint_s", checkpoint_s);
      ("setup.server_ready_s", ready_s);
    ] )

(* Set up [setup_rounds] times, keep the last server; setup_s and each
   part are medians over the rounds. *)
let setup ctx =
  let rounds =
    List.init setup_rounds (fun i ->
        let s, total, parts = setup_once ctx in
        if i < setup_rounds - 1 then Proc.kill s.server;
        (s, total, parts))
  in
  let s, _, _ = List.nth rounds (setup_rounds - 1) in
  let totals = List.map (fun (_, t, _) -> t) rounds in
  let parts =
    List.map
      (fun (name, _) ->
        ( name,
          Pctl.median
            (List.map (fun (_, _, ps) -> List.assoc name ps) rounds) ))
      (let _, _, ps = List.hd rounds in
       ps)
  in
  (s, Pctl.median totals, parts)

(* Every counter in the server's sys.metrics, over the wire. *)
let sys_metrics port =
  let conn = Wire.connect port in
  let rows =
    match Wire.call conn (Srv.Proto.Statement "SELECT name, value FROM sys.metrics") with
    | Srv.Proto.Result_set { rows; _ } ->
        List.filter_map
          (fun (r : Tuple.t) ->
            match (r.(0), r.(1)) with
            | Value.String n, Value.Float v -> Some (n, v)
            | _ -> None)
          rows
    | _ -> []
  in
  Wire.close conn;
  fun name -> Option.value ~default:0.0 (List.assoc_opt name rows)

(* Start a thread per client and release them on one clock once all are
   warmed up.  Each client function gets the shared start time.  Threads
   rather than domains: the clients mostly wait on the server, and one
   domain keeps the generator's stop-the-world collections from waiting
   on a descheduled sibling. *)
let run_clients clients =
  let ready = Atomic.make 0 and start = Atomic.make 0.0 in
  let n = List.length clients in
  let release () =
    Atomic.incr ready;
    while Atomic.get start = 0.0 do
      Thread.delay 0.0005
    done;
    Atomic.get start
  in
  let threads =
    List.map
      (fun f ->
        let result = ref None in
        let th =
          Thread.create
            (fun () ->
              result :=
                Some
                  (try Ok (f ~ready:release)
                   with e ->
                     Atomic.incr ready;
                     Error e))
            ()
        in
        (th, result))
      clients
  in
  while Atomic.get ready < n do
    Thread.delay 0.001
  done;
  let gc0 = Gc.quick_stat () in
  let t0 = Spans.now () in
  Atomic.set start t0;
  let results =
    List.map
      (fun (th, result) ->
        Thread.join th;
        match !result with
        | Some (Ok r) -> r
        | Some (Error e) -> raise e
        | None -> failwith "client thread ended without a result")
      threads
  in
  let elapsed = Spans.now () -. t0 in
  let gc1 = Gc.quick_stat () in
  (results, elapsed, gc0, gc1)

(* ---- serve_scan ----------------------------------------------------------- *)

let window_days = 30
let adhoc_windows = 48
let prepared_windows = 16

(* Window starts, so every window lies inside the fully shipped part of
   the year and returns about the same number of rows. *)
let scan_pools seed =
  let rng = Stats.Rng.create ((seed * 31) + 5) in
  let window () =
    let lo = Date.add_days (Date.of_ymd 1999 2 1) (Stats.Rng.int rng 300) in
    Workload.Queries.purchase_ship_range lo (Date.add_days lo (window_days - 1))
  in
  let adhoc = Array.init adhoc_windows (fun _ -> window ()) in
  let prepared = Array.init prepared_windows (fun _ -> window ()) in
  (adhoc, prepared)

(* Client [client]'s op sequence: ad-hoc and Execute alternate. *)
let scan_sequence ~seed ~client (adhoc, prepared) =
  let rng = Random.State.make [| seed; client; 0x5ca7 |] in
  let i = ref 0 in
  fun () ->
    incr i;
    if !i land 1 = 1 then Replay.Adhoc adhoc.(Random.State.int rng (Array.length adhoc))
    else Replay.Prepared prepared.(Random.State.int rng (Array.length prepared))

let request_of = function
  | Replay.Adhoc sql -> Srv.Proto.Statement sql
  | Replay.Prepared sql -> Srv.Proto.Execute { handle = Replay.handle_of sql }

let kind_of prefix = function
  | Replay.Adhoc _ -> prefix ^ ".adhoc"
  | Replay.Prepared _ -> prefix ^ ".execute"

type scan_client = {
  rec_ : recorder;
  first_rows : (string * Tuple.t list) list;  (** warm-up answers *)
}

let scan_client ctx ~port ~pools ~client ~ready =
  let r = recorder () in
  let conn = Wire.connect port in
  ignore
    (Wire.must conn
       (Srv.Proto.Hello { client = Printf.sprintf "scan-%d" client }));
  let adhoc, prepared = pools in
  Array.iter
    (fun sql ->
      ignore
        (Wire.must conn
           (Srv.Proto.Prepare { handle = Replay.handle_of sql; sql })))
    prepared;
  (* untimed warm-up: every statement once, through the path the timed
     loop uses; its answers are checked against the oracle later and
     every timed answer is checked against its digest *)
  let expect = Hashtbl.create 64 in
  let first_rows =
    List.map
      (fun op ->
        let sql = Replay.sql_of op in
        let rows =
          match Check.rows_of (Wire.must conn (request_of op)) with
          | Some rows -> rows
          | None -> raise (Wire.Failure_reply ("no result set for " ^ sql))
        in
        Hashtbl.replace expect sql (Check.digest rows);
        (sql, rows))
      (List.map (fun s -> Replay.Adhoc s) (Array.to_list adhoc)
      @ List.map (fun s -> Replay.Prepared s) (Array.to_list prepared))
  in
  let next_op next () =
    let op = next () in
    let sql = Replay.sql_of op in
    {
      kind = kind_of "scan" op;
      payload = request_of op;
      check =
        (fun resp ->
          match Check.rows_of resp with
          | Some rows when Check.digest rows = Hashtbl.find expect sql -> None
          | _ -> Some ("wrong answer for " ^ sql));
    }
  in
  warm_up r conn (next_op (scan_sequence ~seed:ctx.seed ~client:(client + 100) pools));
  let start = ready () in
  closed_loop r conn ~trace:ctx.trace ~client
    ~deadline:(start +. ctx.seconds)
    (next_op (scan_sequence ~seed:ctx.seed ~client pools));
  Wire.close conn;
  { rec_ = r; first_rows }

(* ---- serve_rw ------------------------------------------------------------- *)

let prepared_keys = 256
let txn_rate = 150.0
let inserts_per_txn = 4
let first_new_id = 1_000_001

let rw_keys seed =
  let rng = Stats.Rng.create ((seed * 37) + 11) in
  Array.init prepared_keys (fun _ -> 1 + Stats.Rng.int rng Setup.purchase_rows)

let point id = Printf.sprintf "SELECT * FROM purchase WHERE id = %d" id

let rw_sequence ~seed keys =
  let rng = Random.State.make [| seed; 0x2ead |] in
  let i = ref 0 in
  fun () ->
    incr i;
    if !i land 1 = 1 then
      let k = 1 + Random.State.int rng Setup.purchase_rows in
      (Replay.Adhoc (point k), k)
    else
      let k = keys.(Random.State.int rng (Array.length keys)) in
      (Replay.Prepared (point k), k)

(* The writer's transactions: four rows each, 1% shipped late; returns
   the INSERT statements and how many of each transaction's rows are
   late. *)
let rw_txns ~seed n =
  let rng = Stats.Rng.create ((seed * 41) + 3) in
  Array.init n (fun k ->
      let late = ref 0 in
      let inserts =
        List.init inserts_per_txn (fun j ->
            let id = first_new_id + (k * inserts_per_txn) + j in
            let order = Date.add_days Workload.Purchase.base_date (Stats.Rng.int rng 365) in
            let is_late = Stats.Rng.coin rng 0.01 in
            if is_late then incr late;
            let delay = if is_late then 22 + Stats.Rng.int rng 69 else Stats.Rng.int rng 22 in
            let qty = 1 + Stats.Rng.int rng 50 in
            Printf.sprintf
              "INSERT INTO purchase VALUES (%d, %d, DATE '%s', DATE '%s', %.2f, %d, '%s')"
              id
              (1 + Stats.Rng.int rng 500)
              (Date.to_string order)
              (Date.to_string (Date.add_days order delay))
              ((9.99 *. float_of_int qty) +. Stats.Rng.float_range rng (-5.0) 5.0)
              qty
              (Stats.Rng.pick rng [| "north"; "south"; "east"; "west" |]))
      in
      (inserts, !late))

type writer = {
  w_rec : recorder;
  mutable acked : int;
  mutable late_acked : int;
  mutable txn_ms : float list;  (** from due time to COMMIT answered *)
  mutable lag_ms : float list;  (** how late each transaction started *)
}

let writer ~port ~txns ~ready =
  let w =
    { w_rec = recorder (); acked = 0; late_acked = 0; txn_ms = []; lag_ms = [] }
  in
  let r = w.w_rec in
  let conn = Wire.connect port in
  ignore (Wire.must conn (Srv.Proto.Hello { client = "rw-writer" }));
  let start = ready () in
  (try
     Array.iteri
       (fun k (inserts, late) ->
         let due = start +. (float_of_int k /. txn_rate) in
         let wait = due -. Spans.now () in
         if wait > 0.0 then Unix.sleepf wait;
         w.lag_ms <- ((Spans.now () -. due) *. 1000.0) :: w.lag_ms;
         r.attempted <- r.attempted + 1;
         let ok payload =
           match Wire.call conn payload with
           | Srv.Proto.Ok_msg _ | Srv.Proto.Affected 1 -> true
           | Srv.Proto.Failed { message; _ } ->
               fail r message;
               false
           | _ ->
               fail r "unexpected reply";
               false
         in
         if
           ok Srv.Proto.Begin_txn
           && List.for_all (fun sql -> ok (Srv.Proto.Statement sql)) inserts
         then
           if ok Srv.Proto.Commit_txn then begin
             w.txn_ms <- ((Spans.now () -. due) *. 1000.0) :: w.txn_ms;
             w.acked <- w.acked + 1;
             w.late_acked <- w.late_acked + late
           end)
       txns
   with e -> fail r (Printexc.to_string e));
  Wire.close conn;
  w

let reader ctx ~port ~keys ~ready =
  let r = recorder () in
  let conn = Wire.connect port in
  ignore (Wire.must conn (Srv.Proto.Hello { client = "rw-reader" }));
  Array.iter
    (fun k ->
      ignore
        (Wire.must conn
           (Srv.Proto.Prepare { handle = Replay.handle_of (point k); sql = point k })))
    keys;
  (* warm-up: every prepared handle once; the last 64 stay cached *)
  Array.iter
    (fun k -> ignore (Wire.must conn (request_of (Replay.Prepared (point k)))))
    keys;
  let next_op next () =
    let op, k = next () in
    {
      kind = kind_of "read" op;
      payload = request_of op;
      check =
        (fun resp ->
          match Check.rows_of resp with
          | Some [ row ] when row.(0) = Value.Int k -> None
          | _ -> Some (Printf.sprintf "wrong answer for id %d" k));
    }
  in
  warm_up r conn (next_op (rw_sequence ~seed:(ctx.seed + 1_000_003) keys));
  let start = ready () in
  closed_loop r conn ~trace:ctx.trace ~client:1
    ~deadline:(start +. ctx.seconds)
    (next_op (rw_sequence ~seed:ctx.seed keys));
  Wire.close conn;
  r

(* ---- assembling a run ------------------------------------------------------ *)

let overhead_ratio rs =
  let traced = List.concat_map (fun r -> r.traced_ms) rs
  and untraced = List.concat_map (fun r -> r.untraced_ms) rs in
  Pctl.median traced /. Pctl.median untraced -. 1.0

let round_trip_p50 rs =
  Pctl.median (Spans.durations_ms (Spans.all (List.map (fun r -> r.spans) rs)) "client.round_trip")

(* The first [n] ops of a sequence. *)
let prefix n next = List.init n (fun _ -> next ())

let dedup xs = List.sort_uniq String.compare xs

let replay_medians (reads : Replay.reads) =
  [
    Pctl.median (List.map fst reads.Replay.per_op_ms);
    Pctl.median (List.map snd reads.Replay.per_op_ms);
  ]

let write_spans ctx rs extra =
  Spans.write
    (Filename.concat ctx.dir "spans.tsv")
    (Spans.all (List.map (fun r -> r.spans) rs @ extra))

(* The metrics every workload reports; [samples] are the timed ops'
   latencies, answered within [elapsed] seconds.  The tail is the
   [tail_q] percentile, the highest one the workload's sample count
   supports with ten samples beyond it. *)
let common_metrics ~tail_q ~elapsed ~samples ~setup_s ~heap ~attempted ~failed =
  [
    ("throughput_ops_s", float_of_int (List.length samples) /. elapsed, "1/s");
    ("latency_p50_ms", Pctl.percentile samples 0.50, "ms");
    ("latency_tail_ms", Pctl.percentile samples tail_q, "ms");
    ("latency_tail_q", tail_q, "ratio");
    ("latency_p99_ms", Pctl.percentile samples 0.99, "ms");
    ("latency_samples", float_of_int (List.length samples), "count");
    ("setup_s", setup_s, "s");
    ("heap_peak_mb", heap, "MiB");
    ("failed_ratio", Report.ratio failed attempted, "ratio");
  ]

let run_scan ctx =
  let s, setup_s, setup_parts = setup ctx in
  let port = s.server.Proc.port in
  let pools = scan_pools ctx.seed in
  let before = if ctx.trace then Some (sys_metrics port) else None in
  let clients =
    List.init 2 (fun client ~ready -> scan_client ctx ~port ~pools ~client ~ready)
  in
  let results, elapsed, gc0, gc1 = run_clients clients in
  let heap = Proc.vm_hwm_mb (string_of_int s.server.Proc.pid) in
  let after = if ctx.trace then Some (sys_metrics port) else None in
  Proc.kill s.server;
  let rs = List.map (fun c -> c.rec_) results in
  (* the oracle: every statement's warm-up answer against the SC-free
     plan, and every client's warm-up answers against client 0's *)
  let sdb = s.p.Setup.sdb in
  let reference = (List.hd results).first_rows in
  let wrong =
    List.filter
      (fun (sql, rows) ->
        not (Check.same_rows rows (Core.Softdb.query_baseline sdb sql).Exec.Executor.rows))
      reference
    @ List.concat_map
        (fun c ->
          List.filter
            (fun (sql, rows) ->
              Check.digest rows <> Check.digest (List.assoc sql reference))
            c.first_rows)
        (List.tl results)
  in
  let attempted = List.fold_left (fun a r -> a + r.attempted) 0 rs in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 rs + List.length wrong in
  let kinds = [ "scan.adhoc"; "scan.execute" ] in
  let samples = List.concat_map (samples_of rs) kinds in
  let ops = List.length samples in
  let notes =
    List.map (fun (sql, _) -> "oracle mismatch: " ^ sql) wrong
    @ List.concat_map (fun r -> List.map (fun e -> "error: " ^ e) r.errors) rs
  in
  let metrics =
    common_metrics ~tail_q:0.99 ~elapsed ~samples ~setup_s ~heap ~attempted ~failed
    @ List.concat_map (fun k -> Report.latency_metrics ~prefix:k (samples_of rs k)) kinds
  in
  let layer_metrics =
    if not ctx.trace then []
    else begin
      let ops_seq = prefix 128 (scan_sequence ~seed:ctx.seed ~client:0 pools) in
      let reads = Replay.new_reads () in
      Replay.replay_reads reads sdb ops_seq;
      let analyzed = Replay.new_analyzed () in
      Replay.analyze analyzed sdb (dedup (List.map Replay.sql_of ops_seq));
      let recovery =
        Replay.recover ~scratch:(Filename.concat ctx.dir "recover.wal") s.checkpoint
      in
      let scheduler = Replay.scheduler_timings sdb ops_seq in
      let requeued m = Option.get m "srv.jobs_requeued" in
      write_spans ctx rs [ reads.Replay.spans ];
      Layers.metrics
        {
          Layers.reads;
          analyzed;
          txns = Replay.new_txns ();
          recovery = Some recovery;
          scheduler;
          requeues = int_of_float (requeued after -. requeued before);
          round_trip_ms = round_trip_p50 rs;
          accounted_ms = replay_medians reads;
          ops;
          gc = (gc0, gc1);
          lag_p99_ms = 0.0;
          overhead_ratio = overhead_ratio rs;
          setup = setup_parts;
        }
    end
  in
  {
    Report.attempted;
    failed;
    valid = true;
    notes;
    metrics = metrics @ layer_metrics;
    latencies = List.map (fun k -> (k, samples_of rs k)) kinds;
  }

(* The writer falls behind schedule when its p99 start lag exceeds this;
   the run is then marked invalid, since txn_* no longer time the
   offered rate. *)
let lag_limit_ms = 50.0

type rw_party = Writer of writer | Reader of recorder

let run_rw ctx =
  let s, setup_s, setup_parts = setup ctx in
  let port = s.server.Proc.port in
  let n_txns = int_of_float (txn_rate *. ctx.seconds) in
  let txns = rw_txns ~seed:ctx.seed n_txns in
  let keys = rw_keys ctx.seed in
  let before = if ctx.trace then Some (sys_metrics port) else None in
  let wal0 = Setup.file_size s.wal in
  let parties, elapsed, gc0, gc1 =
    run_clients
      [
        (fun ~ready -> Writer (writer ~port ~txns ~ready));
        (fun ~ready ->
          Reader (reader ctx ~port ~keys ~ready));
      ]
  in
  let w = List.find_map (function Writer w -> Some w | _ -> None) parties |> Option.get in
  let r = List.find_map (function Reader r -> Some r | _ -> None) parties |> Option.get in
  let wal_bytes = Setup.file_size s.wal - wal0 in
  let heap = Proc.vm_hwm_mb (string_of_int s.server.Proc.pid) in
  let after = if ctx.trace then Some (sys_metrics port) else None in
  (* crash: SIGKILL, then restart on the WAL and time until it answers *)
  Proc.kill s.server;
  let post_run = Filename.concat ctx.dir "post_run.wal" in
  if ctx.trace then Setup.copy_file s.wal post_run;
  let t0 = Spans.now () in
  let server = Proc.spawn ~exe:ctx.exe ~wal:s.wal ~log:(Filename.concat ctx.dir "server.log") in
  let conn = Wire.connect server.Proc.port in
  let pong = Wire.call conn Srv.Proto.Ping in
  let recover_s = Spans.now () -. t0 in
  let count sql =
    match Wire.call conn (Srv.Proto.Statement sql) with
    | Srv.Proto.Result_set { rows = [ [| Value.Int n |] ]; _ } -> n
    | _ -> -1
  in
  let rows_after = count (Printf.sprintf "SELECT COUNT(*) FROM purchase WHERE id >= %d" first_new_id) in
  let late_after =
    count (Printf.sprintf "SELECT COUNT(*) FROM late_shipments WHERE id >= %d" first_new_id)
  in
  Wire.close conn;
  Proc.kill server;
  let durability =
    (if pong <> Srv.Proto.Pong then [ "restarted server did not answer ping" ] else [])
    @ (if rows_after <> inserts_per_txn * w.acked then
         [ Printf.sprintf "after restart %d new rows, expected %d (4 x %d acknowledged commits)"
             rows_after (inserts_per_txn * w.acked) w.acked ]
       else [])
    @
    if late_after <> w.late_acked then
      [ Printf.sprintf "after restart %d late rows in the exception table, expected %d"
          late_after w.late_acked ]
    else []
  in
  let lag_p99 = Pctl.percentile w.lag_ms 0.99 in
  let valid = lag_p99 <= lag_limit_ms in
  let rs = [ r; w.w_rec ] in
  let attempted = r.attempted + w.w_rec.attempted in
  let failed = r.failed + w.w_rec.failed + List.length durability in
  let kinds = [ "read.adhoc"; "read.execute" ] in
  let samples = List.concat_map (samples_of [ r ]) kinds in
  let notes =
    durability
    @ (if valid then []
       else [ Printf.sprintf "invalid: writer p99 start lag %.2f ms exceeds %.0f ms" lag_p99 lag_limit_ms ])
    @ List.concat_map (fun r -> List.map (fun e -> "error: " ^ e) r.errors) rs
  in
  let metrics =
    common_metrics ~tail_q:0.99 ~elapsed ~samples ~setup_s ~heap ~attempted ~failed
    @ List.concat_map (fun k -> Report.latency_metrics ~prefix:k (samples_of [ r ] k)) kinds
    @ Report.latency_metrics ~prefix:"txn" w.txn_ms
    @ [
        ("recover_s", recover_s, "s");
        ("wal_bytes_per_txn", Report.ratio wal_bytes w.acked, "bytes");
        ("txn_acknowledged", float_of_int w.acked, "count");
        ("gen.lag_p99_ms", lag_p99, "ms");
      ]
  in
  let layer_metrics =
    if not ctx.trace then []
    else begin
      let sdb, link, _ =
        let copy = Filename.concat ctx.dir "replay.wal" in
        Setup.copy_file s.checkpoint copy;
        Core.Recovery.resume copy
      in
      Core.Softdb.runstats sdb;
      let ops_seq = List.map fst (prefix 512 (rw_sequence ~seed:ctx.seed keys)) in
      let reads = Replay.new_reads () in
      Replay.replay_reads reads sdb ops_seq;
      let analyzed = Replay.new_analyzed () in
      Replay.analyze analyzed sdb (dedup (List.map Replay.sql_of ops_seq));
      let treplay = Replay.new_txns () in
      Replay.replay_txns treplay link
        (List.map fst (Array.to_list (Array.sub txns 0 (min 100 n_txns))));
      let scheduler = Replay.scheduler_timings sdb ops_seq in
      Core.Recovery.detach link;
      let recovery = Replay.recover ~scratch:(Filename.concat ctx.dir "recover.wal") post_run in
      let requeued m = Option.get m "srv.jobs_requeued" in
      write_spans ctx rs [ reads.Replay.spans; treplay.Replay.t_spans ];
      Layers.metrics
        {
          Layers.reads;
          analyzed;
          txns = treplay;
          recovery = Some recovery;
          scheduler;
          requeues = int_of_float (requeued after -. requeued before);
          round_trip_ms = round_trip_p50 [ r ];
          accounted_ms = replay_medians reads;
          ops = List.length samples;
          gc = (gc0, gc1);
          lag_p99_ms = lag_p99;
          overhead_ratio = overhead_ratio [ r ];
          setup = setup_parts;
        }
      |> List.filter (fun (n, _, _) -> n <> "gen.lag_p99_ms")
    end
  in
  {
    Report.attempted;
    failed;
    valid;
    notes;
    metrics = metrics @ layer_metrics;
    latencies = List.map (fun k -> (k, samples_of [ r ] k)) kinds @ [ ("txn", w.txn_ms) ];
  }
