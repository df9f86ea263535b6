(* The traced run's in-process replay: a fixed prefix of a workload's
   seeded op sequence, sent through each layer's public entry point in
   turn, with a span around every call.

     sqlfe.parse        Sqlfe.Parser.parse_statement          (ad-hoc)
     opt.optimize       Core.Softdb.optimize                  (ad-hoc)
     plan_cache.lookup  Core.Plan_cache.find                  (prepared)
     plan_cache.prepare Core.Plan_cache.prepare, on a miss    (prepared)
     exec.execute       Core.Softdb.execute_report / Core.Plan_cache.execute
     srv.proto.encode   Srv.Proto.response_to_line
     srv.proto.decode   Srv.Proto.response_of_line

   then EXPLAIN ANALYZE once per distinct statement for operator self
   times, rewrite counts and q-errors; transactions through Core.Txn on
   a WAL-attached database; Core.Recovery.recover_file on a log; and the
   same reads through an in-process Srv.Server over a pipe transport for
   the scheduler's queue-wait and job timings, which sys.metrics does
   not carry. *)

type op = Adhoc of string | Prepared of string

let sql_of = function Adhoc s | Prepared s -> s
let handle_of sql = "h" ^ Digest.to_hex (Digest.string sql)

type reads = {
  spans : Spans.t;
  mutable ops : int;
  mutable rows : int;
  mutable scanned : int;
  mutable pages : int;
  mutable bytes : int;
  mutable lookups : int;
  mutable hits : int;
  mutable evictions : int;
  mutable per_op_ms : (float * float) list;
      (** per op: engine layers (parse, plan, execute), response encode *)
}

let new_reads () =
  {
    spans = Spans.create ();
    ops = 0;
    rows = 0;
    scanned = 0;
    pages = 0;
    bytes = 0;
    lookups = 0;
    hits = 0;
    evictions = 0;
    per_op_ms = [];
  }

let result_line id (r : Exec.Executor.result) =
  Srv.Proto.response_to_line
    {
      Srv.Proto.id;
      payload =
        Srv.Proto.Result_set
          { columns = r.Exec.Executor.columns; rows = r.Exec.Executor.rows };
    }

(* Replay [ops] on [sdb].  Prepared statements are bound first, as the
   served run's warm-up does, so the cache starts where timing starts. *)
let replay_reads acc sdb ops =
  let cache = Core.Plan_cache.create sdb in
  List.iter
    (function
      | Prepared sql -> ignore (Core.Plan_cache.find_or_prepare cache ~name:sql sql)
      | Adhoc _ -> ())
    ops;
  let evictions0 = (Core.Plan_cache.stats cache).Core.Plan_cache.evictions in
  List.iter
    (fun op ->
      acc.ops <- acc.ops + 1;
      let req = acc.ops in
      let sp = acc.spans in
      let t0 = Spans.now () in
      let request =
        match op with
        | Adhoc sql -> Srv.Proto.Statement sql
        | Prepared sql -> Srv.Proto.Execute { handle = handle_of sql }
      in
      let req_line = Srv.Proto.request_to_line { Srv.Proto.id = req; payload = request } in
      let result =
        match op with
        | Adhoc sql ->
            let stmt =
              Spans.with_span sp ~req "sqlfe.parse" (fun () ->
                  Sqlfe.Parser.parse_statement sql)
            in
            let q =
              match stmt with
              | Sqlfe.Ast.Query q -> q
              | _ -> invalid_arg "replay: not a query"
            in
            let report =
              Spans.with_span sp ~req "opt.optimize" (fun () ->
                  Core.Softdb.optimize sdb q)
            in
            Spans.with_span sp ~req "exec.execute" (fun () ->
                fst (Core.Softdb.execute_report sdb report))
        | Prepared sql ->
            acc.lookups <- acc.lookups + 1;
            let found =
              Spans.with_span sp ~req "plan_cache.lookup" (fun () ->
                  Core.Plan_cache.find cache sql)
            in
            (match found with
            | Some _ -> acc.hits <- acc.hits + 1
            | None ->
                Spans.with_span sp ~req "plan_cache.prepare" (fun () ->
                    ignore (Core.Plan_cache.prepare cache ~name:sql sql)));
            Spans.with_span sp ~req "exec.execute" (fun () ->
                Core.Plan_cache.execute cache sql)
      in
      let t1 = Spans.now () in
      let line =
        Spans.with_span sp ~req "srv.proto.encode" (fun () -> result_line req result)
      in
      let t2 = Spans.now () in
      ignore
        (Spans.with_span sp ~req "srv.proto.decode" (fun () ->
             Srv.Proto.response_of_line line));
      acc.per_op_ms <-
        ((t1 -. t0) *. 1000.0, (t2 -. t1) *. 1000.0) :: acc.per_op_ms;
      let c = result.Exec.Executor.counters in
      acc.rows <- acc.rows + List.length result.Exec.Executor.rows;
      acc.scanned <- acc.scanned + c.Exec.Operators.Counters.rows_scanned;
      acc.pages <- acc.pages + c.Exec.Operators.Counters.pages_read;
      acc.bytes <- acc.bytes + String.length req_line + String.length line + 2)
    ops;
  acc.evictions <-
    acc.evictions
    + (Core.Plan_cache.stats cache).Core.Plan_cache.evictions - evictions0

(* ---- EXPLAIN ANALYZE: self time per operator ---------------------------- *)

type analyzed = {
  mutable queries : int;
  mutable rewrites : int;
  mutable q_errors : float list;
  self_ms : (string, float) Hashtbl.t;  (** operator -> summed self ms *)
}

let new_analyzed () =
  { queries = 0; rewrites = 0; q_errors = []; self_ms = Hashtbl.create 16 }

let operator_of label =
  match String.index_opt label ' ' with
  | Some i -> String.sub label 0 i
  | None -> label

let analyze acc sdb sqls =
  List.iter
    (fun sql ->
      let a = Core.Softdb.analyze sdb (Workload.Queries.parse sql) in
      acc.queries <- acc.queries + 1;
      acc.rewrites <- acc.rewrites + List.length a.Opt.Explain.a_report.Opt.Explain.applied;
      acc.q_errors <- Float.max 1.0 a.Opt.Explain.total_q_error :: acc.q_errors;
      let nodes = a.Opt.Explain.nodes in
      let selfs =
        Spans.self_times
          (List.map (fun n -> (n.Opt.Explain.depth, n.Opt.Explain.elapsed_s)) nodes)
      in
      List.iter2
        (fun n self ->
          let op = operator_of n.Opt.Explain.label in
          Hashtbl.replace acc.self_ms op
            ((self *. 1000.0)
            +. Option.value ~default:0.0 (Hashtbl.find_opt acc.self_ms op)))
        nodes selfs)
    sqls

(* ---- transactions on a WAL-attached database ---------------------------- *)

type txns = { t_spans : Spans.t; mutable txns : int; mutable records : int }

let new_txns () = { t_spans = Spans.create (); txns = 0; records = 0 }

let replay_txns acc link txns =
  let sdb = Core.Recovery.softdb link in
  let wal = Core.Recovery.wal link in
  let before = List.length (Rel.Wal.records wal) in
  List.iteri
    (fun k inserts ->
      let req = k + 1 in
      let sp = acc.t_spans in
      let txn = Spans.with_span sp ~req "txn.begin" (fun () -> Core.Txn.begin_ sdb) in
      List.iter
        (fun sql ->
          Spans.with_span sp ~req "txn.insert" (fun () ->
              ignore (Core.Softdb.exec sdb sql)))
        inserts;
      Spans.with_span sp ~req "txn.commit" (fun () -> Core.Txn.commit txn))
    txns;
  acc.txns <- acc.txns + List.length txns;
  acc.records <- acc.records + List.length (Rel.Wal.records wal) - before

(* ---- recovery ------------------------------------------------------------ *)

(* Replay a copy of [wal] (recover_file may repair the file it reads):
   committed frames and seconds taken. *)
let recover ~scratch wal =
  Setup.copy_file wal scratch;
  let t0 = Spans.now () in
  let _, report = Core.Recovery.recover_file scratch in
  let s = Spans.now () -. t0 in
  Sys.remove scratch;
  (report.Core.Recovery.committed_txns, s)

(* ---- the scheduler's own timers, via an in-process server ---------------- *)

let timing metrics name =
  List.fold_left
    (fun acc (n, calls, total) -> if n = name then (calls, total) else acc)
    (0, 0.0)
    (Obs.Metrics.timings metrics)

type scheduler = { jobs : int; queue_s : float; job_s : float; requeues : int }

let no_jobs = { jobs = 0; queue_s = 0.0; job_s = 0.0; requeues = 0 }

let merge a b =
  {
    jobs = a.jobs + b.jobs;
    queue_s = a.queue_s +. b.queue_s;
    job_s = a.job_s +. b.job_s;
    requeues = a.requeues + b.requeues;
  }

(* Queue wait and job time summed over [ops], and the requeues. *)
let scheduler_timings sdb ops =
  let server = Srv.Server.create sdb in
  let client_end, server_end = Srv.Transport.pipe () in
  let th = Srv.Server.serve_connection_async server server_end in
  let conn = Wire.of_transport client_end in
  ignore (Wire.must conn (Srv.Proto.Hello { client = "replay" }));
  List.iter
    (function
      | Prepared sql ->
          ignore (Wire.must conn (Srv.Proto.Prepare { handle = handle_of sql; sql }))
      | Adhoc _ -> ())
    ops;
  let m = Core.Softdb.metrics sdb in
  let _, qt0 = timing m "srv.queue_wait" and jc0, jt0 = timing m "srv.query_latency" in
  let rq0 = Obs.Metrics.counter m "srv.jobs_requeued" in
  List.iter
    (fun op ->
      ignore
        (Wire.must conn
           (match op with
           | Adhoc sql -> Srv.Proto.Statement sql
           | Prepared sql -> Srv.Proto.Execute { handle = handle_of sql })))
    ops;
  let _, qt1 = timing m "srv.queue_wait" and jc1, jt1 = timing m "srv.query_latency" in
  let rq1 = Obs.Metrics.counter m "srv.jobs_requeued" in
  ignore (Wire.call conn Srv.Proto.Quit);
  Wire.close conn;
  Thread.join th;
  Srv.Server.shutdown server;
  { jobs = jc1 - jc0; queue_s = qt1 -. qt0; job_s = jt1 -. jt0; requeues = rq1 - rq0 }
