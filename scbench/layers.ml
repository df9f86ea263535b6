(* The per-layer metrics of a traced run, assembled from the replay's
   spans and counters.  A layer a workload never enters reports 0. *)

(* Operators whose self time is reported; the plans of the three
   workloads use no others. *)
let operators =
  [ "SeqScan"; "IndexScan"; "Project"; "HashJoin"; "Sort"; "Group"; "UnionAll" ]

let med spans name =
  match Spans.durations_ms spans name with [] -> 0.0 | xs -> Pctl.median xs

type inputs = {
  reads : Replay.reads;
  analyzed : Replay.analyzed;
  txns : Replay.txns;
  recovery : (int * float) option;  (** frames, seconds *)
  scheduler : Replay.scheduler;
  requeues : int;  (** srv.jobs_requeued during the measured run *)
  round_trip_ms : float;  (** client-observed p50 of the measured op *)
  accounted_ms : float list;  (** the replayed layers' medians inside it *)
  ops : int;  (** ops in the measured run *)
  gc : Gc.stat * Gc.stat;
  lag_p99_ms : float;
  overhead_ratio : float;
  setup : (string * float) list;
}

let metrics i =
  let r = i.reads and a = i.analyzed and t = i.txns in
  let rs = Spans.all [ r.Replay.spans ] and ts = Spans.all [ t.Replay.t_spans ] in
  let sched = i.scheduler in
  let per_job s = if sched.Replay.jobs = 0 then 0.0 else s *. 1000.0 /. float_of_int sched.Replay.jobs in
  let gc0, gc1 = i.gc in
  let frames, ms_per_frame =
    match i.recovery with
    | Some (f, s) when f > 0 -> (f, s *. 1000.0 /. float_of_int f)
    | _ -> (0, 0.0)
  in
  let per_op n = Report.ratio n i.ops in
  [
    ("sqlfe.parse_ms", med rs "sqlfe.parse", "ms");
    ("opt.optimize_ms", med rs "opt.optimize", "ms");
    ("opt.rewrites_per_query", Report.ratio a.Replay.rewrites a.Replay.queries, "count");
    ( "opt.q_error_geomean",
      (match a.Replay.q_errors with [] -> 1.0 | q -> Pctl.geomean q),
      "ratio" );
    ("plan_cache.hit_ratio", Report.ratio r.Replay.hits r.Replay.lookups, "ratio");
    ("plan_cache.lookups", float_of_int r.Replay.lookups, "count");
    ("plan_cache.evictions_per_op", Report.ratio r.Replay.evictions r.Replay.ops, "count");
    ("exec.execute_ms", med rs "exec.execute", "ms");
    ("exec.rows_scanned_per_row", Report.ratio r.Replay.scanned r.Replay.rows, "ratio");
    ("exec.pages_read_per_op", Report.ratio r.Replay.pages r.Replay.ops, "count");
    ("srv.proto.encode_ms", med rs "srv.proto.encode", "ms");
    ("srv.proto.decode_ms", med rs "srv.proto.decode", "ms");
    ("srv.proto.bytes_per_op", Report.ratio r.Replay.bytes r.Replay.ops, "bytes");
    ("srv.queue_wait_ms", per_job sched.Replay.queue_s, "ms");
    ("srv.job_ms", per_job sched.Replay.job_s, "ms");
    ("srv.requeues_per_op", per_op i.requeues, "count");
    ( "srv.unaccounted_ms",
      Spans.unaccounted ~round_trip_ms:i.round_trip_ms i.accounted_ms,
      "ms" );
    ("txn.insert_ms", med ts "txn.insert", "ms");
    ("txn.commit_ms", med ts "txn.commit", "ms");
    ("wal.records_per_txn", Report.ratio t.Replay.records t.Replay.txns, "count");
    ("recovery.frames", float_of_int frames, "count");
    ("recovery.ms_per_frame", ms_per_frame, "ms");
    ( "gc.minor_per_op",
      per_op (gc1.Gc.minor_collections - gc0.Gc.minor_collections),
      "count" );
    ( "gc.major_per_op",
      per_op (gc1.Gc.major_collections - gc0.Gc.major_collections),
      "count" );
    ("gen.lag_p99_ms", i.lag_p99_ms, "ms");
    ("trace.overhead_ratio", i.overhead_ratio, "ratio");
  ]
  @ List.map
      (fun op ->
        ( "exec.self_ms." ^ op,
          (match Hashtbl.find_opt a.Replay.self_ms op with
          | Some ms -> ms /. float_of_int (max 1 a.Replay.queries)
          | None -> 0.0),
          "ms" ))
      operators
  @ List.map (fun (name, v) -> (name, v, "s")) i.setup
