(* The analytics workload: no server.  One thread runs closed-loop passes
   over the paper's SC suites at full scale — purchase ASC and SSC, tpcd
   join elimination and UNION ALL pruning, apb FD simplification and
   project SSC twinning — through Core.Softdb.query; one op is one whole
   pass. *)

(* Passes the traced run replays layer by layer. *)
let replay_passes = 3

let run (ctx : Serve.ctx) =
  (* set up several times, keeping only the last databases alive *)
  let last = ref None in
  let rounds =
    List.init Serve.setup_rounds (fun _ ->
        last := None;
        Gc.full_major ();
        let a, s = Setup.time (fun () -> Setup.analytics_db ~seed:ctx.Serve.seed) in
        last := Some a;
        ((a.Setup.a_load_s, a.Setup.a_sc_install_s, a.Setup.a_runstats_s), s))
  in
  let a = Option.get !last in
  let setup_s = Pctl.median (List.map snd rounds) in
  let setup_parts =
    let med f = Pctl.median (List.map (fun (p, _) -> f p) rounds) in
    [
      ("setup.load_s", med (fun (l, _, _) -> l));
      ("setup.sc_install_s", med (fun (_, s, _) -> s));
      ("setup.runstats_s", med (fun (_, _, r) -> r));
      ("setup.checkpoint_s", 0.0);
      ("setup.server_ready_s", 0.0);
    ]
  in
  let suites = a.Setup.suites in
  (* the oracle, untimed: every statement against its SC-free plan; the
     timed passes then check each answer's digest *)
  let expected = Hashtbl.create 32 in
  let wrong =
    List.concat_map
      (fun (s : Setup.suite) ->
        List.filter_map
          (fun sql ->
            let rows = (Core.Softdb.query s.Setup.sdb sql).Exec.Executor.rows in
            Hashtbl.replace expected (s.Setup.suite, sql) (Check.digest rows);
            if
              Check.same_rows rows
                (Core.Softdb.query_baseline s.Setup.sdb sql).Exec.Executor.rows
            then None
            else Some (s.Setup.suite ^ ": " ^ sql))
          s.Setup.queries)
      suites
  in
  let spans = Spans.create () in
  let failed = ref 0 and errors = ref [] in
  let pass ~req ~traced =
    List.iter
      (fun (s : Setup.suite) ->
        List.iter
          (fun sql ->
            let run () = Core.Softdb.query s.Setup.sdb sql in
            let r =
              if traced then Spans.with_span spans ~req ("analytics." ^ s.Setup.suite) run
              else run ()
            in
            if Check.digest r.Exec.Executor.rows <> Hashtbl.find expected (s.Setup.suite, sql)
            then begin
              incr failed;
              if List.length !errors < 5 then errors := ("wrong answer: " ^ sql) :: !errors
            end)
          s.Setup.queries)
      suites
  in
  pass ~req:0 ~traced:false;
  let gc0 = Gc.quick_stat () in
  let t0 = Spans.now () in
  let deadline = t0 +. ctx.Serve.seconds in
  let lat = ref [] and traced_ms = ref [] and untraced_ms = ref [] in
  let i = ref 0 in
  while Spans.now () < deadline do
    let traced = ctx.Serve.trace && !i land 1 = 1 in
    let p0 = Spans.now () in
    pass ~req:(!i + 1) ~traced;
    let ms = (Spans.now () -. p0) *. 1000.0 in
    lat := ms :: !lat;
    if traced then traced_ms := ms :: !traced_ms else untraced_ms := ms :: !untraced_ms;
    incr i
  done;
  let elapsed = Spans.now () -. t0 in
  let gc1 = Gc.quick_stat () in
  let heap = Proc.vm_hwm_mb "self" in
  let attempted = !i in
  let failed = !failed + List.length wrong in
  let metrics =
    (* about a hundred passes per run: p90 is the highest percentile with
       ten passes beyond it *)
    Serve.common_metrics ~tail_q:0.90 ~elapsed ~samples:!lat ~setup_s ~heap ~attempted
      ~failed
  in
  let layer_metrics =
    if not ctx.Serve.trace then []
    else begin
      let reads = Replay.new_reads () and analyzed = Replay.new_analyzed () in
      let scheduler =
        List.fold_left
          (fun acc (s : Setup.suite) ->
            let ops = List.map (fun q -> Replay.Adhoc q) s.Setup.queries in
            for _ = 1 to replay_passes do
              Replay.replay_reads reads s.Setup.sdb ops
            done;
            Replay.analyze analyzed s.Setup.sdb s.Setup.queries;
            Replay.merge acc (Replay.scheduler_timings s.Setup.sdb ops))
          Replay.no_jobs suites
      in
      Spans.write
        (Filename.concat ctx.Serve.dir "spans.tsv")
        (Spans.all [ spans; reads.Replay.spans ]);
      Layers.metrics
        {
          Layers.reads;
          analyzed;
          txns = Replay.new_txns ();
          recovery = None;
          scheduler;
          requeues = scheduler.Replay.requeues;
          round_trip_ms = Pctl.median !lat;
          (* the engine layers of one replayed pass *)
          accounted_ms =
            [
              List.fold_left (fun acc (e, _) -> acc +. e) 0.0 reads.Replay.per_op_ms
              /. float_of_int replay_passes;
            ];
          ops = attempted;
          gc = (gc0, gc1);
          lag_p99_ms = 0.0;
          overhead_ratio = Pctl.median !traced_ms /. Pctl.median !untraced_ms -. 1.0;
          setup = setup_parts;
        }
    end
  in
  {
    Report.attempted;
    failed;
    valid = true;
    notes =
      List.map (fun w -> "oracle mismatch: " ^ w) wrong
      @ List.map (fun e -> "error: " ^ e) !errors;
    metrics = metrics @ layer_metrics;
    latencies = [ ("pass", !lat) ];
  }
