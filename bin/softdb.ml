(* The softdb command-line shell.

     softdb repl                      interactive SQL with soft constraints
     softdb run FILE.sql              execute a script
     softdb demo (purchase|project|tpcd|all)
                                      preload a workload, then drop to a repl
     softdb advise FILE.sql           run a workload, then rank candidate
                                      secondary indexes for it

   Every command takes --wal FILE: state is recovered from the log at
   startup and every statement is logged, so a crash (or plain exit)
   loses nothing that committed.

   Inside the repl, besides SQL:
     \catalog        show the soft-constraint catalog
     \constraints    show the (hard/informational) integrity constraints
     \advise SQL;... mine + select soft constraints for the given workload
     \iadvise        rank candidate indexes for the logged queries so far
     \off SQL        run one query with all soft-constraint machinery off
     \stats          dump the metrics registry and query-log summary
     \checkpoint     compact the WAL to a snapshot of the current state
     \quit

   EXPLAIN ANALYZE SELECT ... executes the query instrumented and prints
   the plan annotated with estimated vs actual rows and per-node q-error.
*)

let print_outcome = function
  | Core.Softdb.Rows r -> Fmt.pr "%a" Exec.Executor.pp_result r
  | Core.Softdb.Affected n -> Fmt.pr "%d rows affected@." n
  | Core.Softdb.Report r -> Fmt.pr "%a" Opt.Explain.pp r
  | Core.Softdb.Analyzed a -> Fmt.pr "%a" Opt.Explain.pp_analysis a
  | Core.Softdb.Done msg -> Fmt.pr "%s@." msg

let print_stats sdb =
  let m = Core.Softdb.metrics sdb in
  let log = Core.Softdb.query_log sdb in
  Fmt.pr "-- metrics ----------------------------------------------------@.";
  Fmt.pr "%a@." Obs.Metrics.pp m;
  Fmt.pr "-- query log --------------------------------------------------@.";
  Fmt.pr "queries logged : %d@." (Obs.Query_log.length log);
  Fmt.pr "mean q-error   : %.2f@." (Obs.Query_log.mean_q_error log);
  Fmt.pr "worst q-error  : %.2f@." (Obs.Query_log.worst_q_error log)

let handle_error f =
  try f () with
  | Sqlfe.Parser.Parse_error m -> Fmt.epr "parse error: %s@." m
  | Sqlfe.Lexer.Lex_error (m, pos) -> Fmt.epr "lex error at %d: %s@." pos m
  | Rel.Checker.Constraint_violation v ->
      Fmt.epr "%a@." Rel.Checker.pp_violation v
  | Rel.Database.Catalog_error m | Core.Softdb.Error m ->
      Fmt.epr "error: %s@." m
  | Rel.Table.Row_error m -> Fmt.epr "row error: %s@." m
  | Opt.Planner.Unplannable m -> Fmt.epr "cannot plan: %s@." m
  | Opt.Logical.Unsupported m -> Fmt.epr "unsupported: %s@." m

let rec load_demo sdb = function
  | "purchase" ->
      Workload.Purchase.load (Core.Softdb.db sdb);
      Core.Softdb.runstats sdb;
      Fmt.pr "loaded purchase (20k rows); try:@.";
      Fmt.pr
        "  ALTER TABLE purchase ADD CONSTRAINT ship_3w CHECK (ship_date - \
         order_date BETWEEN 0 AND 21) SOFT;@.";
      Fmt.pr "  CREATE EXCEPTION TABLE late_shipments FOR CONSTRAINT ship_3w;@.";
      Fmt.pr "  EXPLAIN SELECT * FROM purchase WHERE ship_date = DATE \
              '1999-12-15';@."
  | "project" ->
      Workload.Project.load (Core.Softdb.db sdb);
      Core.Softdb.runstats sdb;
      Fmt.pr "loaded project (10k rows)@."
  | "tpcd" ->
      Workload.Tpcd.load (Core.Softdb.db sdb);
      Workload.Tpcd.create_sales (Core.Softdb.db sdb);
      Core.Softdb.runstats sdb;
      Fmt.pr "loaded the TPC-D-like star schema and 12 monthly sales tables@."
  | "all" ->
      List.iter (load_demo sdb) [ "purchase"; "project"; "tpcd" ]
  | other -> Fmt.epr "unknown demo %S (purchase|project|tpcd|all)@." other

let advise sdb args =
  let sqls =
    String.split_on_char ';' args
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  match sqls with
  | [] -> Fmt.epr "usage: \\advise SELECT ...; SELECT ...@."
  | _ ->
      let workload = List.map Sqlfe.Parser.parse_query_string sqls in
      let outcome =
        Core.Advisor.advise ~db:(Core.Softdb.db sdb)
          ~stats:(Core.Softdb.statistics sdb)
          ~catalog:(Core.Softdb.catalog sdb) ~workload ()
      in
      Fmt.pr "%d candidates mined@." outcome.Core.Advisor.candidates;
      List.iter
        (fun a -> Fmt.pr "  %a@." Core.Selection.pp_assessment a)
        outcome.Core.Advisor.assessed;
      Fmt.pr "%d installed@." (List.length outcome.Core.Advisor.installed)

(* The index advisor: rank candidate secondary indexes for the queries
   accumulated in sys.query_log, folding in what the SC catalog knows
   (band-bounded columns, FDs that make covering extensions free), and
   print each as a ready-to-run CREATE INDEX ... ONLINE statement. *)
let advise_indexes sdb =
  match Core.Softdb.advise sdb with
  | [] ->
      Fmt.pr
        "no index candidates — the query log is empty or every candidate \
         is already indexed@."
  | cands ->
      List.iteri
        (fun i (c : Idx.Advisor.candidate) ->
          Fmt.pr "%2d. %s(%s)%s  score %.2f  (%d quer%s) — %s@." (i + 1)
            c.Idx.Advisor.cand_table
            (String.concat ", " c.Idx.Advisor.cand_columns)
            (if c.Idx.Advisor.cand_covering then " covering" else "")
            c.Idx.Advisor.cand_score c.Idx.Advisor.cand_queries
            (if c.Idx.Advisor.cand_queries = 1 then "y" else "ies")
            c.Idx.Advisor.cand_reason;
          Fmt.pr "      %s;@." (Core.Softdb.advice_statement c))
        cands

let exec_line ?link sdb line =
  let line = String.trim line in
  if line = "" then ()
  else if String.length line > 0 && line.[0] = '\\' then begin
    let cmd, rest =
      match String.index_opt line ' ' with
      | Some i ->
          ( String.sub line 0 i,
            String.sub line (i + 1) (String.length line - i - 1) )
      | None -> (line, "")
    in
    match cmd with
    | "\\catalog" -> Fmt.pr "%a@." Core.Sc_catalog.pp (Core.Softdb.catalog sdb)
    | "\\constraints" ->
        List.iter
          (fun ic -> Fmt.pr "  %a@." Rel.Icdef.pp ic)
          (Rel.Database.constraints (Core.Softdb.db sdb))
    | "\\advise" -> handle_error (fun () -> advise sdb rest)
    | "\\iadvise" -> handle_error (fun () -> advise_indexes sdb)
    | "\\off" ->
        handle_error (fun () ->
            print_outcome
              (Core.Softdb.Rows (Core.Softdb.query_baseline sdb rest)))
    | "\\demo" -> load_demo sdb rest
    | "\\stats" -> print_stats sdb
    | "\\checkpoint" -> (
        match link with
        | Some l ->
            handle_error (fun () ->
                Core.Recovery.checkpoint l;
                Fmt.pr "checkpointed@.")
        | None -> Fmt.epr "no WAL attached (start with --wal FILE)@.")
    | "\\quit" | "\\q" ->
        Option.iter Core.Recovery.detach link;
        exit 0
    | other -> Fmt.epr "unknown command %s@." other
  end
  else handle_error (fun () -> print_outcome (Core.Softdb.exec sdb line))

let repl ?link sdb =
  Fmt.pr
    "softdb — soft constraints in a relational optimizer.  SQL statements \
     end at end of line; \\quit to leave, \\demo purchase to load data.@.";
  let rec loop () =
    Fmt.pr "softdb> %!";
    match In_channel.input_line stdin with
    | None -> Option.iter Core.Recovery.detach link
    | Some line ->
        exec_line ?link sdb line;
        loop ()
  in
  loop ()

let run_script sdb ~stats path =
  let text = In_channel.with_open_text path In_channel.input_all in
  handle_error (fun () ->
      List.iter print_outcome (Core.Softdb.exec_script sdb text));
  if stats then print_stats sdb

(* --wal FILE: recover state from the log, then keep logging into it.
   Demo loads bulk-insert through the storage layer directly, so a
   checkpoint right after the load compacts the log into a coherent
   snapshot (schema + rows) the next startup can replay. *)
let with_wal ?(salvage = false) wal_path f =
  match wal_path with
  | None -> f (Core.Softdb.create ()) None
  | Some path ->
      let mode =
        if salvage then Core.Recovery.Salvage else Core.Recovery.Strict
      in
      let sdb, link, report =
        try Core.Recovery.resume ~mode path
        with Core.Recovery.Recovery_error reason ->
          Fmt.epr "softdb: cannot recover %s: %s@." path reason;
          exit 1
      in
      Fmt.pr "recovered state from %s@." path;
      if report.Core.Recovery.torn_tail then
        Fmt.pr "  torn tail: quarantined %d bytes to %s@."
          report.Core.Recovery.quarantined_bytes
          (Option.value ~default:"-" report.Core.Recovery.salvage_path);
      (match report.Core.Recovery.dropped_txns with
      | [] -> ()
      | dropped ->
          Fmt.pr "  interior corruption: dropped txns %s (see sys.recovery)@."
            (String.concat "," (List.map string_of_int dropped)));
      f sdb (Some link)

(* softdb serve --port PORT: the multi-session TCP server.  The accept
   loop runs on the main thread until SIGINT/SIGTERM, which flips to a
   clean shutdown: listener closed, scheduler drained, domains joined,
   WAL detached. *)
let serve ?wal_link sdb ~port ~workers ~queue ~demo =
  Option.iter
    (fun w -> if w <> "" then load_demo sdb w)
    demo;
  let server = Srv.Server.create ?workers ~queue_capacity:queue sdb in
  let actual_port, accept_loop = Srv.Server.listen_tcp server ~port in
  let stop () =
    Fmt.pr "@.shutting down...@.";
    Srv.Server.shutdown server;
    Option.iter Core.Recovery.detach wal_link;
    exit 0
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop ()));
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop ()));
  Fmt.pr "softdb serving on 127.0.0.1:%d (%d worker domains, queue %d)@."
    actual_port
    (Srv.Scheduler.workers (Srv.Server.scheduler server))
    queue;
  accept_loop ();
  Srv.Server.shutdown server;
  Option.iter Core.Recovery.detach wal_link

(* softdb benchdiff OLD NEW: the plan-quality regression gate.  Compares
   two benchrun reports (BENCH.json) under the per-metric thresholds —
   deterministic metrics gate hard, wall clock is report-only — and
   exits 1 on regression, 2 on unreadable/incompatible input. *)
let benchdiff old_path new_path =
  match
    let old_run = Benchkit.Measure.load old_path in
    let new_run = Benchkit.Measure.load new_path in
    Benchkit.Diff.compare_runs ~old_run ~new_run ()
  with
  | outcome ->
      Fmt.pr "%a" Benchkit.Diff.render outcome;
      if not (Benchkit.Diff.passed outcome) then exit 1
  | exception Benchkit.Measure.Schema_error m ->
      Fmt.epr "benchdiff: schema error: %s@." m;
      exit 2
  | exception Benchkit.Json.Parse_error (m, off) ->
      Fmt.epr "benchdiff: malformed JSON (offset %d): %s@." off m;
      exit 2
  | exception Sys_error m ->
      Fmt.epr "benchdiff: %s@." m;
      exit 2

(* softdb check: the static soundness verifier.  Builds every query-suite
   fixture at the given scale, checks rewrite certificates and twin
   isolation against each fixture's catalog, lints the catalogs, and —
   when a source root is given (default: cwd if it holds dune-project) —
   runs the lock-order and interface-coverage lints.  Exits 1 on any
   error diagnostic; warnings are report-only. *)
let check ~root ~scale ~explain ~report_file =
  let scale =
    match Benchkit.Scenario.scale_of_name scale with
    | Some s -> s
    | None ->
        Fmt.epr "check: unknown scale %S (quick|full)@." scale;
        exit 2
  in
  let root =
    match root with
    | Some r -> Some r
    | None ->
        if Sys.file_exists (Filename.concat (Sys.getcwd ()) "dune-project")
        then Some (Sys.getcwd ())
        else None
  in
  let fixtures =
    List.map
      (fun (f : Benchkit.Scenario.fixture) ->
        {
          Check.Driver.fx_name = f.Benchkit.Scenario.fixture_name;
          fx_sdb = f.Benchkit.Scenario.fixture_setup scale;
          fx_queries = f.Benchkit.Scenario.fixture_queries;
        })
      Benchkit.Scenario.fixtures
  in
  let report, diags = Check.Driver.run ~explain ?root fixtures in
  print_string report;
  Option.iter
    (fun path -> Out_channel.with_open_text path (fun oc ->
         Out_channel.output_string oc report))
    report_file;
  if Check.Diag.has_errors diags then exit 1

(* ---- cmdliner wiring --------------------------------------------------- *)

open Cmdliner

let wal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "wal" ] ~docv:"FILE"
        ~doc:
          "Write-ahead log: recover state from $(docv) at startup (absent or \
           empty is fine), then log every statement into it.")

let salvage_arg =
  Arg.(
    value & flag
    & info [ "salvage" ]
        ~doc:
          "Recover in salvage mode: interior WAL corruption drops only the \
           affected transactions (quarantined to FILE.salvage, reported in \
           sys.recovery) instead of refusing to start.  A torn tail is \
           salvaged in either mode.")

let repl_cmd =
  let doc = "interactive SQL shell" in
  Cmd.v (Cmd.info "repl" ~doc)
    Term.(
      const (fun wal salvage ->
          with_wal ~salvage wal (fun sdb link -> repl ?link sdb))
      $ wal_arg $ salvage_arg)

let run_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.sql")
  in
  let stats =
    Arg.(value & flag
         & info [ "stats" ] ~doc:"dump metrics and query-log after the run")
  in
  let doc = "execute a SQL script" in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const (fun wal salvage stats f ->
          with_wal ~salvage wal (fun sdb link ->
              run_script sdb ~stats f;
              Option.iter Core.Recovery.detach link))
      $ wal_arg $ salvage_arg $ stats $ file)

let demo_cmd =
  let which =
    Arg.(value & pos 0 string "purchase" & info [] ~docv:"WORKLOAD")
  in
  let doc = "preload a demo workload (purchase|project|tpcd|all), then repl" in
  Cmd.v (Cmd.info "demo" ~doc)
    Term.(
      const (fun wal w ->
          with_wal wal (fun sdb link ->
              load_demo sdb w;
              Option.iter Core.Recovery.checkpoint link;
              repl ?link sdb))
      $ wal_arg $ which)

let serve_cmd =
  let port =
    Arg.(
      value & opt int 5433
      & info [ "port"; "p" ] ~docv:"PORT"
          ~doc:"TCP port to listen on (0 picks an ephemeral port).")
  in
  let workers =
    Arg.(
      value
      & opt (some int) None
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker domains (default: scaled to available cores).")
  in
  let queue =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admission queue capacity; requests beyond it are rejected with a \
             retry-after hint.")
  in
  let demo =
    Arg.(
      value
      & opt (some string) None
      & info [ "demo" ] ~docv:"WORKLOAD"
          ~doc:"Preload a demo workload (purchase|project|tpcd|all) before \
                serving.")
  in
  let doc = "serve SQL over TCP to concurrent sessions" in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const (fun wal salvage port workers queue demo ->
          with_wal ~salvage wal (fun sdb link ->
              serve ?wal_link:link sdb ~port ~workers ~queue ~demo))
      $ wal_arg $ salvage_arg $ port $ workers $ queue $ demo)

let advise_cmd =
  let file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE.sql")
  in
  let demo =
    Arg.(
      value
      & opt (some string) None
      & info [ "demo" ] ~docv:"WORKLOAD"
          ~doc:"Preload a demo workload (purchase|project|tpcd|all) first.")
  in
  let doc =
    "rank candidate secondary indexes for a workload: recover state \
     (--wal) and/or preload a demo and/or run a SQL script, then mine \
     sys.query_log against the soft-constraint catalog and print one \
     CREATE INDEX ... ONLINE statement per candidate"
  in
  Cmd.v (Cmd.info "advise" ~doc)
    Term.(
      const (fun wal salvage demo file ->
          with_wal ~salvage wal (fun sdb link ->
              Option.iter (load_demo sdb) demo;
              Option.iter (fun f -> run_script sdb ~stats:false f) file;
              handle_error (fun () -> advise_indexes sdb);
              Option.iter Core.Recovery.detach link))
      $ wal_arg $ salvage_arg $ demo $ file)

let benchdiff_cmd =
  let old_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD.json")
  in
  let new_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW.json")
  in
  let doc =
    "compare two benchmark reports (deterministic metrics gate hard, \
     wall-clock is report-only); exit 1 on regression"
  in
  Cmd.v (Cmd.info "benchdiff" ~doc)
    Term.(const benchdiff $ old_arg $ new_arg)

let check_cmd =
  let root =
    Arg.(
      value
      & opt (some dir) None
      & info [ "root" ] ~docv:"DIR"
          ~doc:
            "Source root for the lock-order and interface-coverage lints \
             (default: the working directory when it holds dune-project; \
             otherwise the source lints are skipped).")
  in
  let scale =
    Arg.(
      value & opt string "quick"
      & info [ "scale" ] ~docv:"SCALE"
          ~doc:"Fixture scale (quick|full) for the certificate checks.")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:"Print each fixture query's rewrite certificates.")
  in
  let report_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:"Also write the check report to $(docv).")
  in
  let doc =
    "statically verify rewrite certificates, lint the SC catalog, and check \
     lock ordering, guarded-by coverage and interface coverage; exit 1 on \
     any error"
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const (fun root scale explain report_file ->
          check ~root ~scale ~explain ~report_file)
      $ root $ scale $ explain $ report_file)

let main =
  let doc = "soft constraints in a relational query optimizer" in
  Cmd.group
    ~default:
      Term.(
        const (fun wal salvage ->
            with_wal ~salvage wal (fun sdb link -> repl ?link sdb))
        $ wal_arg $ salvage_arg)
    (Cmd.info "softdb" ~doc)
    [ repl_cmd; run_cmd; demo_cmd; advise_cmd; serve_cmd; benchdiff_cmd;
      check_cmd ]

let () = exit (Cmd.eval main)
