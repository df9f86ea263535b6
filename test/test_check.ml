(* Tests for the static-analysis subsystem (lib/check): the certificate
   checker rejects deliberately unsound certificates and accepts every
   certificate the rewriter actually emits; the catalog linter flags a
   contradictory SC pair, duplicate FDs, dead SSCs and an enforced key
   with no unique index behind it; the lock-order
   lint catches rank inversions and unannotated sites in synthetic
   sources and passes on the real tree; the interface-coverage lint
   passes on the real tree, where lib/core and lib/exec keep no
   process-global mutable state; the differential check re-runs every
   query-suite scenario with rewrites on vs off and demands identical
   result sets; sc_guard_fallbacks counts exactly once per guarded
   statement (multi-guard plans, re-executed invalidated cache entries);
   and prepared plans fall back exactly where ad-hoc execution does. *)

open Rel

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let errors_of diags = List.length (Check.Diag.errors diags)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let has_error_containing diags sub =
  List.exists
    (fun (d : Check.Diag.t) ->
      Check.Diag.is_error d && contains d.Check.Diag.message sub)
    diags

let has_diag_containing diags sub =
  List.exists
    (fun (d : Check.Diag.t) -> contains d.Check.Diag.message sub)
    diags

(* ---- fixtures -------------------------------------------------------------- *)

(* [late = 0.0] mines the band as absolute; a positive late fraction
   leaves violations so a sub-1.0 band stays statistical. *)
let purchase_banded ?(confidence = 1.0) ?(name = "band") ?(late = 0.0) () =
  let sdb = Core.Softdb.create () in
  Workload.Purchase.load
    ~config:
      {
        Workload.Purchase.default_config with
        rows = 3_000;
        late_fraction = late;
        seed = 7;
      }
    (Core.Softdb.db sdb);
  Core.Softdb.runstats sdb;
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
       (Core.Soft_constraint.Diff_stmt (d, band)));
  sdb

let ship_eq = "SELECT * FROM purchase WHERE ship_date = DATE '1999-06-15'"

let violating_insert sdb =
  Workload.Purchase.insert_batch ~violating:1.0 ~rng:(Stats.Rng.create 97)
    ~start_id:9_000_000 ~count:1 (Core.Softdb.db sdb)

(* ---- certificate checker --------------------------------------------------- *)

(* The rewriter's own certificate on the banded fixture is sound... *)
let test_cert_sound () =
  let sdb = purchase_banded () in
  let report, diags = Check.Cert.check_query sdb ship_eq in
  check tbool "predicate_introduction fired" true
    (Opt.Explain.certificates report <> []);
  check tint "no diagnostics" 0 (List.length diags)

(* ...and hand-tampered variants of it are each rejected. *)
let test_cert_unsound () =
  let sdb = purchase_banded () in
  let report =
    Core.Softdb.optimize sdb (Sqlfe.Parser.parse_query_string ship_eq)
  in
  let c =
    match Opt.Explain.certificates report with
    | c :: _ -> c
    | [] -> Alcotest.fail "expected a certificate"
  in
  let guards = report.Opt.Explain.guards in
  let recheck ?(guards = guards) ?(has_backup = true) c =
    Check.Cert.check_certificate sdb ~guards ~has_backup c
  in
  check tint "sound as emitted" 0 (List.length (recheck c));
  check tbool "unknown premise is rejected" true
    (has_error_containing
       (recheck { c with Opt.Explain.cert_premises = [ "no_such_sc" ] })
       "no declared IC or catalog SC");
  check tbool "ASC premise outside the guard set is rejected" true
    (has_error_containing (recheck ~guards:[] c) "not in the plan's guard set");
  check tbool "guarded plan without backup is rejected" true
    (has_error_containing (recheck ~has_backup:false c) "no backup");
  check tbool "flag/delta disagreement is rejected" true
    (has_error_containing
       (recheck { c with Opt.Explain.cert_result_changing = false })
       "disagrees with the delta");
  check tbool "delta shape must match the rule" true
    (has_error_containing
       (recheck { c with Opt.Explain.cert_rule = "twinning" })
       "does not match the rule");
  check tbool "rule requiring premises may not name none" true
    (has_error_containing
       (recheck { c with Opt.Explain.cert_premises = [] })
       "requires a constraint basis");
  (* an overturned SC is no longer a valid basis *)
  violating_insert sdb;
  check tbool "overturned premise is rejected" true
    (has_error_containing (recheck c) "not usable")

let test_cert_statistical_basis () =
  let sdb = purchase_banded ~confidence:0.99 ~name:"band_ssc" ~late:0.01 () in
  let report =
    Core.Softdb.optimize sdb (Sqlfe.Parser.parse_query_string ship_eq)
  in
  (* forge a result-changing certificate resting on the statistical band *)
  let forged =
    {
      Opt.Explain.cert_rule = "predicate_introduction";
      cert_detail = "forged";
      cert_premises = [ "band_ssc" ];
      cert_delta = Opt.Rewrite.Pred_added Expr.Ptrue;
      cert_result_changing = true;
    }
  in
  let diags =
    Check.Cert.check_certificate sdb ~guards:report.Opt.Explain.guards
      ~has_backup:true forged
  in
  check tbool "statistical basis for result-changing rewrite rejected" true
    (has_error_containing diags "estimation-only basis");
  (* an exception table holding the violators makes the same SSC an exact
     basis for the exception union (paper §4.4), and for nothing else *)
  ignore
    (Core.Softdb.exec sdb
       "CREATE EXCEPTION TABLE band_exc FOR CONSTRAINT band_ssc");
  check tbool "exception table licenses no other rule" true
    (has_error_containing
       (Check.Cert.check_certificate sdb ~guards:report.Opt.Explain.guards
          ~has_backup:true forged)
       "estimation-only basis");
  check tint "exception-backed SSC certifies the exception union" 0
    (List.length
       (Check.Cert.check_certificate sdb ~guards:[ "band_ssc" ]
          ~has_backup:true
          {
            forged with
            Opt.Explain.cert_rule = "exception_union";
            cert_delta =
              Opt.Rewrite.Union_split
                { fast_pred = Expr.Ptrue; exc_table = "band_exc" };
          }))

(* Twins stay estimation-only: the SSC fixture's twinned query produces a
   clean report, and the checker would catch a twin leaked into the plan. *)
let test_twin_isolation () =
  let sdb = purchase_banded ~confidence:0.99 ~name:"band_ssc" ~late:0.01 () in
  let sql =
    "SELECT * FROM purchase WHERE order_date BETWEEN DATE '1999-06-01' AND \
     DATE '1999-06-30' AND ship_date <= DATE '1999-07-05'"
  in
  let report, diags = Check.Cert.check_query sdb sql in
  check tbool "twinning fired" true
    (List.exists
       (fun (c : Opt.Explain.certificate) ->
         c.Opt.Explain.cert_rule = "twinning")
       (Opt.Explain.certificates report));
  check tint "twinned report is clean" 0 (List.length diags);
  (* graft the twin into the executable plan: the checker must object *)
  let twin_pred =
    List.find_map
      (fun (c : Opt.Explain.certificate) ->
        match c.Opt.Explain.cert_delta with
        | Opt.Rewrite.Pred_twinned { pred; _ } -> Some pred
        | _ -> None)
      (Opt.Explain.certificates report)
  in
  let twin_pred = Option.get twin_pred in
  let leaked =
    {
      report with
      Opt.Explain.plan =
        Exec.Plan.Filter { input = report.Opt.Explain.plan; pred = twin_pred };
    }
  in
  check tbool "leaked twin predicate is caught" true
    (has_error_containing
       (Check.Cert.check_report sdb leaked)
       "appears among the plan's executable predicates")

(* An SSC difference band with an exception table: the exception union
   folds the ship_date window into an executed order_date range that is,
   text for text, the twin the same band yields for estimation.  The
   isolation pass tells them apart by origin and passes the plan. *)
let test_twin_beside_exception_union () =
  let sdb = purchase_banded ~confidence:0.99 ~name:"band_ssc" ~late:0.01 () in
  ignore
    (Core.Softdb.exec sdb
       "CREATE EXCEPTION TABLE band_exc FOR CONSTRAINT band_ssc");
  let sql =
    "SELECT * FROM purchase WHERE order_date BETWEEN DATE '1999-01-01' AND \
     DATE '1999-12-31' AND ship_date BETWEEN DATE '1999-07-01' AND DATE \
     '1999-07-07'"
  in
  let report, diags = Check.Cert.check_query sdb sql in
  let rec preds acc = function
    | Opt.Logical.Block b -> b.Opt.Logical.preds @ acc
    | Opt.Logical.Union ts -> List.fold_left preds acc ts
  in
  let items = preds [] report.Opt.Explain.rewritten in
  let twins =
    List.filter
      (fun (p : Opt.Logical.pred_item) -> p.Opt.Logical.estimation_only)
      items
  and folds = List.filter Opt.Logical.is_folded items in
  check tbool "a twin equals an executed fold" true
    (List.exists
       (fun (t : Opt.Logical.pred_item) ->
         List.exists
           (fun (f : Opt.Logical.pred_item) ->
             f.Opt.Logical.pred = t.Opt.Logical.pred)
           folds)
       twins);
  check tint "twin beside the union is clean" 0 (List.length diags);
  let on = Core.Softdb.query sdb sql in
  check tbool "answers unchanged" true
    (Exec.Executor.same_rows on (Core.Softdb.query_baseline sdb sql))

(* ---- catalog linter -------------------------------------------------------- *)

let test_catalog_contradiction () =
  let sdb = Core.Softdb.create () in
  ignore (Core.Softdb.exec sdb "CREATE TABLE t (v INT)");
  ignore
    (Core.Softdb.exec sdb
       "ALTER TABLE t ADD CONSTRAINT c_lo CHECK (v >= 10) SOFT");
  check tint "single check is fine" 0
    (errors_of (Check.Catalog_lint.lint sdb));
  ignore
    (Core.Softdb.exec sdb
       "ALTER TABLE t ADD CONSTRAINT c_hi CHECK (v <= 5) SOFT");
  let diags = Check.Catalog_lint.lint sdb in
  check tbool "contradictory pair is an error" true
    (has_error_containing diags "contradictory")

(* Two declared linear bands on the same column pair, parallel and a
   band apart: no row can satisfy both. *)
let test_catalog_contradictory_lines () =
  let sdb = Core.Softdb.create () in
  ignore (Core.Softdb.exec sdb "CREATE TABLE t (a FLOAT, b FLOAT)");
  let band name c =
    ignore
      (Core.Softdb.exec sdb
         (Printf.sprintf
            "ALTER TABLE t ADD CONSTRAINT %s CHECK (a BETWEEN 2 * b + %d - 1 \
             AND 2 * b + %d + 1) SOFT"
            name c c))
  in
  band "line_lo" 1;
  band "line_mid" 2;
  check tint "overlapping lines are fine" 0
    (errors_of (Check.Catalog_lint.lint sdb));
  band "line_hi" 10;
  check tbool "disjoint lines are an error" true
    (has_error_containing (Check.Catalog_lint.lint sdb) "disjoint")

let test_catalog_fd_dupes () =
  let sdb = Core.Softdb.create () in
  ignore (Core.Softdb.exec sdb "CREATE TABLE p (a INT, b INT, c INT)");
  let install name lhs =
    Core.Softdb.install_sc sdb
      (Core.Soft_constraint.make ~name ~table:"p" ~installed_at_mutations:0
         (Core.Soft_constraint.Fd_stmt
            { Mining.Fd_mine.table = "p"; lhs; rhs = "c" }))
  in
  install "fd_wide" [ "a"; "b" ];
  install "fd_narrow" [ "a" ];
  install "fd_narrow2" [ "a" ];
  let diags = Check.Catalog_lint.lint sdb in
  check tbool "subsumed FD flagged" true (has_diag_containing diags "subsumed");
  check tbool "duplicate FD flagged" true
    (has_diag_containing diags "duplicates");
  check tint "lint warnings are not errors" 0 (errors_of diags)

let test_catalog_dead_ssc () =
  let sdb = purchase_banded ~confidence:0.99 ~name:"band_ssc" ~late:0.01 () in
  check tint "live SSC is clean" 0 (List.length (Check.Catalog_lint.lint sdb));
  (* push the currency anchor far into the past: the §3.3 decay drives
     the usable confidence to the floor and the linter calls it dead *)
  let sc =
    Option.get (Core.Sc_catalog.find (Core.Softdb.catalog sdb) "band_ssc")
  in
  sc.Core.Soft_constraint.installed_at_mutations <- -1_000_000;
  let diags = Check.Catalog_lint.lint sdb in
  check tbool "decayed SSC flagged as dead weight" true
    (List.exists
       (fun (d : Check.Diag.t) ->
         d.Check.Diag.severity = Check.Diag.Warning
         && d.Check.Diag.pass = "catalog")
       diags)

(* The exception-union contract: the exception table holds exactly the
   base rows that violate the SC's current check.  A check widened after
   a violation was stored (what a repair of an exception-backed ASC used
   to do) admits the stored row to the fast branch too. *)
let test_catalog_exception_contract () =
  let sdb = purchase_banded () in
  ignore
    (Core.Softdb.exec sdb "CREATE EXCEPTION TABLE band_exc FOR CONSTRAINT band");
  ignore
    (Core.Softdb.exec sdb
       "INSERT INTO purchase VALUES (900001, 1, DATE '1999-06-01', \
        DATE '1999-07-11', 10.0, 1, 'north')");
  let contract diags = has_error_containing diags "does not hold exactly" in
  check tbool "stored violation keeps the contract" false
    (contract (Check.Catalog_lint.lint sdb));
  let sc = Option.get (Core.Sc_catalog.find (Core.Softdb.catalog sdb) "band") in
  (match
     Option.bind (Core.Soft_constraint.check_pred sc) Mining.Band.of_pred
   with
  | Some band ->
      let wider =
        { band with map = { band.Mining.Band.map with above = 40.0 } }
      in
      Core.Sc_catalog.set_statement (Core.Softdb.catalog sdb) sc
        (Core.Soft_constraint.Ic_stmt
           (Icdef.Check (Mining.Band.to_pred wider)))
  | None -> Alcotest.fail "expected a difference band");
  check tbool "widened check breaks the contract" true
    (contract (Check.Catalog_lint.lint sdb))

(* An enforced key is checked on every insert; without a unique index on
   exactly its columns the check scans the whole table. *)
let test_catalog_unindexed_key () =
  let sdb = Core.Softdb.create () in
  let db = Core.Softdb.db sdb in
  ignore
    (Database.create_table db
       (Schema.make "k"
          [
            Schema.column ~nullable:false "id" Value.TInt;
            Schema.column "v" Value.TInt;
          ]));
  Database.add_constraint db
    (Icdef.make ~name:"k_pk" ~table:"k" (Icdef.Primary_key [ "id" ]));
  Database.add_constraint db
    (Icdef.make ~enforcement:Icdef.Informational ~name:"k_v" ~table:"k"
       (Icdef.Unique [ "v" ]));
  let scans () =
    List.filter
      (fun (d : Check.Diag.t) ->
        contains d.Check.Diag.message "every insert scans the table")
      (Check.Catalog_lint.lint sdb)
  in
  (match scans () with
  | [ d ] ->
      check tbool "names the enforced key" true
        (contains d.Check.Diag.message "k_pk");
      check tbool "a warning" true (d.Check.Diag.severity = Check.Diag.Warning)
  | ds -> Alcotest.failf "expected one key diagnostic, got %d" (List.length ds));
  ignore
    (Database.create_index db ~name:"k_id_plain" ~table:"k" ~columns:[ "id" ]
       ());
  check tint "a non-unique index does not back it" 1 (List.length (scans ()));
  ignore
    (Database.create_index db ~name:"k_id_idx" ~table:"k" ~columns:[ "id" ]
       ~unique:true ());
  check tint "a unique index on its columns does" 0 (List.length (scans ()));
  ignore
    (Core.Softdb.exec sdb "CREATE TABLE s (id INT PRIMARY KEY, w INT)");
  ignore (Core.Softdb.exec sdb "ALTER TABLE s ADD CONSTRAINT s_w UNIQUE (w)");
  check tint "SQL-declared keys come index-backed" 0 (List.length (scans ()));
  let project = Core.Softdb.create () in
  Workload.Project.load
    ~config:{ Workload.Project.default_config with rows = 50 }
    (Core.Softdb.db project);
  check tint "the project loader backs its key" 0
    (List.length (Check.Catalog_lint.lint project))

(* ---- lock-order lint ------------------------------------------------------- *)

let decls =
  "(* @lock-order lk.a rank=10 *)\n\
   (* @lock-order lk.b rank=20 *)\n\
   (* @lock-order lk.r rank=30 reentrant *)\n"

(* Satellite hardening: a [while <held>] clause naming an undeclared
   lock is its own error (not silently treated as rank 0), and two locks
   declaring the same rank is ambiguous. *)
let test_lock_lint_hardening () =
  let lint body = Check.Lock_lint.lint_sources [ ("hard.ml", decls ^ body) ] in
  check tbool "@acquires while-clause naming undeclared lock fails" true
    (has_error_containing
       (lint "(* @acquires lk.b while lk.zzz *)\nlet f m = Mutex.lock m\n")
       "while clause of @acquires");
  check tbool "@waits while-clause naming undeclared lock fails" true
    (has_error_containing
       (lint
          "(* @waits lk.b while lk.zzz *)\nlet f c = Condition.wait c m\n")
       "@waits while clause names undeclared lock");
  check tbool "duplicate rank under two names fails" true
    (has_error_containing
       (Check.Lock_lint.lint_sources
          [ ( "d.ml",
              "(* @lock-order lk.x rank=7 *)\n\
               (* @lock-order lk.y rank=7 *)\n" ) ])
       "duplicate rank")

let test_lock_lint_synthetic () =
  let lint body = Check.Lock_lint.lint_sources [ ("good.ml", decls ^ body) ] in
  check tint "ordered acquisition passes" 0
    (errors_of
       (lint "(* @acquires lk.b while lk.a *)\nlet f m = Mutex.lock m\n"));
  check tbool "rank inversion fails" true
    (has_error_containing
       (lint "(* @acquires lk.a while lk.b *)\nlet f m = Mutex.lock m\n")
       "lock-order violation");
  check tbool "unannotated acquisition fails" true
    (has_error_containing (lint "let f m = Mutex.lock m\n") "unannotated");
  check tbool "undeclared lock fails" true
    (has_error_containing
       (lint "(* @acquires lk.zzz *)\nlet f m = Mutex.lock m\n")
       "undeclared");
  check tint "reentrant self-acquisition passes" 0
    (errors_of
       (lint "(* @acquires lk.r while lk.r *)\nlet f m = Mutex.lock m\n"));
  check tbool "non-reentrant self-acquisition fails" true
    (has_error_containing
       (lint "(* @acquires lk.a while lk.a *)\nlet f m = Mutex.lock m\n")
       "re-acquires");
  check tbool "waiting on an undeclared lock fails" true
    (has_error_containing
       (lint "(* @waits lk.zzz *)\nlet f c = Condition.wait c\n")
       "undeclared");
  check tint "lock-ignore suppresses" 0
    (errors_of (lint "(* @lock-ignore *)\nlet f m = Mutex.lock m\n"));
  check tbool "conflicting declarations fail" true
    (has_error_containing
       (Check.Lock_lint.lint_sources
          [ ("a.ml", "(* @lock-order lk.x rank=1 *)\n");
            ("b.ml", "(* @lock-order lk.x rank=2 *)\n") ])
       "conflicting")

(* ---- guarded-by lint ------------------------------------------------------- *)

(* Sites that reference every declared rank, so none is dead and lk.a /
   lk.b are holdable guards. *)
let guard_site =
  "(* @acquires lk.b while lk.a *)\n\
   let f m = Mutex.lock m\n\
   (* @acquires lk.r while lk.r *)\n\
   let g m = Mutex.lock m\n"

let guard_lint body =
  Check.Guard_lint.lint_sources [ ("g.ml", decls ^ guard_site ^ body) ]

let test_guard_lint_synthetic () =
  check tint "guarded mutable field passes" 0
    (errors_of
       (guard_lint
          "type t = {\n  (* @guarded-by lk.a *)\n  mutable x : int;\n}\n"));
  check tint "block annotation covers every field of the record" 0
    (errors_of
       (guard_lint
          "(* @guarded-by lk.a *)\n\
           type t = {\n\
          \  mutable x : int;\n\
          \  mutable y : int;\n\
           }\n"));
  check tint "confinement waiver passes" 0
    (errors_of
       (guard_lint
          "type t = {\n\
          \  (* @guarded-by none: confined to the owner thread *)\n\
          \  mutable x : int;\n\
           }\n"));
  check tbool "unannotated mutable field fails" true
    (has_error_containing
       (guard_lint "type t = {\n  mutable x : int;\n}\n")
       "no @guarded-by annotation");
  check tbool "unannotated global ref fails" true
    (has_error_containing (guard_lint "let cache = ref 0\n")
       "no @guarded-by annotation");
  check tint "annotated global ref passes" 0
    (errors_of (guard_lint "(* @guarded-by lk.a *)\nlet cache = ref 0\n"));
  check tbool "unannotated mutable container field fails" true
    (has_error_containing
       (guard_lint "type t = {\n  tbl : (string, int) Hashtbl.t;\n}\n")
       "no @guarded-by annotation");
  check tbool "guard naming an undeclared lock fails" true
    (has_error_containing
       (guard_lint
          "type t = {\n  (* @guarded-by lk.zzz *)\n  mutable x : int;\n}\n")
       "undeclared lock");
  (* lk.c is declared and guards the field, but no @acquires/@waits site
     ever holds it: the guard is unenforceable *)
  check tbool "guard never held by any site fails" true
    (has_error_containing
       (Check.Guard_lint.lint_sources
          [ ( "g.ml",
              decls ^ "(* @lock-order lk.c rank=40 *)\n" ^ guard_site
              ^ "type t = {\n  (* @guarded-by lk.c *)\n  mutable x : int;\n}\n"
            ) ])
       "ever holds this lock");
  check tbool "rank referenced by nothing is dead" true
    (has_error_containing
       (Check.Guard_lint.lint_sources
          [ ("g.ml", decls ^ "(* @lock-order lk.dead rank=99 *)\n" ^ guard_site)
          ])
       "dead @lock-order rank")

(* ---- lockdep witness (runtime) --------------------------------------------- *)

let test_lockdep_witness () =
  Obs.Lockdep.enable ();
  Obs.Lockdep.reset ();
  Fun.protect ~finally:(fun () ->
      Obs.Lockdep.reset ();
      Obs.Lockdep.disable ())
  @@ fun () ->
  Obs.Lockdep.acquire "w.a";
  Obs.Lockdep.acquire "w.b";
  check tint "depth tracks distinct held locks" 2
    (Obs.Lockdep.max_held_depth ());
  Obs.Lockdep.release "w.b";
  Obs.Lockdep.release "w.a";
  check tbool "ordered acquisition is violation-free" true
    (Obs.Lockdep.violations () = []);
  check tbool "edge recorded" true
    (List.exists
       (fun (h, a, _) -> h = "w.a" && a = "w.b")
       (Obs.Lockdep.edge_list ()));
  (* the reverse nesting closes a cycle in the edge graph *)
  Obs.Lockdep.acquire "w.b";
  Obs.Lockdep.acquire "w.a";
  check tbool "cycle detected live" true
    (List.exists
       (fun v -> contains v "lock-order cycle")
       (Obs.Lockdep.violations ()));
  (* re-acquiring a lock this thread already holds *)
  Obs.Lockdep.acquire "w.a";
  check tbool "non-reentrant re-acquisition detected" true
    (List.exists
       (fun v -> contains v "re-acquired non-reentrant lock w.a")
       (Obs.Lockdep.violations ()));
  let before = List.length (Obs.Lockdep.violations ()) in
  Obs.Lockdep.acquire ~reentrant:true "w.a";
  check tint "reentrant re-acquisition adds no violation" before
    (List.length (Obs.Lockdep.violations ()));
  (* the graph the lint reads is the witness's own state *)
  let g = Obs.Lockdep.graph () in
  check tbool "graph holds the observed edges" true
    (g.Obs.Lockdep.g_edges = Obs.Lockdep.edge_list ());
  check tbool "graph holds the live violations" true
    (g.Obs.Lockdep.g_violations = Obs.Lockdep.violations ())

let test_lockdep_disabled_is_inert () =
  Obs.Lockdep.disable ();
  Obs.Lockdep.reset ();
  Obs.Lockdep.acquire "w.z";
  Obs.Lockdep.acquire "w.y";
  check tint "disabled witness records nothing" 0
    (Obs.Lockdep.edges_observed ());
  check tbool "disabled witness has no coverage" true
    (Obs.Lockdep.lock_list () = [])

(* ---- lockdep cross-validation lint ------------------------------------------ *)

(* Shared rank table for the synthetic graphs: lk.a 10, lk.b 20,
   lk.r 30 reentrant (from [decls]). *)
let ld_sources = [ ("decls.ml", decls) ]

let ld_graph ?(cover = [ "lk.a"; "lk.b"; "lk.r" ]) ?(violations = []) edges =
  {
    Obs.Lockdep.g_locks = cover;
    g_edges = edges;
    g_violations = violations;
  }

let ld_lint ?cover ?violations edges =
  Check.Lockdep_lint.lint ~sources:ld_sources
    (ld_graph ?cover ?violations edges)

let test_lockdep_lint_synthetic () =
  check tint "rank-ordered edge set passes" 0
    (errors_of (ld_lint [ ("lk.a", "lk.b", 3); ("lk.b", "lk.r", 1) ]));
  check tbool "observed inversion contradicts the rank table" true
    (has_error_containing
       (ld_lint [ ("lk.b", "lk.a", 2) ])
       "lock-order inversion");
  check tbool "edge naming an undeclared lock fails" true
    (has_error_containing
       (ld_lint [ ("lk.a", "lk.zzz", 1) ])
       "undeclared lock lk.zzz");
  check tbool "observed self-edge on a non-reentrant lock fails" true
    (has_error_containing
       (ld_lint [ ("lk.a", "lk.a", 1) ])
       "re-acquisition of non-reentrant lock lk.a");
  check tint "observed self-edge on a reentrant lock passes" 0
    (errors_of (ld_lint [ ("lk.r", "lk.r", 4) ]));
  check tbool "runtime violations surface verbatim" true
    (has_error_containing
       (ld_lint ~violations:[ "lock-order cycle: x -> y -> x" ] [])
       "runtime witness violation: lock-order cycle");
  check tbool "unexercised rank is stale" true
    (has_error_containing
       (ld_lint ~cover:[ "lk.a"; "lk.b" ] [ ("lk.a", "lk.b", 1) ])
       "stale rank: lk.r");
  check tint "a waived rank may stay unexercised" 0
    (errors_of
       (Check.Lockdep_lint.lint
          ~sources:
            [ ( "decls.ml",
                "(* @lock-order lk.a rank=10 *)\n\
                 (* @lock-order lk.w rank=50 lockdep-waive *)\n" ) ]
          (ld_graph ~cover:[ "lk.a" ] [])))

(* ---- the real tree --------------------------------------------------------- *)

(* The column-0 value bindings (not functions) of one source whose
   right-hand side makes fresh mutable state: process-global state.  A
   binding reads [let x = rhs] or [let x : ty = rhs]; the [=] and the
   right-hand side may fall on the lines after the [let], so each [let]
   is read with the few lines that follow it.  Each hit is
   [(path, line, name)]. *)
let globals_in_source ~path source =
  let fresh =
    [ "ref "; "Hashtbl.create"; "Key_tbl.create"; "Queue.create";
      "Atomic.make"; "Mutex.create"; "Array.make"; "Bytes.create";
      "Bytes.make" ]
  in
  let lines = Array.of_list (String.split_on_char '\n' source) in
  (* [let name = rhs] or [let name : ty = rhs], as (name, rhs); a
     function's parameters make it no value binding *)
  let value_binding text =
    match String.index_opt text '=' with
    | None -> None
    | Some eq -> (
        match
          String.split_on_char ' ' (String.sub text 4 (eq - 4))
          |> List.filter (( <> ) "")
        with
        | [ name ] | name :: ":" :: _ ->
            Some
              ( name,
                String.trim
                  (String.sub text (eq + 1) (String.length text - eq - 1)) )
        | _ -> None)
  in
  (* fresh state, or a [let ... in] whose value binding is fresh state —
     the counter a closure hides in [let f = let n = ref 0 in fun ...] *)
  let rec fresh_rhs rhs =
    List.exists (fun prefix -> String.starts_with ~prefix rhs) fresh
    || String.starts_with ~prefix:"let " rhs
       &&
       match value_binding rhs with
       | Some (_, inner) -> fresh_rhs inner
       | None -> false
  in
  let binding i =
    let window =
      String.concat " "
        (Array.to_list
           (Array.sub lines i (min 4 (Array.length lines - i))))
    in
    match value_binding window with
    | Some (name, rhs) when fresh_rhs rhs -> Some name
    | _ -> None
  in
  List.concat
    (List.init (Array.length lines) (fun i ->
         if String.starts_with ~prefix:"let " lines.(i) then
           match binding i with
           | Some name -> [ (path, i + 1, name) ]
           | None -> []
         else []))

let mutable_globals root dir =
  Sys.readdir (Filename.concat root dir)
  |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".ml")
  |> List.concat_map (fun f ->
         let path = Filename.concat dir f in
         globals_in_source ~path
           (In_channel.with_open_text (Filename.concat root path)
              In_channel.input_all))

(* The lint's own reading of bindings, on made-up sources *)
let test_globals_lint () =
  let hits source =
    List.map (fun (_, line, name) -> Printf.sprintf "%d %s" line name)
      (globals_in_source ~path:"m.ml" source)
  in
  check (Alcotest.list Alcotest.string) "every form of a global"
    [ "1 a"; "2 b"; "3 c"; "5 d"; "8 e" ]
    (hits
       "let a = ref 0\n\
        let b : int ref = ref 0\n\
        let c =\n\
       \  Hashtbl.create 16\n\
        let d : (string -> unit) ref\n\
       \    =\n\
       \  ref ignore\n\
        let e : Value.t array = Array.make 4 Value.Null\n");
  check (Alcotest.list Alcotest.string) "state a let-in hides" [ "1 f"; "5 g" ]
    (hits
       "let f =\n\
       \  let counter = ref 0 in\n\
       \  fun () -> incr counter; !counter\n\
        let k = 3\n\
        let g =\n\
       \  let seen : (int, unit) Hashtbl.t = Hashtbl.create 8 in\n\
       \  Hashtbl.mem seen\n");
  check (Alcotest.list Alcotest.string) "functions, locals and constants pass" []
    (hits
       "let f x = ref x\n\
        let g () =\n\
       \  let r = ref 0 in\n\
       \  !r\n\
        let k = 3\n\
        let s = String.make 3 'a'\n\
        let h =\n\
       \  let x = 2 in\n\
       \  x + 1\n\
        let m =\n\
       \  let make () = ref 0 in\n\
       \  make\n")

let test_real_tree_lints () =
  match Source_root.find () with
  | None -> () (* not running from a build tree; covered by `softdb check` *)
  | Some root ->
      let files = Check.Driver.lock_scan_files ~root in
      check tbool "lock lint scans the srv sources" true
        (List.exists
           (fun f -> Filename.basename f = "scheduler.ml")
           files);
      check tint "real tree is lock-clean" 0
        (errors_of (Check.Lock_lint.lint_files files));
      check tint "real tree is guard-clean" 0
        (errors_of
           (Check.Guard_lint.lint_files (Check.Driver.guard_scan_files ~root)));
      check tint "every lib module has an interface" 0
        (errors_of (Check.Iface_lint.lint ~root));
      (* engine state belongs to its database: a per-database lock's
         @guarded-by cannot cover a process global.  The WAL's fault and
         write hooks are global by design: the fault harness reaches
         storage through them from above *)
      let by_design =
        [ ("lib/rel/wal.ml", "fault_hook"); ("lib/rel/wal.ml", "write_hook") ]
      in
      let found =
        List.concat_map (mutable_globals root)
          [ "lib/core"; "lib/exec"; "lib/rel"; "lib/opt"; "lib/stats";
            "lib/idx"; "lib/mining"; "lib/sqlfe" ]
      in
      let designed, globals =
        List.partition (fun (path, _, name) -> List.mem (path, name) by_design) found
      in
      check
        Alcotest.(list (pair string string))
        "the WAL hooks are seen" by_design
        (List.map (fun (path, _, name) -> (path, name)) designed);
      check (Alcotest.list Alcotest.string) "no process globals in the engine"
        []
        (List.map
           (fun (path, line, name) -> Printf.sprintf "%s:%d %s" path line name)
           globals)

(* The .ml/.mli files under [dir] of the source tree at [root]. *)
let rec source_files root dir =
  (if Sys.file_exists (Filename.concat root dir) then
     Sys.readdir (Filename.concat root dir)
   else [||])
  |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let path = Filename.concat dir f in
         if Sys.is_directory (Filename.concat root path) then
           if f = "_build" || String.starts_with ~prefix:"." f then []
           else source_files root path
         else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
         then [ path ]
         else [])

let mentions root needle path =
  let text =
    In_channel.with_open_text (Filename.concat root path) In_channel.input_all
  in
  let n = String.length needle in
  let rec from i =
    i + n <= String.length text
    && (String.sub text i n = needle || from (i + 1))
  in
  from 0

(* One band form: a band is stored as its CHECK and read through
   [Mining.Band].  The install-time difference spelling may appear in
   lib/ only in the soft-constraint module that stores it, and the
   deleted correlation statement nowhere, so a second band form cannot
   grow back beside the first. *)
let test_one_band_form () =
  match Source_root.find () with
  | None -> () (* not running from a build tree *)
  | Some root ->
      (* spelled in two parts so this file does not name them *)
      let diff = "Diff" ^ "_stmt" and corr = "Corr" ^ "_stmt" in
      check
        Alcotest.(list string)
        "the difference spelling stays in soft_constraint.ml(i)"
        [ "lib/core/soft_constraint.ml"; "lib/core/soft_constraint.mli" ]
        (List.filter (mentions root diff) (source_files root "lib"));
      check
        Alcotest.(list string)
        "the correlation statement is gone" []
        (List.filter (mentions root corr)
           (List.concat_map (source_files root)
              [ "lib"; "bin"; "bench"; "examples"; "scbench"; "test" ]))

(* One cardinality model: the planner records every estimate and EXPLAIN
   only reads them, so Explain calls no estimator of its own and the
   deleted whole-query estimators stay deleted. *)
let test_one_estimator () =
  match Source_root.find () with
  | None -> () (* not running from a build tree *)
  | Some root ->
      (* spelled in two parts so this file does not name them *)
      check tbool "lib/opt/explain.ml names no Selectivity function" false
        (mentions root ("Selectivity" ^ ".") "lib/opt/explain.ml");
      let lib = source_files root "lib" in
      check tbool "the planner is among the sources read" true
        (List.mem "lib/opt/planner.ml" lib);
      check
        Alcotest.(list string)
        "no second whole-query estimator in lib/" []
        (List.filter
           (fun path ->
             mentions root ("query" ^ "_cardinality") path
             || mentions root ("output" ^ "_cardinality") path)
           lib)

(* ---- differential rewrite check -------------------------------------------- *)

(* Every query-suite scenario, rewrites on vs off, identical result sets
   — the dynamic complement of the certificate checker. *)
let test_differential_registry () =
  List.iter
    (fun (f : Benchkit.Scenario.fixture) ->
      let sdb = f.Benchkit.Scenario.fixture_setup Benchkit.Scenario.Quick in
      List.iter
        (fun sql ->
          let on = Core.Softdb.query ~flags:Opt.Rewrite.all_on sdb sql in
          let off = Core.Softdb.query_baseline sdb sql in
          check tbool
            (Printf.sprintf "%s: rewrites preserve results for %s"
               f.Benchkit.Scenario.fixture_name sql)
            true
            (Exec.Executor.same_rows on off))
        f.Benchkit.Scenario.fixture_queries)
    Benchkit.Scenario.fixtures

(* ...and the certificate checker is clean across the same registry. *)
let test_registry_certificates () =
  let fixtures =
    List.map
      (fun (f : Benchkit.Scenario.fixture) ->
        {
          Check.Driver.fx_name = f.Benchkit.Scenario.fixture_name;
          fx_sdb = f.Benchkit.Scenario.fixture_setup Benchkit.Scenario.Quick;
          fx_queries = f.Benchkit.Scenario.fixture_queries;
        })
      Benchkit.Scenario.fixtures
  in
  let report, diags = Check.Driver.run fixtures in
  check tint "registry certificates are clean" 0 (errors_of diags);
  check tbool "report renders a PASS line" true (contains report "PASS")

(* ---- sc_guard_fallbacks accounting ----------------------------------------- *)

let fallbacks sdb =
  Obs.Metrics.counter (Core.Softdb.metrics sdb) "sc_guard_fallbacks"

(* One guarded statement with several failed guards still counts once. *)
let test_fallback_once_per_statement () =
  let sdb = purchase_banded () in
  let tbl = Database.table_exn (Core.Softdb.db sdb) "purchase" in
  let d =
    Option.get
      (Mining.Diff_band.mine tbl ~col_hi:"ship_date" ~col_lo:"order_date")
  in
  let band = Option.get (Mining.Diff_band.band_with d ~confidence:1.0) in
  (* one day wider below, so its fold is a second, distinct conjunct: the
     same conjunct is introduced only once *)
  let wider =
    { band with Mining.Diff_band.d_min = band.Mining.Diff_band.d_min -. 1.0 }
  in
  Core.Softdb.install_sc sdb
    (Core.Soft_constraint.make ~name:"band2" ~table:"purchase"
       ~installed_at_mutations:(Table.mutations tbl)
       (Core.Soft_constraint.Diff_stmt (d, wider)));
  let report =
    Core.Softdb.optimize sdb (Sqlfe.Parser.parse_query_string ship_eq)
  in
  check tbool "plan carries several guards" true
    (List.length (List.sort_uniq String.compare report.Opt.Explain.guards) >= 2);
  let _, fell_back = Core.Softdb.execute_report sdb report in
  check tbool "fresh plan does not fall back" false fell_back;
  check tint "no fallback counted" 0 (fallbacks sdb);
  violating_insert sdb;
  (* both bands are now overturned; the statement falls back once *)
  let _, fell_back = Core.Softdb.execute_report sdb report in
  check tbool "stale plan falls back" true fell_back;
  check tint "one fallback per guarded statement" 1 (fallbacks sdb);
  let _, _ = Core.Softdb.execute_report sdb report in
  check tint "each guarded execution counts once" 2 (fallbacks sdb)

(* A cached plan that went invalid counts its fallback once, at the
   transition — not on every later execution of the backup. *)
let test_fallback_once_per_cache_entry () =
  let sdb = purchase_banded () in
  let cache = Core.Plan_cache.create ~capacity:4 sdb in
  ignore (Core.Plan_cache.prepare cache ~name:"q" ship_eq);
  ignore (Core.Plan_cache.execute cache "q");
  check tint "valid entry: no fallback" 0 (fallbacks sdb);
  violating_insert sdb;
  for _ = 1 to 3 do
    ignore (Core.Plan_cache.execute cache "q")
  done;
  let s = Core.Plan_cache.stats cache in
  check tint "backup ran every time" 3 s.Core.Plan_cache.backup_runs;
  check tint "fallback counted once, at invalidation" 1 (fallbacks sdb)

(* Prepared and ad-hoc execution share one §4.1 path.  On every guarded
   registry suite, a cached plan and the same report run ad hoc return
   the same rows and fall back on the same statements, before and after
   an insert that overturns the suite's SCs: the band (without an
   exception table), and the last segment's domain SC (the row's id lies
   past every segment). *)
let test_prepared_matches_adhoc () =
  List.iter
    (fun name ->
      let f =
        List.find
          (fun (f : Benchkit.Scenario.fixture) ->
            f.Benchkit.Scenario.fixture_name = name)
          Benchkit.Scenario.fixtures
      in
      let sdb = f.Benchkit.Scenario.fixture_setup Benchkit.Scenario.Quick in
      let queries = f.Benchkit.Scenario.fixture_queries in
      let cache =
        Core.Plan_cache.create ~capacity:(List.length queries) sdb
      in
      let reports =
        List.map
          (fun sql ->
            ignore (Core.Plan_cache.prepare cache ~name:sql sql);
            Core.Softdb.optimize sdb (Sqlfe.Parser.parse_query_string sql))
          queries
      in
      let round label =
        List.fold_left2
          (fun fallbacks sql report ->
            let backup_runs () =
              (Option.get (Core.Plan_cache.find cache sql))
                .Core.Plan_cache.backup_runs
            in
            let before = backup_runs () in
            let prepared = Core.Plan_cache.execute cache sql in
            let adhoc, fell_back = Core.Softdb.execute_report sdb report in
            let what = Printf.sprintf "%s %s: %s" name label sql in
            check tbool (what ^ ": same rows") true
              (Exec.Executor.same_rows prepared adhoc);
            check tbool (what ^ ": rewrite-free rows") true
              (Exec.Executor.same_rows adhoc
                 (Core.Softdb.query_baseline sdb sql));
            check tbool (what ^ ": same fallback") fell_back
              (backup_runs () > before);
            if fell_back then fallbacks + 1 else fallbacks)
          0 queries reports
      in
      check tint (name ^ ": no fallback before the insert") 0 (round "before");
      (* shipped 161 days after ordering, past any mined band, on a
         queried day *)
      ignore
        (Core.Softdb.exec sdb
           "INSERT INTO purchase VALUES (9000000, 1, DATE '1999-01-05', DATE \
            '1999-06-15', 100.0, 3, 'north')");
      let after = round "after" in
      if name = "purchase/asc" || name = "purchase/part4" then
        check tbool (name ^ ": the insert overturned a guard") true (after > 0))
    [ "purchase/asc"; "purchase/exc"; "purchase/part4"; "purchase/idx" ]

let () =
  Alcotest.run "check"
    [
      ( "cert",
        [
          Alcotest.test_case "sound certificate accepted" `Quick
            test_cert_sound;
          Alcotest.test_case "unsound certificates rejected" `Quick
            test_cert_unsound;
          Alcotest.test_case "statistical basis rejected" `Quick
            test_cert_statistical_basis;
          Alcotest.test_case "twin isolation" `Quick test_twin_isolation;
          Alcotest.test_case "twin beside an exception union" `Quick
            test_twin_beside_exception_union;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "contradictory SC pair" `Quick
            test_catalog_contradiction;
          Alcotest.test_case "contradictory linear bands" `Quick
            test_catalog_contradictory_lines;
          Alcotest.test_case "duplicate and subsumed FDs" `Quick
            test_catalog_fd_dupes;
          Alcotest.test_case "dead SSC" `Quick test_catalog_dead_ssc;
          Alcotest.test_case "exception-union contract" `Quick
            test_catalog_exception_contract;
          Alcotest.test_case "enforced key without a unique index" `Quick
            test_catalog_unindexed_key;
        ] );
      ( "lock",
        [
          Alcotest.test_case "synthetic orderings" `Quick
            test_lock_lint_synthetic;
          Alcotest.test_case "hardening" `Quick test_lock_lint_hardening;
          Alcotest.test_case "real tree" `Quick test_real_tree_lints;
          Alcotest.test_case "one band form in the sources" `Quick
            test_one_band_form;
          Alcotest.test_case "one estimator in the sources" `Quick
            test_one_estimator;
          Alcotest.test_case "process-global lint reads every form" `Quick
            test_globals_lint;
        ] );
      ( "guard",
        [
          Alcotest.test_case "synthetic guarded-by" `Quick
            test_guard_lint_synthetic;
        ] );
      ( "lockdep",
        [
          Alcotest.test_case "runtime witness" `Quick test_lockdep_witness;
          Alcotest.test_case "disabled is inert" `Quick
            test_lockdep_disabled_is_inert;
          Alcotest.test_case "graph cross-validation" `Quick
            test_lockdep_lint_synthetic;
        ] );
      ( "differential",
        [
          Alcotest.test_case "rewrites preserve results" `Slow
            test_differential_registry;
          Alcotest.test_case "registry certificates" `Slow
            test_registry_certificates;
        ] );
      ( "fallbacks",
        [
          Alcotest.test_case "once per guarded statement" `Quick
            test_fallback_once_per_statement;
          Alcotest.test_case "once per cache entry" `Quick
            test_fallback_once_per_cache_entry;
          Alcotest.test_case "prepared and ad-hoc agree" `Slow
            test_prepared_matches_adhoc;
        ] );
    ]
