(* Assembles the static-analysis passes behind [softdb check]:

   1. certificate checking + twin isolation over a set of fixtures
      (name, database, query workload) — the caller supplies them, so
      this library does not depend on any particular scenario registry;
   2. the catalog linter over each fixture's SC catalog;
   3. the source lints (lock order, guarded-by, interface coverage)
      over a source root, when one is given.

   The lockdep cross-validation ({!Lockdep_lint}) needs a run with the
   witness armed; the server suite's TCP run applies it to its own
   witness, against the rank table read from [lock_scan_files].

   [run] returns the rendered report (the CI artifact) and the raw
   diagnostics; the CLI derives its exit code from [Diag.has_errors].
   Diagnostics are sorted (pass, subject, message, severity) so the
   report is deterministic and CI can diff the committed one. *)

type fixture = {
  fx_name : string;
  fx_sdb : Core.Softdb.t;
  fx_queries : string list;
}

let prefix fx diags =
  List.map
    (fun (d : Diag.t) ->
      { d with Diag.subject = fx.fx_name ^ "/" ^ d.Diag.subject })
    diags

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    i + m <= n && (String.sub s i m = sub || go (i + 1))
  in
  go 0

(* lib/check itself is excluded from the lock scan: it spells the raw
   acquisition tokens as string literals. *)
let lock_scan_files ~root =
  List.filter
    (fun p -> not (contains p (Filename.concat "lib" "check")))
    (Iface_lint.ml_files ~root)

(* The guarded-by lint covers the concurrent subsystems — the libraries
   whose state is shared across the server's domains and threads.  The
   single-threaded front/mid layers (sqlfe, opt, exec, rel, …) keep
   their mutability rules out of scope. *)
let guard_dirs = [ "srv"; "core"; "obs"; "idx" ]

let guard_scan_files ~root =
  List.filter
    (fun p ->
      List.exists
        (fun d ->
          contains p (Filename.concat "lib" d ^ Filename.dir_sep))
        guard_dirs)
    (Iface_lint.ml_files ~root)

let check_fixture ?(explain = false) buf fx =
  List.concat_map
    (fun sql ->
      match Cert.check_query fx.fx_sdb sql with
      | exception e ->
          [
            Diag.error ~pass:"cert" ~subject:fx.fx_name "%s raised %s" sql
              (Printexc.to_string e);
          ]
      | report, diags ->
          if explain then begin
            Buffer.add_string buf (Printf.sprintf "-- %s: %s\n" fx.fx_name sql);
            Buffer.add_string buf
              (Fmt.str "%a" Opt.Explain.pp_certificates report)
          end;
          prefix fx diags)
    fx.fx_queries

(* deterministic report order: by pass, then subject, then message *)
let sort_diags diags =
  List.sort
    (fun (a : Diag.t) (b : Diag.t) ->
      compare
        (a.Diag.pass, a.Diag.subject, a.Diag.message, a.Diag.severity)
        (b.Diag.pass, b.Diag.subject, b.Diag.message, b.Diag.severity))
    diags

let run ?(explain = false) ?root fixtures =
  let buf = Buffer.create 4096 in
  let cert_diags = List.concat_map (check_fixture ~explain buf) fixtures in
  let catalog_diags =
    List.concat_map (fun fx -> prefix fx (Catalog_lint.lint fx.fx_sdb)) fixtures
  in
  let source_diags =
    match root with
    | None -> []
    | Some root ->
        Lock_lint.lint_files (lock_scan_files ~root)
        @ Guard_lint.lint_files (guard_scan_files ~root)
        @ Iface_lint.lint ~root
  in
  let diags = sort_diags (cert_diags @ catalog_diags @ source_diags) in
  Buffer.add_string buf (Diag.render diags);
  (Buffer.contents buf, diags)
