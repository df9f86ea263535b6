(** Assembles the certificate, catalog, lock-order, guarded-by and
    interface-coverage passes behind [softdb check]. *)

type fixture = {
  fx_name : string;
  fx_sdb : Core.Softdb.t;
  fx_queries : string list;
}

val lock_scan_files : root:string -> string list
(** The [.ml] files the lock lint scans: everything under [root]/lib
    except lib/check itself (which spells the acquisition tokens as
    string literals). *)

val guard_scan_files : root:string -> string list
(** The [.ml] files the guarded-by lint scans: the concurrent
    subsystems (lib/srv, lib/core, lib/obs, lib/idx). *)

val run :
  ?explain:bool ->
  ?root:string ->
  fixture list ->
  string * Diag.t list
(** Run every pass; returns the rendered report and the diagnostics,
    sorted (pass, subject, message) so the report is deterministic.
    [explain] prepends each fixture query's certificates to the report;
    [root] enables the source lints. *)
