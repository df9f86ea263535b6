(** The independent certificate checker (tentpole pass 1): re-derives
    the soundness of every fired rewrite from the live SC catalog,
    without trusting the rewriter.  See the implementation header for
    the rule list. *)

(** What a certificate premise resolves to. *)
type basis =
  | Hard  (** declared (hard or informational) IC: needs no guard *)
  | Soft_absolute  (** overturnable ASC: must be guarded *)
  | Soft_statistical  (** SSC: estimation-only basis *)
  | Invalid of string  (** reason it is no valid basis *)

val basis_of : ?rule:string -> Core.Softdb.t -> string -> basis
(** [rule] is the rewrite the premise carries: an SSC backed by an
    exception table is an (ASC-like, guarded) basis for
    ["exception_union"] only. *)

val check_certificate :
  Core.Softdb.t ->
  guards:string list ->
  has_backup:bool ->
  Opt.Explain.certificate ->
  Diag.t list
(** Check one certificate against the catalog; exposed so tests can feed
    deliberately unsound hand-built certificates. *)

val check_report : Core.Softdb.t -> Opt.Explain.report -> Diag.t list
(** All certificate checks for an optimized report, plus the twin
    isolation pass (estimation-only flags; no twin predicate among the
    plan's executable predicates) and the backup-plan guarantee. *)

val check_query :
  ?flags:Opt.Rewrite.flags ->
  Core.Softdb.t ->
  string ->
  Opt.Explain.report * Diag.t list
(** Parse, optimize, and check one SQL query. *)
