(** Soft constraints: IC-shaped statements that are {e not} enforced but
    are exploitable by the optimizer — the paper's central construct.

    A soft constraint couples a {!statement} (any IC body — every band,
    declared or mined, is stored as its CHECK — or one of the typed mined
    artifacts), a {!kind} ([Absolute]: no violations in the
    current state, usable in rewrite; [Statistical conf]: holds for a
    fraction, usable in cardinality estimation only), and a {!state} in
    the lifecycle of paper §3.2/§4.1. *)

open Rel

type statement =
  | Ic_stmt of Icdef.body
  | Fd_stmt of Mining.Fd_mine.fd
  | Diff_stmt of Mining.Diff_band.t * Mining.Diff_band.band
      (** An install-time spelling of a mined difference band, kept
          because benchmark set-up code writes it: {!make} stores it as
          [Ic_stmt (Check (Mining.Diff_band.to_check_pred d b))], so no
          stored statement, and no code below [make], holds or matches
          it.  Every band is read from its check ({!Mining.Band}). *)
  | Holes_stmt of Mining.Join_holes.t
  | Part_stmt of { partition : int; pred : Expr.pred }
      (** Per-partition domain constraint: every row of [table] that
          routes to segment [partition] satisfies [pred] — the partition
          flavour backing pruning certificates ({!Check.Cert}).
          Partition-conditional, so {!check_pred} is [None]; violation
          detection routes the row first ({!Maintenance}). *)

val stored : statement -> statement
(** The form {!make} stores: a [Diff_stmt]'s check, any other statement
    as it is. *)

type kind = Absolute | Statistical of float

type state = Probation | Active | Violated | Dropped

type t = {
  name : string;
  table : string;  (** primary table (left table for hole sets) *)
  mutable statement : statement;  (** sync repair widens it in place *)
  mutable kind : kind;
  mutable state : state;
  mutable installed_at_mutations : int;
      (** the table's mutation counter when (re)validated — the currency
          anchor of §3.3 *)
  mutable violation_count : int;
}

val make :
  name:string -> table:string -> ?kind:kind -> ?state:state ->
  installed_at_mutations:int -> statement -> t
(** [kind] defaults to [Absolute], [state] to [Active].  A [Diff_stmt] is
    stored as its check. *)

val is_usable : t -> bool
(** [Active]. *)

val is_absolute : t -> bool

val confidence : t -> float
(** 1.0 for ASCs; the base confidence (before currency decay) for
    SSCs. *)

val check_pred : t -> Expr.pred option
(** The statement as a row-level CHECK predicate, when it has one (FDs
    and hole sets are not row-local). *)

val to_icdef : t -> Icdef.t option
(** As an informational IC declaration, for the rewrite context's ASC
    set. *)

val state_to_string : state -> string
(** The lowercase names used by displays and the WAL codec. *)

val state_of_string : string -> state option

val pp_statement : Format.formatter -> statement -> unit
val pp_state : Format.formatter -> state -> unit
val pp : Format.formatter -> t -> unit
