(** The soft-constraint catalog — the registry the paper argues RDBMSs
    lack ("there is no mechanism in RDBMSs to represent such
    characterizations and to maintain them", §3.2).

    Besides storage and lookup it produces the optimizer's view: a
    {!Opt.Rewrite.ctx} assembled from every {e usable} constraint, with
    SSC confidences decayed by the currency model and exception-backed
    ASCs routed exclusively through the exception-union rule. *)

open Rel

(** A catalog transition, published to {!on_change} listeners — the
    durability layer ({!Recovery}) logs these into the WAL.  Every field
    write must therefore go through the setters below rather than
    mutating {!Soft_constraint.t} directly. *)
type change =
  | Installed of Soft_constraint.t
  | Removed of Soft_constraint.t
  | State_changed of Soft_constraint.t
  | Kind_changed of Soft_constraint.t
  | Anchor_changed of Soft_constraint.t
  | Violations_changed of Soft_constraint.t
  | Statement_changed of Soft_constraint.t
  | Exception_registered of { constraint_name : string; table : string }

type t = {
  mutable scs : Soft_constraint.t list;
  mutable exception_tables : (string * string) list;
      (** constraint name → exception table name *)
  mutable listeners : (change -> unit) list;
  mutable mined : int;  (** names issued by {!fresh_name} *)
}

val create : unit -> t

exception Duplicate_name of string

val on_change : t -> (change -> unit) -> unit
(** Register a listener invoked after every catalog transition. *)

val add : t -> Soft_constraint.t -> unit
val find : t -> string -> Soft_constraint.t option

val fresh_name : t -> string -> string
(** [prefix_n] for the catalog's next [n] whose name no SC in it holds:
    the name of a mined candidate.  Numbered per catalog, so a
    database's mined names do not depend on other databases in the
    process. *)

val drop : t -> string -> unit
(** Marks the constraint [Dropped] and removes it. *)

(** {1 Field setters}

    In-place soft-constraint updates (state flips, repairs widening the
    statement, confidence recalibration, currency re-anchoring) fire the
    corresponding {!change} event; no-op writes are suppressed except for
    statements, which are always treated as changed. *)

val set_state : t -> Soft_constraint.t -> Soft_constraint.state -> unit
val set_kind : t -> Soft_constraint.t -> Soft_constraint.kind -> unit
val set_anchor : t -> Soft_constraint.t -> int -> unit
val set_violations : t -> Soft_constraint.t -> int -> unit
val set_statement : t -> Soft_constraint.t -> Soft_constraint.statement -> unit

val all : t -> Soft_constraint.t list
val on_table : t -> string -> Soft_constraint.t list

val usable : t -> Soft_constraint.t list
(** The [Active] entries. *)

val register_exception_table : t -> constraint_name:string -> table:string ->
  unit

val exception_table_for : t -> string -> string option

val exception_tables : t -> (string * string) list
(** All (constraint name, exception table) registrations, oldest
    first — the checkpoint dump reads this. *)

val mutations_of : Database.t -> string -> int
val rows_of : Database.t -> string -> int

val drift_counter : Database.t -> Soft_constraint.t -> int
(** The counter this SC's currency anchor compares against: its home
    segment's local mutation counter for partition-domain statements
    (one hot shard must not age its siblings' SCs), the whole table's
    otherwise.  Anchor writers ({!set_anchor} callers) must use this
    same counter. *)

val use_threshold : float
(** SSCs whose decayed confidence is at or below this bound are ignored
    by {!rewrite_ctx}; the catalog linter flags them. *)

val current_confidence : Database.t -> Soft_constraint.t -> float
(** Confidence usable {e now}: the base confidence decayed by
    {!Currency.usable_confidence} over the mutations since the anchor. *)

val rewrite_ctx : ?flags:Opt.Rewrite.flags -> t -> Database.t ->
  Opt.Rewrite.ctx

val pp : Format.formatter -> t -> unit
