(** Integrity constraint declarations.

    {!enforcement} captures the paper's spectrum (§1):
    - [Enforced] — a normal IC, checked on every mutation;
    - [Informational] — declared but never checked (an external promise
      holds it), still fully usable by the optimizer.

    Soft constraints (ASCs/SSCs) are {e not} declared here: they live in
    the soft-constraint catalog ({!Core.Sc_catalog}) with their own
    lifecycle, but reuse {!body} for their statements. *)

type enforcement = Enforced | Informational

type body =
  | Primary_key of string list
  | Unique of string list
  | Foreign_key of {
      columns : string list;
      ref_table : string;
      ref_columns : string list;
    }
  | Check of Expr.pred
  | Not_null of string

type t = {
  name : string;
  table : string;
  body : body;
  enforcement : enforcement;
}

val make : ?enforcement:enforcement -> name:string -> table:string -> body -> t
(** [enforcement] defaults to [Enforced]. *)

val is_enforced : t -> bool

val pp_body : Format.formatter -> body -> unit
val pp : Format.formatter -> t -> unit
