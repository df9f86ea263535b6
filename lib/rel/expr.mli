(** Scalar expressions and predicates over named column references — the
    lingua franca of the system.  SQL parses into it, check and soft
    constraints are stated in it, the optimizer rewrites it, and the
    executor compiles it against a concrete tuple layout ({!Binding}).

    Predicates evaluate under SQL three-valued logic
    ({!Value.truth}). *)

type col_ref = { rel : string option; col : string }
(** A column reference, optionally qualified by a table name or alias. *)

val col : ?rel:string -> string -> col_ref

val col_ref_equal : col_ref -> col_ref -> bool
(** Case-insensitive; an unqualified reference matches any qualifier. *)

val pp_col_ref : Format.formatter -> col_ref -> unit

type binop = Add | Sub | Mul | Div

type t =
  | Const of Value.t
  | Col of col_ref
  | Binop of binop * t * t
  | Neg of t

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type pred =
  | Cmp of cmp * t * t
  | Between of t * t * t  (** [Between (e, lo, hi)] ⟺ [lo <= e <= hi]. *)
  | In_list of t * Value.t list
  | Is_null of t
  | Is_not_null of t
  | And of pred * pred
  | Or of pred * pred
  | Not of pred
  | Ptrue
  | Pfalse

(** {1 Constructors and structural helpers} *)

val const : Value.t -> t
val int : int -> t
val str : string -> t
val date : Date.t -> t
val column : ?rel:string -> string -> t

val cmp_flip : cmp -> cmp
(** Operand swap: [a < b ⟺ b > a]. *)

val conjuncts : pred -> pred list
(** Flatten top-level conjunctions; [Ptrue] flattens to []. *)

val conjoin : pred list -> pred

val cols_of_expr : t -> col_ref list
val cols_of_pred : pred -> col_ref list

val map_cols_expr : (col_ref -> col_ref) -> t -> t

val map_cols_pred : (col_ref -> col_ref) -> pred -> pred
(** Substitute column references, e.g. to requalify a table-local check
    constraint onto a query alias. *)

val string_of_binop : binop -> string
val string_of_cmp : cmp -> string
val pp : Format.formatter -> t -> unit
val pp_pred : Format.formatter -> pred -> unit
val to_string_pred : pred -> string

(** {1 Tuple layouts}

    The layout of a tuple flowing through an operator: for each position,
    the qualifier and column name that produced it.  Expressions are
    resolved against a binding once and then evaluated per row. *)

module Binding : sig
  type slot = {
    qualifier : string option;
    name : string;
    dtype : Value.dtype option;
  }

  type t = slot array

  val of_schema : ?alias:string -> Schema.t -> t
  (** One slot per column, qualified by [alias] (default: the table
      name). *)

  val concat : t -> t -> t
  val arity : t -> int

  exception Unresolved of col_ref
  exception Ambiguous of col_ref

  val resolve : t -> col_ref -> int
  (** Position of the slot a reference names; raises {!Unresolved} /
      {!Ambiguous}. *)

  val resolve_opt : t -> col_ref -> int option
  val pp : Format.formatter -> t -> unit
end

(** {1 Evaluation} *)

val eval : Binding.t -> t -> Tuple.t -> Value.t
val eval_pred : Binding.t -> pred -> Tuple.t -> Value.truth

(** {1 Compilation}

    Column references are resolved to positions once; the per-row cost is
    a closure call.  The executor uses these on every operator.  A
    compiled predicate allocates nothing per row: comparisons, [BETWEEN]
    and arithmetic over INT and DATE columns run without boxing.  It has
    {!eval_pred}'s three-valued answer, but AND stops at the first FALSE
    and OR at the first TRUE, left to right, so a [Value.Type_error] in
    an operand after that point does not surface. *)

val compile : Binding.t -> t -> Tuple.t -> Value.t
val compile_pred : Binding.t -> pred -> Tuple.t -> Value.truth

val compile_filter : Binding.t -> pred -> Tuple.t -> bool
(** WHERE semantics: keep the row only when the predicate is [True]. *)

val satisfies : Binding.t -> pred -> Tuple.t -> bool
(** Uninterpreted {!eval_pred} + {!Value.truth_to_bool}. *)

val check_violated : Binding.t -> pred -> Tuple.t -> bool
(** CHECK-constraint semantics: a row violates only when the predicate is
    [False] — [Unknown] passes (SQL standard).  The distinction matters
    for rewrite soundness; see {!Opt.Rewrite}. *)
