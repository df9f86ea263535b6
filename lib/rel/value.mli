(** SQL values, their dynamic types, and three-valued logic.

    [Null] participates in SQL three-valued logic: comparisons against it
    are {!truth.Unknown}.  Ordering inside indexes and sorts uses the
    {e total} order {!compare_total} in which [Null] sorts first;
    predicate evaluation goes through {!compare_sql}, which surfaces
    unknowns. *)

type dtype = TInt | TFloat | TString | TBool | TDate
(** Column types. *)

type t =
  | Null
  | Int of int
  | Float of float
  | String of string
  | Bool of bool
  | Date of Date.t

type truth = True | False | Unknown
(** SQL's three-valued logic. *)

val dtype_name : dtype -> string
(** SQL spelling, e.g. [TDate] is ["DATE"]. *)

val dtype_of_string : string -> dtype option
(** Accepts the usual SQL type synonyms ([INTEGER], [DOUBLE], …). *)

val is_null : t -> bool

val conforms : dtype -> t -> bool
(** Is this value storable in a column of this type?  [Null] conforms to
    every type; [Int] additionally conforms to [TFloat] (widening). *)

val coerce : dtype -> t -> t
(** Apply the widening {!conforms} permits (int → float). *)

val as_float : t -> float
(** Numeric value of an [Int] or [Float]; raises [Invalid_argument]
    otherwise. *)

val compare_total : t -> t -> int
(** Total order: [Null] first, then numerics (ints and floats compare by
    magnitude), dates, strings; different runtime types order by a fixed
    rank.  Used by indexes, sorts, and grouping. *)

val equal_total : t -> t -> bool

val compare_sql : t -> t -> int option
(** SQL comparison: [None] when either side is [Null]. *)

val truth_of_bool : bool -> truth
val truth_not : truth -> truth
val truth_and : truth -> truth -> truth
val truth_or : truth -> truth -> truth

val truth_to_bool : truth -> bool
(** WHERE semantics: only [True] qualifies. *)

exception Type_error of string
(** Raised by the arithmetic below on ill-typed operands (e.g.
    [String + Int]). *)

(** {1 Arithmetic}

    Integer operations stay integral; any float operand promotes.
    [Date ± Int] shifts by days; [Date - Date] is an [Int] day count.
    [Null] propagates; integer division by zero yields [Null]. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t

val escape_sql_string : string -> string
(** Double embedded single quotes, for SQL literal syntax. *)

val to_debug : t -> string
(** SQL-literal rendering, e.g. [DATE '1999-12-15'], ['it''s'].  A FLOAT
    prints as [%g] when that reads back to the same float, else with the
    fewest of 15, 16 or 17 significant digits that does: the literal
    re-reads bit-exactly, so SQL printed into the WAL recovers the same
    constants. *)

val to_string : t -> string
(** Alias of {!to_debug}. *)

val pp : Format.formatter -> t -> unit

val beyond_exact : t -> bool
(** A number of magnitude at least 2^53, where [float_of_int] rounds.
    There {!equal_total} is not transitive across INT and FLOAT: 2^53 + 1
    and 2^53 both equal 2^53.0, yet not each other.  Below it, equality
    is an equivalence. *)

val hash : t -> int
(** Consistent with {!equal_total}: values it finds equal hash alike, so
    an [Int] hashes as the [Float] it equals.  Below 2^53 in magnitude
    both hash by the integer; beyond it, where [float_of_int] rounds, an
    [Int] hashes as [float_of_int i].  Allocates nothing for numbers,
    dates and booleans, and spreads entropy into the low bits. *)

(** {1 Checked projections} — raise {!Type_error} on mismatch. *)

val int_exn : t -> int
val float_exn : t -> float
