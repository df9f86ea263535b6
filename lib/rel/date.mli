(** Calendar dates.

    A date is a count of days since the civil epoch 1970-01-01 (negative
    before it).  The representation is deliberately transparent: day
    arithmetic ([t + n]) is ubiquitous in workload generators and the
    optimizer's interval reasoning. *)

type t = int
(** Days since 1970-01-01 (proleptic Gregorian). *)

val epoch : t
(** 1970-01-01. *)

val days_from_civil : year:int -> month:int -> day:int -> t
(** Exact conversion from a civil date (Hinnant's era algorithm). *)

val civil_from_days : t -> int * int * int
(** Inverse of {!days_from_civil}: [(year, month, day)]. *)

val is_leap_year : int -> bool

val days_in_month : year:int -> month:int -> int
(** Raises [Invalid_argument] if [month] is outside 1..12. *)

val of_ymd : int -> int -> int -> t
(** [of_ymd year month day].  Raises [Invalid_argument] on an invalid
    civil date (bad month, or day outside the month). *)

val to_ymd : t -> int * int * int

val year : t -> int
val month : t -> int
val day : t -> int

val add_days : t -> int -> t
val diff_days : t -> t -> int

val compare : t -> t -> int
val equal : t -> t -> bool

val weekday : t -> int
(** 0 = Monday … 6 = Sunday. *)

val to_string : t -> string
(** ISO [YYYY-MM-DD]. *)

val of_string : string -> t
(** Parses ISO [YYYY-MM-DD]; raises [Invalid_argument] otherwise. *)

val of_string_opt : string -> t option

val pp : Format.formatter -> t -> unit

val first_of_month : year:int -> month:int -> t
val last_of_month : year:int -> month:int -> t
