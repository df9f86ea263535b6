(** Table schemas: ordered, named, typed columns. *)

type column = { name : string; dtype : Value.dtype; nullable : bool }

type t = { table : string; columns : column array }

val column : ?nullable:bool -> string -> Value.dtype -> column
(** [column ?nullable name dtype]; [nullable] defaults to [true]. *)

val make : string -> column list -> t
(** Raises [Invalid_argument] on duplicate column names
    (case-insensitive). *)

val arity : t -> int
val columns : t -> column list
val column_at : t -> int -> column
val column_names : t -> string list

val find_index : t -> string -> int option
(** Case-insensitive position lookup. *)

val index_exn : t -> string -> int
(** Raises [Invalid_argument] when the column does not exist. *)

val pp : Format.formatter -> t -> unit
