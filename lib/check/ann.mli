(** The concurrency annotation language shared by {!Lock_lint},
    {!Guard_lint}, and {!Lockdep_lint}: [@lock-order] declarations,
    [@acquires]/[@waits] site annotations with [while] held-clauses,
    [@guarded-by] state annotations, and [@lock-ignore]. *)

val contains : string -> string -> bool
val after : string -> string -> string option

val words : string -> string list
(** Whitespace-split words of an annotation tail, stopping at the
    comment terminator. *)

val lines_of : string -> string list

type decl = {
  d_name : string;
  d_rank : int;
  d_reentrant : bool;
  d_waived : bool;
      (** [lockdep-waive]: exempt from the dynamic stale-rank check *)
  d_file : string;
  d_line : int;  (** 1-based *)
}

val parse_decl : string -> (string * int * bool * bool) option
(** [(name, rank, reentrant, waived)] of an [@lock-order] line. *)

val collect_decls : (string * string) list -> decl list
(** Every declaration across [(file, contents)] sources, in order. *)

val decl_table : decl list -> (string, decl) Hashtbl.t
(** First declaration wins; conflict reporting is {!Lock_lint}'s job. *)

type ann =
  | Acquires of string * string list  (** lock, held set *)
  | Waits of string * string list  (** lock, held set *)
  | Guarded_by of string  (** ["none"] = explicitly unguarded *)
  | Ignore

val parse_ann : string -> ann option

val referenced_locks : (string * string) list -> (string, unit) Hashtbl.t
(** Every lock name referenced by any site or state annotation —
    the liveness side of dead-rank detection. *)

val read_sources : string list -> (string * string) list
