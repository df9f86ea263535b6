(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320), table-driven, over
    plain OCaml ints masked to 32 bits.  Used by {!Wal} to checksum each
    log line so recovery can tell a torn or bit-flipped record from a
    clean one. *)

val string : string -> int
(** CRC-32 of the whole string (initial value 0). *)

val update : int -> string -> int
(** Extend a running checksum: [update (string a) b = string (a ^ b)]. *)

val to_hex : int -> string
(** Fixed-width lowercase hex, 8 digits — the on-disk form. *)

val of_hex : string -> int option
(** Parse exactly 8 hex digits; [None] otherwise. *)
