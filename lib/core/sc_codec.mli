(** Text codec for soft-constraint statements, used by the WAL
    ({!Recovery}): catalog transitions log [statement_repr]; replay
    parses it back with [statement_of_repr].

    IC-shaped statements — every band among them, declared or mined —
    round-trip through the SQL printer/parser ([ic|], [part|]), whose
    FLOAT literals re-read bit-exactly ({!Rel.Value.to_debug}); FDs and
    join holes use positional field encodings with hexadecimal float
    literals.  A log written before bands were stored as checks carries
    [diff|] and [corr|] lines; both still decode, into the band's check,
    so committed logs recover. *)

exception Codec_error of string

val statement_repr : Soft_constraint.statement -> string

val statement_of_repr : string -> Soft_constraint.statement
(** Inverse of {!statement_repr}; raises {!Codec_error} on malformed
    input. *)
