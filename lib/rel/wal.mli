(** Write-ahead logging for durability.

    The engine is in-memory; durability comes from logging every data
    mutation and every soft-constraint catalog transition, framed by
    begin/commit/abort records, and replaying the committed frames into a
    fresh database after a crash ({!Core.Recovery}).  Two sinks:

    - a {e memory} sink (fsync-free, for tests and the fault matrix),
      where a record is durable the moment it is appended;
    - a {e file} sink (for the CLI's [--wal]), line-oriented text,
      buffered between commits and flushed by {!commit} / {!abort} /
      {!flush}.

    The log is {e redo-only}: uncommitted frames are simply skipped at
    replay, so no undo information beyond the update before-image (kept
    for debugging and consistency checks) is required.

    This module knows nothing about fault injection, but named fault
    points ({!fault_points}) are threaded through its hot paths via a
    hook that {!Obs.Fault} installs — [rel] sits below [obs] in the
    library stack, so the dependency is inverted through
    {!set_fault_hook}. *)

type sc_snapshot = {
  sc_name : string;
  sc_table : string;
  sc_absolute : bool;  (** ASC vs. SSC *)
  sc_confidence : float;  (** 1.0 for ASCs *)
  sc_state : string;  (** probation / active / violated / dropped *)
  sc_anchor : int;  (** installed_at_mutations, the currency anchor *)
  sc_violations : int;
  sc_repr : string;  (** serialized statement, see {!Core.Sc_codec} *)
}
(** A full image of one soft constraint, as installed programmatically or
    dumped by a checkpoint.  The statement representation is an opaque
    string at this layer; {!Core.Sc_codec} owns the round-trip. *)

(** A soft-constraint catalog transition.  Field-level deltas reference
    the constraint by name; {!Sc_installed} carries the full image. *)
type sc_change =
  | Sc_installed of sc_snapshot
  | Sc_state of { name : string; state : string }
  | Sc_kind of { name : string; absolute : bool; confidence : float }
  | Sc_anchor of { name : string; anchor : int }
  | Sc_violations of { name : string; count : int }
  | Sc_statement of { name : string; repr : string }
  | Sc_dropped of { name : string }
  | Sc_exception of { name : string; table : string }

type record =
  | Begin of { txn : int }
  | Commit of { txn : int }
  | Abort of { txn : int }
  | Insert of {
      txn : int;
      table : string;
      rid : Table.rid;
      row : Value.t array;
    }
  | Delete of {
      txn : int;
      table : string;
      rid : Table.rid;
      row : Value.t array;
    }
  | Update of {
      txn : int;
      table : string;
      rid : Table.rid;
      before : Value.t array;
      after : Value.t array;
    }
  | Ddl of { txn : int; sql : string }
      (** A schema statement, logged as its printed SQL and re-executed
          deterministically at replay. *)
  | Sc of { txn : int; change : sc_change }
  | Idx_state of { txn : int; name : string; state : string }
      (** An index lifecycle transition
          ([write_only]/[backfilling]/[readable]/[demoted], see
          {!Index.state}).  Replay re-derives index consistency from
          these: a committed [readable] transition rebuilds the index
          from the recovered heap; an index left mid-backfill when the
          log ends is demoted to write-only. *)

type t

exception Wal_error of string
(** Corrupt log lines, closed-log appends, and file-sink I/O errors. *)

val create_memory : unit -> t

val open_file : string -> t
(** Open (creating if absent) a file-sink log in append mode: {!scan_file}
    then {!open_scanned}. *)

val close : t -> unit
(** Flush and close; a failed flush is ignored here. *)

val fresh_txn : t -> int
(** Allocate the next transaction id. *)

val append : t -> record -> unit
(** Fault points: [wal.append] (both sinks), [wal.io] (file sink, before
    the physical write). *)

val commit : t -> int -> unit
(** Append the commit record and flush.  Fault points: [wal.pre_commit]
    (before the record — the frame is lost on crash) and
    [wal.post_commit] (after the flush — the frame is durable).  Raises
    {!Wal_error} when the bytes do not reach the OS, so the commit is
    never acknowledged. *)

val abort : t -> int -> unit
(** Append the abort record and flush. *)

val flush : t -> unit
(** A failed write or flush raises {!Wal_error} and closes the log: its
    tail is unknown, so every later append raises too. *)

val records : t -> record list
(** Every record, oldest first (file sinks are flushed and re-read). *)

val load_file : string -> record list
(** Read a log file without opening it as a sink; [[]] if absent.
    Strict: raises {!Wal_error} on the first corrupt line — the
    salvage-aware path is {!scan_file} + {!Core.Recovery}. *)

val truncate_with : t -> record list -> unit
(** Atomically replace the log's contents — the checkpoint primitive.
    The file sink goes through {!rewrite_file} with the fault hooks on:
    every line passes the write hook at [wal.checkpoint], and
    [wal.checkpoint] fires before the rename, so a crash during a
    checkpoint leaves the original log intact.  Transaction numbering
    restarts above the ids present in [records]. *)

val rewrite_file : string -> record list -> unit
(** [rewrite_file path records] replaces the log at [path] with
    [records], numbered from LSN 1: they are written to the sibling
    [<path>.ckpt], which is then renamed over [path].  The one rewriter,
    shared by the checkpoint and recovery's repairs. *)

val committed_txns : record list -> int -> bool
(** Membership test of the transactions with a {!Commit} record.  Apply
    it to the records once and keep the result: each application scans
    every record. *)

val txn_of : record -> int

val record_to_line : record -> string
(** A record's payload: one line, no header, no trailing newline.  The
    log wraps it in the integrity header — see {!line_of_record}. *)

val record_of_line : string -> record
(** Parse a payload.  Raises {!Wal_error} on corrupt input. *)

(** {1 Line format: LSN + CRC32}

    Every log line carries an integrity header:

    {v L<lsn> \t <crc32-hex8> \t <payload> v}

    The LSN increases by one per line within a file (a rewrite restarts
    it at 1) and the CRC-32 covers ["<lsn>\t<payload>"], so torn,
    bit-flipped or spliced lines are detected rather than misparsed. *)

val line_of_record : lsn:int -> record -> string
(** The encoding, no trailing newline. *)

val parse_line : string -> (int * record, string) result
(** Parse one line, its checksum verified.  [Error reason] instead of an
    exception — the salvage path classifies corrupt lines, it does not
    die on them.  A line without the header is an error. *)

val is_log : string -> bool
(** Whether raw file contents can be a log: empty, or starting with a
    header's [L<digit>] — or with just the ["L"] a torn first write
    leaves. *)

type scanned = {
  lineno : int;  (** 1-based; blank lines counted but not reported *)
  offset : int;  (** byte offset of the line start *)
  bytes : int;  (** line length including the newline, if present *)
  parsed : (int * record, string) result;  (** the LSN and the record *)
}
(** One physical log line with enough location information to truncate
    a torn tail byte-exactly. *)

val scan_string : string -> scanned list
(** Classify every non-blank line of a raw log image, never raising. *)

val scan_file : string -> string * scanned list
(** Read the file raw (binary, [""] if absent) and {!scan_string} it;
    returns the raw bytes alongside so salvage can quarantine them. *)

val open_scanned : string -> scanned list -> t
(** [open_scanned path scan] opens the log at [path] in append mode from
    [scan], a scan of the file as it stands, without reading it again:
    transaction ids and LSNs continue above the highest in [scan].
    Raises {!Wal_error} on a corrupt line in [scan]. *)

(** {1 Text codec}

    The log's line codec, shared with the other line-oriented
    framed format that needs the same exact round-trip (the server wire
    protocol, {!Srv.Proto}): fields joined by tabs, strings
    backslash-escaped so a field never contains a literal tab or
    newline, values tagged by one character, floats printed in hex
    (["%h"]).  One writer and one reader make and take every such
    line. *)

module Writer : sig
  type t

  val to_string : (t -> unit) -> string
  (** [to_string emit] runs [emit] once, as {!frame} does into a fresh
      buffer, and returns the line without its newline.  Fields are
      separated by tabs. *)

  val frame : Bytes.t ref -> (t -> unit) -> int
  (** [frame buf emit] writes the line [to_string emit] would make,
      then a newline, at the start of [!buf], and returns its length.
      When the line outgrows the buffer, the buffer is replaced by one
      at least twice as large, with the bytes so far copied over, and
      [buf] is left holding it; so a caller that keeps [buf] across
      frames stops allocating once it has seen its largest one, and
      each frame is written once. *)

  val raw : t -> string -> unit
  (** A field written verbatim (a tag or verb: no tab, no newline). *)

  val string : t -> string -> unit
  (** A backslash-escaped string field. *)

  val int : t -> int -> unit
  (** A decimal field, as [string_of_int]. *)

  val tagged_int : t -> char -> int -> unit
  (** One field: the tag character, then the decimal ([Q12]). *)

  val float : t -> float -> unit
  (** A hex float field, byte for byte [Printf.sprintf "%h"]: a normal
      float is printed from its bits, zero, subnormals, infinities and
      nan by the primitive [Printf] calls. *)

  val bool : t -> bool -> unit
  (** [1] or [0]. *)

  val value : t -> Value.t -> unit
  (** A type-tagged value field. *)

  val row : t -> Value.t array -> unit
  (** The arity, then one value field per column. *)
end

module Reader : sig
  type t
  (** A cursor over the tab-separated fields of one line; the fields it
      yields are exactly [String.split_on_char '\t' line].  Every
      reader raises {!Wal_error} on a missing or malformed field. *)

  val of_string : string -> t

  val finish : t -> unit
  (** Raises {!Wal_error} if a field is left. *)

  val raw : t -> string
  val string : t -> string

  val int : t -> int
  (** Accepts what [int_of_string_opt] accepts. *)

  val tagged_int : t -> char -> int
  (** The inverse of {!Writer.tagged_int}. *)

  val float : t -> float
  val bool : t -> bool
  val value : t -> Value.t

  val row : t -> Value.t array
  (** The inverse of {!Writer.row}.  An arity that is negative or
      exceeds the bytes left is rejected before anything is
      allocated. *)
end

val value_to_field : Value.t -> string
(** One value field on its own. *)

val set_fault_hook : (string -> unit) -> unit
(** Install the fault-injection callback invoked at each named point
    (see {!Obs.Fault}); the default is a no-op. *)

val set_write_hook :
  (point:string -> write:(string -> unit) -> string -> unit) -> unit
(** Install the physical-write indirection: every byte string the file
    sink emits passes through the hook (with the fault-point name of
    the site: [wal.io] for appends, [wal.checkpoint] for the checkpoint
    rewrite), which may write it whole, truncated ([Torn_write]), or
    corrupted ([Bit_flip]) via the supplied [write].  The default
    writes the string unchanged.  The memory sink is durable-at-append
    and bypasses the hook. *)

val fault_points : string list
(** The named fault points this module fires, for harness registration:
    [wal.append], [wal.io], [wal.pre_commit], [wal.post_commit],
    [wal.checkpoint]. *)
