(** Secondary indexes over heap tables: a B+-tree keyed on the projected
    column values, mapping each distinct key to the {!posting} of rids
    holding it.  Composite keys compare lexicographically.

    An index is a lifecycle-managed object: [Write_only] (maintained,
    not probed) → [Backfilling] (online build in progress) → [Readable]
    (serves probes), with [Demoted] for an index whose build was
    interrupted or whose consistency can no longer be promised.  The
    maintenance hooks are active in every live state ([Demoted] indexes
    are abandoned: unmaintained until rebuilt, and a demoted unique
    index never vetoes a write); only [Readable] indexes may serve
    probes. *)

type t

type posting = Table.rid array
(** The rids of one key, counted in slot 0: for [n = p.(0)], the rids
    are [p.(1)] to [p.(n)], distinct and ascending.  The slots after
    them are spare capacity, not rids.  A posting a probe returns is the
    index's own, not a copy: it is read-only, and valid only until the
    index's next mutation, which may shift, move or drop it.  Copy what
    must outlive that. *)

type state = Write_only | Backfilling | Readable | Demoted

val state_to_string : state -> string
val state_of_string : string -> state option

exception Unique_violation of string

val create :
  name:string -> table:Table.t -> columns:string list -> ?unique:bool ->
  unit -> t
(** Bulk-build from the table's current rows; the result is [Readable].
    Raises {!Unique_violation} when [unique] and a duplicate key exists. *)

val create_shell :
  name:string -> table:Table.t -> columns:string list -> ?unique:bool ->
  unit -> t
(** An empty [Write_only] index for the online build path: register it,
    let mutations maintain it, backfill pre-existing rows separately. *)

val name : t -> string
val table_name : t -> string
val columns : t -> string list
val is_unique : t -> bool

val state : t -> state
val set_state : t -> state -> unit

val is_readable : t -> bool
(** Only readable indexes may serve probes or back plans. *)

val distinct_keys : t -> int
(** Number of distinct key values currently indexed. *)

val entries : t -> int
(** Total (key, rid) entries currently indexed, the sum of the postings'
    counts — O(keys). *)

val key_of : t -> Tuple.t -> Tuple.t
(** The index key of a table row (projection onto the key columns). *)

(** {1 Maintenance} — called by {!Database} on every table mutation.
    Insertion is idempotent per (key, rid): during an online build the
    backfill and a concurrent writer may both present the same row. *)

val on_insert : t -> Table.rid -> Tuple.t -> unit
val on_delete : t -> Table.rid -> Tuple.t -> unit
val on_update : t -> Table.rid -> before:Tuple.t -> after:Tuple.t -> unit

val backfill_insert : t -> Table.rid -> Tuple.t -> bool
(** Idempotent insertion for the online backfill; [true] when the row
    was new to the tree. *)

(** {1 Probes} *)

val lookup : t -> Tuple.t -> posting
(** The posting of exactly this (composite) key; its count is 0 when no
    row holds it. *)

val lookup_value : t -> Value.t -> posting
(** Single-column convenience. *)

type bound = Unbounded | Incl of Value.t | Excl of Value.t

val fold_range :
  t -> lo:bound -> hi:bound -> init:'a ->
  f:('a -> Value.t -> posting -> 'a) -> 'a
(** In-key-order iteration over the (key, posting) bindings within the
    bounds; every posting it yields is non-empty.  Only valid on
    single-column indexes (raises [Invalid_argument] otherwise). *)

val fold_entries :
  t -> lo:bound -> hi:bound -> init:'a ->
  f:('a -> Tuple.t -> posting -> 'a) -> 'a
(** In-key-order iteration over (key, posting) bindings for index-only
    scans; every posting it yields is non-empty.  Bounds apply to the
    leading column — on a composite index only bindings whose leading
    value falls within them are yielded, so a leading-column probe
    narrows composite covering scans too. *)
