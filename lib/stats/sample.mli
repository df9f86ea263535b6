(** Reservoir sampling (Vitter's algorithm R): a uniform fixed-size sample
    of a stream of unknown length.  RUNSTATS feeds table scans through
    this to bound histogram construction cost on large tables. *)

type 'a t

val create : ?seed:int -> int -> 'a t
(** [create capacity]; raises [Invalid_argument] when
    [capacity <= 0]. *)

val offer : 'a t -> 'a -> unit
val seen : 'a t -> int
val size : 'a t -> int

val to_list : 'a t -> 'a list
(** The current sample, at most [capacity] elements. *)
