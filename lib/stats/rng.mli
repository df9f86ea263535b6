(** SplitMix64: a small, fast, high-quality deterministic PRNG.

    Every random choice in the system (data generation, sampling,
    property-test fixtures) flows through this so experiments reproduce
    bit-identically across runs and machines. *)

type t

val create : int -> t
(** Seeded stream; equal seeds produce equal streams. *)

val copy : t -> t

val next_int64 : t -> int64
(** The raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound]: uniform in [0, bound); raises [Invalid_argument] when
    [bound <= 0]. *)

val int_range : t -> int -> int -> int
(** Uniform in [lo, hi] inclusive. *)

val float : t -> float
(** Uniform in [0, 1) with 53 bits of precision. *)

val float_range : t -> float -> float -> float

val bool : t -> bool

val coin : t -> float -> bool
(** Bernoulli with probability [p]. *)

val gaussian : t -> float
(** Standard normal (Box–Muller). *)

val exponential : t -> mean:float -> float

val zipf_table : int -> float -> float array
(** Cumulative table for a Zipf distribution over [{1..n}] with
    exponent [s]; feed to {!zipf}. *)

val zipf : t -> float array -> int

val pick : t -> 'a array -> 'a

val split : t -> t
(** Derive an independent stream. *)
