(** Bands between two columns of one row — the paper's headline soft
    constraints, in the one form every consumer reads.

    A band states that a row whose column [b] is x has its banded column
    [a] in [k·x + c − below, k·x + c + above].  A check spells it in one
    of two shapes:
    - a difference, [a - b BETWEEN lo AND hi] ([k = 1], [c = 0]): §4.4's
      [0 ≤ ship_date − order_date ≤ 21];
    - a line, [a BETWEEN k·b + c − e AND k·b + c + e]: §2's linear
      correlation, after [10].

    However a band was declared or mined, the optimizer's range images,
    maintenance's widening and re-mining, measured confidence, the
    catalog linter and the index advisor's hints read it here.  The miner
    is one algorithm for both shapes: the narrowest window over the
    residual [a − k·b − c] at each confidence. *)

open Rel

type shape = Diff | Line

type map = {
  src : Expr.col_ref;
  dst : Expr.col_ref;
  k : float;
  c : float;
  below : float;
  above : float;
}
(** One direction of a band: a row whose [src] is x has [dst] in
    [k·x + c − below, k·x + c + above]. *)

type t = { shape : shape; map : map }
(** [map] runs from [b] to the banded column [a]; a line keeps
    [below = above]. *)

val diff : a:Expr.col_ref -> b:Expr.col_ref -> lo:float -> hi:float -> t
(** [a - b BETWEEN lo AND hi]. *)

val line :
  a:Expr.col_ref -> b:Expr.col_ref -> k:float -> c:float -> e:float -> t
(** [a BETWEEN k·b + c − e AND k·b + c + e]. *)

val banded : t -> Expr.col_ref
(** The column [a] the band bounds. *)

val prefix : t -> string
(** The rule-name prefix the optimizer logs the band's rewrites under:
    ["band"] for a difference, ["corr"] for a line. *)

val width : t -> float
(** [below + above]: the band's width on its banded column. *)

val numeric : Value.t -> float option
(** A number's, or a date's day number's, position on the line a band
    is measured along; [None] for NULL and non-numbers. *)

val of_pred : Expr.pred -> t option
(** The band a predicate states, in either shape, or [None]. *)

val of_check : Expr.pred -> t list
(** The bands among a check's conjuncts. *)

val widths : Expr.pred -> (string * float) list
(** Each band of a check as its banded column and width: the index
    advisor's [Band] hints. *)

val to_pred : t -> Expr.pred
(** The band as a check conjunct, inverse to {!of_pred}.  Constants are
    exact: an integral value is an INT, anything else the full float. *)

val maps : t -> map list
(** The band's directions, in the order predicate introduction tries
    them; the first is the one twinning takes (a difference's [a → b], a
    line's [b → a]).  A flat line has no inverse. *)

val image : map -> float option * float option -> float option * float option
(** The image of a range of [src] on [dst]; a missing end is unbounded. *)

val widen : t -> a:float -> b:float -> t
(** The band grown just enough to hold on the row: a difference's bounds
    move to the row's difference, a line's [e] to its residual, rounded
    outward until the check, computed as the engine computes it, holds on
    the row. *)

val disjoint : t -> t -> bool
(** No row can satisfy both: the same column pair, the same slope, and
    disjoint images of every point. *)

val coverage : Table.t -> t -> float
(** The share of rows with both columns non-NULL that the band holds on
    (1.0 when there are none): its measured confidence. *)

type mined = {
  table : string;
  rows : int;  (** rows with both columns non-NULL *)
  selectivity : float;
      (** the width of the 100% band over the range of the banded
          column: smaller is more useful *)
  bands : (float * t) list;  (** per confidence, descending *)
}

val mine :
  ?confidences:float list -> ?min_rows:int -> Table.t -> shape -> a:string ->
  b:string -> mined option
(** Mine a band of [shape] on [a] against [b]: for a line, fit [k] and [c]
    by least squares; then at each confidence q take the narrowest window
    over the residual [a − k·b − c] holding a q fraction of the rows with
    both columns non-NULL.  A line is centred on its window and its [e]
    rounded outward, so the check holds on every row the window holds.
    [None] on ill-typed columns (a difference needs two numbers or two
    dates, a line two numbers) or fewer than [min_rows] (default 32)
    rows.  No selectivity test is applied here. *)

val remine : Table.t -> t -> confidence:float -> t option
(** Re-mine a band from the table's current rows: the same columns and
    shape, at [confidence]. *)
