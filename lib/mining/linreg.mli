(** Ordinary least squares on one predictor: fit [y = k·x + b], the line
    {!Band.mine} centres a line band's residual windows on. *)

type fit = {
  k : float;
  b : float;
  n : int;
  r2 : float;  (** coefficient of determination *)
  residuals : float array;  (** [y_i − (k·x_i + b)], in input order *)
}

val fit : (float * float) array -> fit
(** Raises [Invalid_argument] with fewer than two points. *)
