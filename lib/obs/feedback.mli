(** Cardinality feedback: q-error and SSC confidence recalibration.

    Pure — knows nothing about catalogs or databases.  {!Core.Softdb}
    measures observed selectivities, calls {!recalibrate}, and applies
    the verdict. *)

val q_error : estimated:float -> actual:int -> float
(** Multiplicative estimation error, >= 1.0; both sides floored at one
    row so empty results don't divide by zero. *)

val default_tolerance : float
(** 0.1 — |observed − stored| below this is noise. *)

val default_rate : float
(** 0.5 — exponential-smoothing step toward the observation. *)

type verdict =
  | Keep
  | Adjust of { confidence : float; refresh : bool }
      (** [confidence] is the new catalog confidence; [refresh] asks for
          a RUNSTATS-style re-measure via the maintenance queue (set when
          the divergence exceeds twice the tolerance). *)

val recalibrate :
  ?tolerance:float -> ?rate:float -> stored:float -> observed:float ->
  unit -> verdict
