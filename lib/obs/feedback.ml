(* Cardinality feedback: q-error and SSC confidence recalibration.

   The paper maintains SSC confidence with the pessimistic currency bound
   c − u/N alone.  Executed queries give us something better: the
   *observed* selectivity of a twinned predicate.  When observation and
   stored confidence diverge beyond [tolerance], the catalog confidence
   is pulled toward the observation by [rate] (exponential smoothing), and
   a divergence beyond twice the tolerance additionally flags the SC for a
   RUNSTATS-style refresh through the maintenance repair queue.

   This module is deliberately pure — it knows nothing about catalogs or
   databases.  {!Core.Softdb} measures, calls [recalibrate], and applies
   the verdict, which keeps lib/obs at the bottom of the dependency DAG. *)

(* q-error: multiplicative estimation error, >= 1.0; both sides floored at
   one row so empty results don't divide by zero. *)
let q_error ~estimated ~actual =
  let e = Float.max 1.0 estimated
  and a = Float.max 1.0 (float_of_int actual) in
  Float.max (e /. a) (a /. e)

let default_tolerance = 0.1
let default_rate = 0.5

type verdict =
  | Keep
  | Adjust of { confidence : float; refresh : bool }

let recalibrate ?(tolerance = default_tolerance) ?(rate = default_rate)
    ~stored ~observed () =
  let diff = Float.abs (observed -. stored) in
  if diff <= tolerance then Keep
  else
    let confidence =
      Float.min 1.0 (Float.max 0.0 (stored +. (rate *. (observed -. stored))))
    in
    Adjust { confidence; refresh = diff > 2.0 *. tolerance }
