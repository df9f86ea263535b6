(* The currency model of paper §3.3: "a second dimension of statistics to
   measure the potential error in the SSC statement, based upon activity
   since the last time it was updated."

   If an SSC held with confidence c when its table of N rows was last
   inspected, and u mutations have happened since, then — in the worst
   case where every mutation broke the constraint for a distinct row —
   the fraction still satisfying it is at least c − u/N.  The paper's
   example: 1M rows, 1k updates/day ⇒ ≈3%% bound after a month. *)

let drift ~updates_since ~table_rows =
  if table_rows <= 0 then 1.0
  else
    min 1.0 (float_of_int (max 0 updates_since) /. float_of_int table_rows)

(* Lower bound on the confidence usable *now*. *)
let usable_confidence ~base ~updates_since ~table_rows =
  max 0.0 (base -. drift ~updates_since ~table_rows)

(* Updates before the usable confidence falls below [floor]. *)
let updates_until ~base ~floor ~table_rows =
  if base <= floor then 0
  else int_of_float (Float.round ((base -. floor) *. float_of_int table_rows))
