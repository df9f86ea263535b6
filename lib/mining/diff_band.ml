(* Column-difference bands as the paper's running example (§4.4) states
   them: for a column pair (hi, lo), the tightest [d_min, d_max] interval
   on hi − lo at each requested confidence.  The mining is {!Band}'s, the
   difference shape; this module keeps the record a mined difference band
   is installed from, which the soft-constraint catalog stores as its
   check. *)

type band = { confidence : float; d_min : float; d_max : float }

type t = {
  table : string;
  col_hi : string; (* the constrained expression is col_hi - col_lo *)
  col_lo : string;
  rows : int;
  bands : band list; (* descending confidence *)
}

let mine ?confidences ?min_rows table ~col_hi ~col_lo =
  Band.mine ?confidences ?min_rows table Band.Diff ~a:col_hi ~b:col_lo
  |> Option.map (fun (m : Band.mined) ->
         {
           table = m.Band.table;
           col_hi;
           col_lo;
           rows = m.Band.rows;
           bands =
             List.map
               (fun (confidence, (b : Band.t)) ->
                 {
                   confidence;
                   d_min = -.b.Band.map.Band.below;
                   d_max = b.Band.map.Band.above;
                 })
               m.Band.bands;
         })

let to_check_pred t (b : band) =
  Band.to_pred
    (Band.diff ~a:(Rel.Expr.col t.col_hi) ~b:(Rel.Expr.col t.col_lo)
       ~lo:b.d_min ~hi:b.d_max)

let band_with t ~confidence =
  List.filter (fun b -> b.confidence >= confidence) t.bands
  |> List.fold_left
       (fun best b ->
         match best with
         | None -> Some b
         | Some x ->
             if b.d_max -. b.d_min < x.d_max -. x.d_min then Some b else best)
       None

let pp ppf t =
  Fmt.pf ppf "%s: %s - %s in%a" t.table t.col_hi t.col_lo
    (Fmt.list ~sep:Fmt.nop (fun ppf b ->
         Fmt.pf ppf " [%.0f%%: %.3g..%.3g]" (100.0 *. b.confidence) b.d_min
           b.d_max))
    t.bands
