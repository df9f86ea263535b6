(* Ordinary least squares on one predictor: fit y = k*x + b, the line
   {!Band.mine} centres a line band's residual windows on. *)

type fit = {
  k : float;
  b : float;
  n : int;
  r2 : float; (* coefficient of determination *)
  residuals : float array; (* y_i - (k*x_i + b), same order as input *)
}

let fit (points : (float * float) array) =
  let n = Array.length points in
  if n < 2 then invalid_arg "Linreg.fit: need at least two points";
  let sx = ref 0.0 and sy = ref 0.0 in
  Array.iter
    (fun (x, y) ->
      sx := !sx +. x;
      sy := !sy +. y)
    points;
  let mean_x = !sx /. float_of_int n and mean_y = !sy /. float_of_int n in
  let sxx = ref 0.0 and sxy = ref 0.0 and syy = ref 0.0 in
  Array.iter
    (fun (x, y) ->
      let dx = x -. mean_x and dy = y -. mean_y in
      sxx := !sxx +. (dx *. dx);
      sxy := !sxy +. (dx *. dy);
      syy := !syy +. (dy *. dy))
    points;
  let k = if !sxx = 0.0 then 0.0 else !sxy /. !sxx in
  let b = mean_y -. (k *. mean_x) in
  let residuals = Array.map (fun (x, y) -> y -. ((k *. x) +. b)) points in
  let ss_res = Array.fold_left (fun a r -> a +. (r *. r)) 0.0 residuals in
  let r2 = if !syy = 0.0 then 1.0 else 1.0 -. (ss_res /. !syy) in
  { k; b; n; r2; residuals }
