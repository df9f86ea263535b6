(* What a workload run hands back, and how it is printed: one
   [metric <name> <value> <unit>] line per measured metric, a
   log-spaced latency histogram per op kind, then the single JSON
   result line restricted to the metrics BENCHMARK.json names for the
   mode (end_to_end untraced, per_layer traced). *)

type t = {
  attempted : int;
  failed : int;  (** failed or refused ops plus wrong answers *)
  valid : bool;  (** false when the run cannot stand, e.g. a lagging generator *)
  notes : string list;
  metrics : (string * float * string) list;  (** name, value, unit *)
  latencies : (string * float list) list;  (** op kind -> samples, ms *)
}

let latency_metrics ~prefix samples =
  let a = Pctl.sorted samples in
  [
    (prefix ^ "_p50_ms", Pctl.percentile_sorted a 0.50, "ms");
    (prefix ^ "_p99_ms", Pctl.percentile_sorted a 0.99, "ms");
    (prefix ^ "_samples", float_of_int (Array.length a), "count");
  ]

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let print_human r =
  List.iter (fun n -> Printf.printf "note %s\n" n) r.notes;
  List.iter
    (fun (name, v, u) -> Printf.printf "metric %s %.10g %s\n" name v u)
    r.metrics;
  List.iter
    (fun (kind, samples) ->
      let n = List.length samples in
      Printf.printf "hist %s n=%d p50=%.4f p99=%.4f ms\n" kind n
        (Pctl.percentile samples 0.5)
        (Pctl.percentile samples 0.99);
      List.iter
        (fun (lo, hi, c) ->
          Printf.printf "hist %s [%.4g, %.4g) ms %d %s\n" kind lo hi c
            (String.make (max 1 (c * 60 / max 1 n)) '#'))
        (Pctl.histogram samples))
    r.latencies

(* [wanted]: (name, unit) from BENCHMARK.json.  Every wanted metric must
   have been measured as a finite number; the error names the first one
   that was not. *)
let json_line r ~wanted =
  let metrics =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun (n, _, _) -> n = name) r.metrics with
        | Some (_, v, u) when Float.is_finite v && u = unit_ ->
            Ok
              (Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
                 (Benchkit.Json.float_to_string v) unit_)
        | Some (_, v, u) ->
            Error (Printf.sprintf "metric %s measured as %g %s" name v u)
        | None -> Error (Printf.sprintf "metric %s not measured" name))
      wanted
  in
  match List.find_opt Result.is_error metrics with
  | Some (Error e) -> Error e
  | _ ->
      Ok
        (Printf.sprintf
           "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
           (r.valid && r.failed = 0) r.attempted r.failed
           (String.concat ", " (List.map Result.get_ok metrics)))
