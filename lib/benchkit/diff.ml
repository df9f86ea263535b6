(* Threshold-based comparison of two measurement runs. *)

type direction = Exact | Higher_worse

type threshold = {
  prefix : string;
  direction : direction;
  rel_slack : float;
  abs_slack : float;
}

(* Work counters tolerate a sliver of drift (a plan tie broken the other
   way); semantic counts and result sizes must match exactly; q-error is
   a ratio, so it gets ratio-sized slack.  Longest prefix wins. *)
let default_thresholds =
  [
    { prefix = "rows_scanned"; direction = Higher_worse; rel_slack = 0.05;
      abs_slack = 16.0 };
    { prefix = "pages_read"; direction = Higher_worse; rel_slack = 0.05;
      abs_slack = 4.0 };
    { prefix = "index_probes"; direction = Higher_worse; rel_slack = 0.05;
      abs_slack = 16.0 };
    { prefix = "q_error."; direction = Higher_worse; rel_slack = 0.10;
      abs_slack = 0.1 };
    { prefix = "rewrites."; direction = Exact; rel_slack = 0.0;
      abs_slack = 0.0 };
    { prefix = "plan_cache."; direction = Exact; rel_slack = 0.0;
      abs_slack = 0.0 };
    { prefix = "sc_guard_fallbacks"; direction = Exact; rel_slack = 0.0;
      abs_slack = 0.0 };
    { prefix = "wal."; direction = Exact; rel_slack = 0.0; abs_slack = 0.0 };
    (* per-partition scan counters: zero abs slack, so a pruned segment
       that starts contributing any work at all fails the gate *)
    { prefix = "partition."; direction = Higher_worse; rel_slack = 0.05;
      abs_slack = 0.0 };
    { prefix = "partitions"; direction = Exact; rel_slack = 0.0;
      abs_slack = 0.0 };
    (* outcomes of a seeded stream or load: the ASC availability per
       maintenance policy and the rows a bulk load wrote *)
    { prefix = "maintenance."; direction = Exact; rel_slack = 0.0;
      abs_slack = 0.0 };
    { prefix = "lineitems."; direction = Exact; rel_slack = 0.0;
      abs_slack = 0.0 };
    { prefix = "rows_returned"; direction = Exact; rel_slack = 0.0;
      abs_slack = 0.0 };
    { prefix = "queries"; direction = Exact; rel_slack = 0.0;
      abs_slack = 0.0 };
    { prefix = ""; direction = Higher_worse; rel_slack = 0.05;
      abs_slack = 1e-9 };
  ]

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let threshold_for thresholds name =
  List.fold_left
    (fun best t ->
      if starts_with ~prefix:t.prefix name then
        match best with
        | Some b when String.length b.prefix >= String.length t.prefix -> best
        | _ -> Some t
      else best)
    None thresholds
  |> function
  | Some t -> t
  | None ->
      { prefix = ""; direction = Higher_worse; rel_slack = 0.05;
        abs_slack = 1e-9 }

type verdict = Regression | Improvement | Unchanged

type finding = {
  scenario : string;
  metric : string;
  old_v : float;
  new_v : float;
  verdict : verdict;
  gated : bool;
}

type outcome = {
  findings : finding list;
  missing_scenarios : string list;
  added_scenarios : string list;
  metrics_compared : int;
}

(* wall clock never fails the gate; flag only sizeable drift so reports
   stay quiet on noise *)
let wallclock_rel_slack = 0.25

let judge t ~old_v ~new_v =
  match t.direction with
  | Exact -> if old_v = new_v then Unchanged else Regression
  | Higher_worse ->
      let slack = (Float.abs old_v *. t.rel_slack) +. t.abs_slack in
      if new_v > old_v +. slack then Regression
      else if new_v < old_v -. slack then Improvement
      else Unchanged

let compare_section ~gated ~thresholds ~scenario ~old_metrics ~new_metrics acc =
  List.fold_left
    (fun (findings, compared) (name, old_v) ->
      match List.assoc_opt name new_metrics with
      | None ->
          (* a gated metric that disappeared is a lost measurement *)
          let verdict = if gated then Regression else Unchanged in
          ( { scenario; metric = name; old_v; new_v = Float.nan; verdict;
              gated }
            :: findings,
            compared + 1 )
      | Some new_v ->
          let verdict =
            if gated then judge (threshold_for thresholds name) ~old_v ~new_v
            else if
              Float.abs (new_v -. old_v)
              > Float.abs old_v *. wallclock_rel_slack +. 1e-9
            then if new_v > old_v then Regression else Improvement
            else Unchanged
          in
          ( { scenario; metric = name; old_v; new_v; verdict; gated }
            :: findings,
            compared + 1 ))
    acc old_metrics

let compare_runs ?(thresholds = default_thresholds) ~old_run ~new_run () =
  let open Measure in
  let find run id =
    List.find_opt (fun r -> r.scenario = id) run.scenarios
  in
  let missing =
    List.filter_map
      (fun r ->
        if find new_run r.scenario = None then Some r.scenario else None)
      old_run.scenarios
  in
  let added =
    List.filter_map
      (fun r ->
        if find old_run r.scenario = None then Some r.scenario else None)
      new_run.scenarios
  in
  let findings, compared =
    List.fold_left
      (fun acc old_r ->
        match find new_run old_r.scenario with
        | None -> acc
        | Some new_r ->
            compare_section ~gated:true ~thresholds ~scenario:old_r.scenario
              ~old_metrics:old_r.deterministic
              ~new_metrics:new_r.deterministic acc
            |> compare_section ~gated:false ~thresholds
                 ~scenario:old_r.scenario ~old_metrics:old_r.wallclock
                 ~new_metrics:new_r.wallclock)
      ([], 0) old_run.scenarios
  in
  let interesting =
    List.filter (fun f -> f.verdict <> Unchanged) (List.rev findings)
  in
  let rank f =
    match (f.verdict, f.gated) with
    | Regression, true -> 0
    | Regression, false -> 1
    | Improvement, _ -> 2
    | Unchanged, _ -> 3
  in
  let findings =
    List.stable_sort (fun a b -> Stdlib.compare (rank a) (rank b)) interesting
  in
  { findings; missing_scenarios = missing; added_scenarios = added;
    metrics_compared = compared }

let regressions o =
  List.filter (fun f -> f.gated && f.verdict = Regression) o.findings

let passed o =
  regressions o = [] && o.missing_scenarios = [] && o.added_scenarios = []

(* ---- rendering --------------------------------------------------------- *)

let pct f =
  if Float.is_nan f.new_v || f.old_v = 0.0 then "-"
  else Printf.sprintf "%+.1f%%" (100.0 *. (f.new_v -. f.old_v) /. f.old_v)

let value v = if Float.is_nan v then "(gone)" else Json.float_to_string v

let table ppf ~title rows =
  let header = [ "scenario"; "metric"; "old"; "new"; "delta" ] in
  let widths =
    List.fold_left
      (fun ws row -> List.map2 (fun w c -> max w (String.length c)) ws row)
      (List.map String.length header)
      rows
  in
  let rule =
    String.concat "-+-" (List.map (fun w -> String.make w '-') widths)
  in
  let line row =
    String.concat " | " (List.map2 (Printf.sprintf "%-*s") widths row)
  in
  Fmt.pf ppf "%s@.  %s@.  %s@." title (line header) rule;
  List.iter (fun row -> Fmt.pf ppf "  %s@." (line row)) rows

let rows_of fs =
  List.map (fun f -> [ f.scenario; f.metric; value f.old_v; value f.new_v;
                       pct f ])
    fs

let render ppf o =
  let regs = regressions o in
  let wall_regs =
    List.filter (fun f -> (not f.gated) && f.verdict = Regression) o.findings
  in
  let improvements =
    List.filter (fun f -> f.verdict = Improvement) o.findings
  in
  List.iter
    (fun s -> Fmt.pf ppf "MISSING scenario: %s (present in baseline)@." s)
    o.missing_scenarios;
  List.iter
    (fun s -> Fmt.pf ppf "UNGATED scenario: %s (not in baseline)@." s)
    o.added_scenarios;
  if regs <> [] then
    table ppf ~title:"REGRESSIONS (deterministic, gated):" (rows_of regs);
  if improvements <> [] then
    table ppf ~title:"improvements:" (rows_of improvements);
  if wall_regs <> [] then
    table ppf ~title:"wall-clock drift (report-only, not gated):"
      (rows_of wall_regs);
  Fmt.pf ppf "benchdiff: %d metrics compared, %d regression%s%s — %s@."
    o.metrics_compared (List.length regs)
    (if List.length regs = 1 then "" else "s")
    (match (o.missing_scenarios, o.added_scenarios) with
    | [], [] -> ""
    | ms, added ->
        Printf.sprintf ", %d missing / %d ungated scenario(s)"
          (List.length ms) (List.length added))
    (if passed o then "PASS" else "FAIL")
