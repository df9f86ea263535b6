(* The BENCH.json schema: scenario results with a hard-gated
   deterministic section and a report-only wall-clock section. *)

type scenario_result = {
  scenario : string;
  workload : string;
  mode : string;
  deterministic : (string * float) list;
  wallclock : (string * float) list;
}

type run = {
  schema_version : int;
  label : string;
  scale : string;
  scenarios : scenario_result list;
}

let schema_version = 1

exception Schema_error of string

let sort_metrics ms =
  List.sort (fun (a, _) (b, _) -> String.compare a b) ms

let make_result ~scenario ~workload ~mode ~deterministic ~wallclock =
  {
    scenario;
    workload;
    mode;
    deterministic = sort_metrics deterministic;
    wallclock = sort_metrics wallclock;
  }

let sort_scenarios rs =
  let sorted =
    List.sort (fun a b -> String.compare a.scenario b.scenario) rs
  in
  let rec check = function
    | a :: (b :: _ as tl) ->
        if a.scenario = b.scenario then
          raise (Schema_error ("duplicate scenario " ^ a.scenario));
        check tl
    | _ -> ()
  in
  check sorted;
  sorted

let make_run ~label ~scale scenarios =
  { schema_version; label; scale; scenarios = sort_scenarios scenarios }

(* ---- JSON -------------------------------------------------------------- *)

let metrics_to_json ms =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) ms)

let metrics_of_json j =
  List.map (fun (k, v) -> (k, Json.to_float v)) (Json.to_obj j)

let result_to_json r =
  Json.Obj
    [
      ("scenario", Json.String r.scenario);
      ("workload", Json.String r.workload);
      ("mode", Json.String r.mode);
      ("deterministic", metrics_to_json r.deterministic);
      ("wallclock", metrics_to_json r.wallclock);
    ]

let result_of_json j =
  {
    scenario = Json.to_str (Json.member "scenario" j);
    workload = Json.to_str (Json.member "workload" j);
    mode = Json.to_str (Json.member "mode" j);
    deterministic = sort_metrics (metrics_of_json (Json.member "deterministic" j));
    wallclock = sort_metrics (metrics_of_json (Json.member "wallclock" j));
  }

let to_json run =
  Json.Obj
    [
      ("schema_version", Json.Float (float_of_int run.schema_version));
      ("label", Json.String run.label);
      ("scale", Json.String run.scale);
      ("scenarios", Json.List (List.map result_to_json run.scenarios));
    ]

let of_json j =
  let version =
    match Json.member "schema_version" j with
    | Json.Float f when Float.is_integer f -> int_of_float f
    | _ -> raise (Schema_error "missing schema_version")
  in
  if version <> schema_version then
    raise
      (Schema_error
         (Printf.sprintf "unsupported schema version %d (this build reads %d)"
            version schema_version));
  {
    schema_version = version;
    label = Json.to_str (Json.member "label" j);
    scale = Json.to_str (Json.member "scale" j);
    scenarios =
      sort_scenarios
        (List.map result_of_json (Json.to_list (Json.member "scenarios" j)));
  }

let save path run =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Json.to_string ~indent:2 (to_json run));
      Out_channel.output_char oc '\n')

let load path =
  let text = In_channel.with_open_text path In_channel.input_all in
  of_json (Json.of_string text)

(* Only what the hard gate sees: version, scale, and the deterministic
   metric sections, in canonical order — label and wall clock stripped. *)
let fingerprint run =
  Json.to_string
    (Json.Obj
       [
         ("schema_version", Json.Float (float_of_int run.schema_version));
         ("scale", Json.String run.scale);
         ( "scenarios",
           Json.List
             (List.map
                (fun r ->
                  Json.Obj
                    [
                      ("scenario", Json.String r.scenario);
                      ("deterministic", metrics_to_json r.deterministic);
                    ])
                run.scenarios) );
       ])
