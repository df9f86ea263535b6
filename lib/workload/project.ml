(* The paper's §5 example: a [project] table with start_date / end_date
   where durations are short (most projects complete within [max_days]),
   so predicates on both dates are heavily correlated and the
   independence assumption under-estimates badly — the motivating case
   for SSC twinning. *)

open Rel

type config = {
  rows : int;
  days : int; (* start_date spread *)
  max_days : int; (* project duration bound for the bulk *)
  long_fraction : float; (* projects running longer than max_days *)
  seed : int;
}

let default_config =
  { rows = 10_000; days = 730; max_days = 5; long_fraction = 0.1; seed = 11 }

let base_date = Date.of_ymd 1998 1 1

let schema =
  Schema.make "project"
    [
      Schema.column ~nullable:false "id" Value.TInt;
      Schema.column ~nullable:false "start_date" Value.TDate;
      Schema.column ~nullable:false "end_date" Value.TDate;
      Schema.column ~nullable:false "dept" Value.TString;
      Schema.column "budget" Value.TFloat;
    ]

let depts = [| "eng"; "sales"; "hr"; "ops"; "legal" |]

let load ?(config = default_config) db =
  ignore (Database.create_table db schema);
  Database.add_constraint db
    (Icdef.make ~name:"project_pk" ~table:"project" (Icdef.Primary_key [ "id" ]));
  ignore
    (Database.create_index db ~name:"project_id_idx" ~table:"project"
       ~columns:[ "id" ] ~unique:true ());
  ignore
    (Database.create_index db ~name:"project_start_idx" ~table:"project"
       ~columns:[ "start_date" ] ());
  ignore
    (Database.create_index db ~name:"project_end_idx" ~table:"project"
       ~columns:[ "end_date" ] ());
  let rng = Stats.Rng.create config.seed in
  for i = 1 to config.rows do
    let start = Date.add_days base_date (Stats.Rng.int rng config.days) in
    let long = Stats.Rng.coin rng config.long_fraction in
    let duration =
      if long then config.max_days + 1 + Stats.Rng.int rng 60
      else Stats.Rng.int rng (config.max_days + 1)
    in
    ignore
      (Database.insert db ~table:"project"
         (Tuple.make
            [
              Value.Int i;
              Value.Date start;
              Value.Date (Date.add_days start duration);
              Value.String (Stats.Rng.pick rng depts);
              Value.Float (1000.0 +. Stats.Rng.float_range rng 0.0 99_000.0);
            ]))
  done

(* Ground truth for E4: projects active on [day]. *)
let active_on db day =
  let tbl = Database.table_exn db "project" in
  let schema = Table.schema tbl in
  let s = Schema.index_exn schema "start_date"
  and e = Schema.index_exn schema "end_date" in
  Table.fold tbl ~init:0 ~f:(fun acc _ row ->
      match (Tuple.get row s, Tuple.get row e) with
      | Value.Date sd, Value.Date ed when sd <= day && ed >= day -> acc + 1
      | _ -> acc)
