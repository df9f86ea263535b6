(* The paper's running example (§4.4): a [purchase] table where
   "for 99% of tuples, the ship date is between the order date and three
   weeks later" — with a small population of late shipments that the
   exception table tracks, plus amount/quantity columns for correlation
   and grouping workloads.

   Columns:
     id        INT PRIMARY KEY
     customer  INT          (skewed over [1, customers])
     order_date  DATE NOT NULL   (uniform over [base, base+days))
     ship_date   DATE            (order_date + delay; delay <= 21 for the
                                  on-time ~99%, 22..90 for the late tail)
     amount    FLOAT         (linearly correlated with quantity)
     quantity  INT
     region    VARCHAR       (small domain)
*)

open Rel

let regions = [| "north"; "south"; "east"; "west" |]

let base_date = Date.of_ymd 1999 1 1

type config = {
  rows : int;
  days : int; (* order_date spread *)
  late_fraction : float; (* fraction shipped later than 21 days *)
  customers : int;
  seed : int;
}

let default_config =
  { rows = 20_000; days = 365; late_fraction = 0.01; customers = 500; seed = 7 }

let schema =
  Schema.make "purchase"
    [
      Schema.column ~nullable:false "id" Value.TInt;
      Schema.column ~nullable:false "customer" Value.TInt;
      Schema.column ~nullable:false "order_date" Value.TDate;
      Schema.column "ship_date" Value.TDate;
      Schema.column "amount" Value.TFloat;
      Schema.column ~nullable:false "quantity" Value.TInt;
      Schema.column ~nullable:false "region" Value.TString;
    ]

let row_of rng cfg i =
  let order = Date.add_days base_date (Stats.Rng.int rng cfg.days) in
  let late = Stats.Rng.coin rng cfg.late_fraction in
  let delay =
    if late then 22 + Stats.Rng.int rng 69 else Stats.Rng.int rng 22
  in
  let quantity = 1 + Stats.Rng.int rng 50 in
  (* amount = 9.99 * quantity + noise in [-5, 5] *)
  let amount =
    (9.99 *. float_of_int quantity) +. Stats.Rng.float_range rng (-5.0) 5.0
  in
  Tuple.make
    [
      Value.Int i;
      Value.Int (1 + Stats.Rng.int rng cfg.customers);
      Value.Date order;
      Value.Date (Date.add_days order delay);
      Value.Float amount;
      Value.Int quantity;
      Value.String (Stats.Rng.pick rng regions);
    ]

(* Load into [db]; creates the table, its PK (enforced, index-backed) and
   an index on order_date — but deliberately NO index on ship_date, which
   is the access-path asymmetry the paper's example turns on. *)
let load ?(config = default_config) db =
  ignore (Database.create_table db schema);
  Database.add_constraint db
    (Icdef.make ~name:"purchase_pk" ~table:"purchase"
       (Icdef.Primary_key [ "id" ]));
  ignore
    (Database.create_index db ~name:"purchase_id_idx" ~table:"purchase"
       ~columns:[ "id" ] ~unique:true ());
  ignore
    (Database.create_index db ~name:"purchase_order_date_idx"
       ~table:"purchase" ~columns:[ "order_date" ] ());
  let rng = Stats.Rng.create config.seed in
  for i = 1 to config.rows do
    ignore (Database.insert db ~table:"purchase" (row_of rng config i))
  done

(* A stream of further inserts (for staleness/maintenance experiments):
   [violating] controls the fraction shipped late.  A late row is drawn
   from the loader's own late range, 22-90 days, so it violates an
   absolute band only when the band was mined on data without late rows
   (late_fraction = 0); an absolute band mined on the default 1%-late
   data already spans it.
   The draws are left as they are: the maintenance scenario's baseline
   figures depend on them. *)
let insert_batch ?(violating = 0.0) ~rng ~start_id ~count db =
  for i = start_id to start_id + count - 1 do
    let order =
      Date.add_days base_date (Stats.Rng.int rng default_config.days)
    in
    let late = Stats.Rng.coin rng violating in
    let delay =
      if late then 22 + Stats.Rng.int rng 69 else Stats.Rng.int rng 22
    in
    let quantity = 1 + Stats.Rng.int rng 50 in
    let amount =
      (9.99 *. float_of_int quantity) +. Stats.Rng.float_range rng (-5.0) 5.0
    in
    ignore
      (Database.insert db ~table:"purchase"
         (Tuple.make
            [
              Value.Int i;
              Value.Int (1 + Stats.Rng.int rng default_config.customers);
              Value.Date order;
              Value.Date (Date.add_days order delay);
              Value.Float amount;
              Value.Int quantity;
              Value.String (Stats.Rng.pick rng regions);
            ]))
  done
